"""Condition number and sparsity of survey system matrices.

Every system is measured on one order-n PSD matrix G: the Laplacian L, or
B·Bᵀ for an incidence matrix B.  The dilation [[0, B], [Bᵀ, 0]] has nonzero
eigenvalues ±σᵢ(B), and σᵢ(B)² are those of B·Bᵀ, so its κ is √κ(B·Bᵀ);
squaring leaves σmin a relative error of about ε·κ²/2.  G's kernel
dimension c is counted, as its number of connected components, and the
smallest nonzero eigenvalue is the (c+1)-th smallest: from the dense
eigensolver up to a size limit (a per-call argument, 3000 when None),
above it from one shift-invert Lanczos call with a fixed start vector, so
repeated runs agree bit for bit.  That call solves with G − σI, factored
once by sparse LU under a symmetric minimum-degree ordering (minimum degree
on Aᵀ + A), which keeps the fill of G's symmetric pattern low.  Sparsity is
read off the CSR index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .graphs import RectMatrix, SymmetricMatrix

DEFAULT_CUTOFF = 1e-6
DEFAULT_DENSE_LIMIT = 3000
_ITERATIVE_TOL = 1e-8
# Seed of the Lanczos start vector.  A random start (not the all-ones vector,
# which spans the Laplacian kernel) keeps every eigenvector reachable.
_START_SEED = 2025


def dense_limit() -> int:
    """Largest order the dense eigensolver takes when no limit is passed."""
    return DEFAULT_DENSE_LIMIT


def zero_tolerance(eigs: np.ndarray, cutoff: Optional[float] = None) -> float:
    """Magnitude at or below which an eigenvalue of ``eigs`` counts as zero:
    ``cutoff``, or numpy's rank tolerance order·ε·max|λ| when None."""
    if cutoff is None:
        return eigs.size * np.finfo(float).eps * float(np.abs(eigs).max())
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return cutoff


@dataclass(frozen=True)
class SpectralRecord:
    """Measured spectral quantities of one system matrix."""

    system_size: int
    lambda_min_nz: float
    lambda_max: float
    kappa: float
    sparsity: int
    matrix_kind: str

    def __post_init__(self) -> None:
        if self.kappa < 1.0 - 1e-12:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not 0 < self.sparsity <= self.system_size:
            raise ValueError("sparsity must lie in 1..system_size")


def full_spectrum(m: SymmetricMatrix, dense_limit: Optional[int] = None) -> np.ndarray:
    """All eigenvalues, ascending.  Refuses orders above the dense limit
    (3000 when None)."""
    limit = DEFAULT_DENSE_LIMIT if dense_limit is None else dense_limit
    if m.order > limit:
        raise ValueError(f"order {m.order} exceeds dense limit {limit}; use extreme_eigs")
    return np.linalg.eigvalsh(m.to_dense())


def extreme_eigs(
    m: SymmetricMatrix, *, kernel: int, dense_limit: Optional[int] = None
) -> tuple[float, float]:
    """(smallest nonzero, largest) eigenvalue of a PSD m whose null space
    has dimension ``kernel``: the (kernel+1)-th and the last.  Orders above
    the dense limit (3000 when None) take Lanczos."""
    if kernel >= m.order:
        raise ValueError("effectively zero matrix: no nonzero eigenvalue")
    if m.order > (DEFAULT_DENSE_LIMIT if dense_limit is None else dense_limit):
        return _extreme_eigs_iterative(m, kernel)
    eigs = np.linalg.eigvalsh(m.to_dense())
    return float(eigs[kernel]), float(eigs[-1])


def _extreme_eigs_iterative(m: SymmetricMatrix, kernel: int) -> tuple[float, float]:
    a = m.csr
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).uniform(-1.0, 1.0, m.order)
    lam_max = float(
        spla.eigsh(a, k=1, which="LM", v0=v0, tol=_ITERATIVE_TOL, return_eigenvectors=False)[0]
    )
    if kernel + 1 == m.order:  # λmax is the only nonzero eigenvalue
        return lam_max, lam_max
    # Shift-invert about a small negative shift: m is PSD, so m - σI is
    # nonsingular, and the kernel + 1 eigenvalues nearest σ are the kernel's
    # zeros and the smallest nonzero eigenvalue.  m - σI is factored once,
    # ordered by minimum degree on its symmetric pattern: eigsh's own splu
    # orders columns by COLAMD, whose LU of an order-2000 Laplacian can hold
    # half of N² entries.
    sigma = -0.01 * lam_max
    lu = spla.splu((a - sigma * sp.eye_array(m.order)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    vals = spla.eigsh(
        a, k=kernel + 1, sigma=sigma, which="LM", v0=v0, tol=_ITERATIVE_TOL,
        OPinv=spla.LinearOperator(a.shape, matvec=lu.solve), return_eigenvectors=False,
    )
    return float(vals.max()), lam_max


def condition_number(m: SymmetricMatrix, cutoff: Optional[float] = None) -> float:
    """max|λ| / min nonzero |λ| of any symmetric m up to order 3000, where
    |λ| at or below ``zero_tolerance(eigs, cutoff)`` counts as zero."""
    eigs = np.abs(full_spectrum(m))
    nonzero = eigs[eigs > zero_tolerance(eigs, cutoff)]
    if not nonzero.size:
        raise ValueError("effectively zero matrix: all eigenvalues below cutoff")
    return float(eigs.max()) / float(nonzero.min())


def sparsity(m: RectMatrix) -> int:
    """Maximum number of structurally nonzero entries in any row of the
    Hermitian system: m itself when symmetric, else its dilation
    [[0, m], [mᵀ, 0]], whose rows are m's rows and columns."""
    rows = int(np.diff(m.csr.indptr).max())
    if isinstance(m, SymmetricMatrix):
        return rows
    return max(rows, int(np.bincount(m.csr.indices, minlength=m.cols).max()))


def measure(
    m: RectMatrix, matrix_kind: str, *, dense_limit: Optional[int] = None
) -> SpectralRecord:
    """SpectralRecord of a Laplacian L, or of the dilation [[0, B], [Bᵀ, 0]]
    of an incidence matrix B: order rows + cols, κ = √κ(B·Bᵀ).  The kernel
    dimension is the number of connected components, exact for L (positive
    weights) and B·Bᵀ.  Orders above ``dense_limit`` (3000 when None) take
    Lanczos.
    """
    if matrix_kind == "laplacian":
        if not isinstance(m, SymmetricMatrix):
            raise ValueError("a Laplacian system is measured from L, not a rectangular matrix")
        g, size = m, m.order
    elif matrix_kind == "incidence":
        if isinstance(m, SymmetricMatrix):
            raise ValueError("an incidence system is measured from B, not a symmetric matrix")
        g, size = SymmetricMatrix(m.csr @ m.csr.T), m.rows + m.cols
    else:
        raise ValueError(f"unknown matrix kind {matrix_kind!r}")
    # G's pattern is symmetric, so its strong components are its components;
    # "strong" skips the symmetrized copy that an undirected count makes.
    kernel = int(connected_components(g.csr, directed=True, connection="strong")[0])
    lam_min, lam_max = extreme_eigs(g, kernel=kernel, dense_limit=dense_limit)
    if matrix_kind == "incidence":
        lam_min, lam_max = math.sqrt(lam_min), math.sqrt(lam_max)
    return SpectralRecord(
        system_size=size,
        lambda_min_nz=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        sparsity=sparsity(m),
        matrix_kind=matrix_kind,
    )
