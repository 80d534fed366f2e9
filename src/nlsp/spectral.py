"""Condition number and sparsity of survey system matrices.

``measure`` is the one κ function.  It picks no eigenvalue by magnitude:
the kernel dimension is counted, so no cutoff enters a κ (the survey's flag
threshold only annotates).  Every system is measured on one order-n PSD
matrix G: the Laplacian L, or
B·Bᵀ for an incidence matrix B.  The dilation [[0, B], [Bᵀ, 0]] has nonzero
eigenvalues ±σᵢ(B), and σᵢ(B)² are those of B·Bᵀ, so its κ is √κ(B·Bᵀ);
squaring leaves σmin a relative error of about ε·κ²/2.  G has zero row sums
on each connected component, so its kernel is spanned by the c component
indicators, and the smallest nonzero eigenvalue is the (c+1)-th smallest.
Dense G up to a size limit (a per-call argument, 3000 when None) take the
dense eigensolver.  Larger G, and sparse G at any order (order above 256,
at most order²/16 entries), take Lanczos with a fixed start vector: one
call for λmax on G, then one or two for λmin.  The first is factor-free:
λmin is the smallest eigenvalue of x ↦ G·x + λmax·Πx, Π the projector onto
the component indicators, which sends G's kernel to λmax.  It converges in
a few dozen products on well-conditioned G, and may take at most
_FACTOR_FREE_MATVECS of them.  Past that budget, or when ARPACK does not
converge, 1/λmin is found as the largest eigenvalue of the pseudo-inverse
G⁺.  G⁺ is applied by grounding one vertex per component, solving with the
rest of G (factored once by sparse LU under a symmetric minimum-degree
ordering, minimum degree on Aᵀ + A, which keeps the fill of G's symmetric
pattern low) and subtracting each component's mean.  The budget counts
products, not ARPACK restarts, so which path runs depends on G alone, and
repeated runs agree bit for bit.  Sparsity is read off the CSR index
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .graphs import RectMatrix, SymmetricMatrix

DEFAULT_DENSE_LIMIT = 3000
_ITERATIVE_TOL = 1e-8
# G counts as sparse, and takes Lanczos below the dense limit too, when its
# order exceeds _SPARSE_MIN_ORDER and it holds at most order²/_SPARSE_FILL
# entries.
_SPARSE_MIN_ORDER = 256
_SPARSE_FILL = 16
# Seed of the Lanczos start vector.  A random start (not the all-ones vector,
# which spans the Laplacian kernel) keeps every eigenvector reachable.
_START_SEED = 2025
# Products with G the factor-free Lanczos run for λmin may take before the
# grounded pseudo-inverse takes over.  Well-conditioned graphs (hypercubes,
# G_a^m, expanders) need 20 to about 220; a grid or a tree-like graph needs
# thousands, and its run gives up after these 250 sparse products.
_FACTOR_FREE_MATVECS = 250


def dense_limit() -> int:
    """Largest order the dense eigensolver takes when no limit is passed."""
    return DEFAULT_DENSE_LIMIT


def zero_tolerance(eigs: np.ndarray) -> float:
    """Magnitude at or below which an eigenvalue of ``eigs`` counts as zero:
    numpy's rank tolerance order·ε·max|λ|."""
    return eigs.size * np.finfo(float).eps * float(np.abs(eigs).max())


@dataclass(frozen=True)
class SpectralRecord:
    """Measured spectral quantities of one system matrix, and how they were
    obtained."""

    system_size: int
    lambda_min_nz: float
    lambda_max: float
    kappa: float
    sparsity: int
    matrix_kind: str
    # the path that found the eigenvalues ("dense", "factor-free" or
    # "grounded", see measure) and the kernel dimension c, G's component count
    eigensolver: str
    kernel: int

    def __post_init__(self) -> None:
        if self.kappa < 1.0 - 1e-12:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not 0 < self.sparsity <= self.system_size:
            raise ValueError("sparsity must lie in 1..system_size")


def extreme_eigs(
    m: SymmetricMatrix,
    *,
    kernel: int,
    dense_limit: Optional[int] = None,
    labels: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """(smallest nonzero, largest) eigenvalue of a PSD m whose null space
    has dimension ``kernel``: the (kernel+1)-th and the last.  Orders above
    the dense limit (3000 when None), and sparse m at any order, take
    Lanczos; that path needs m to have zero row sums (a Laplacian or B·Bᵀ),
    with ``kernel`` connected components, whose ``labels`` (from
    ``connected_components``) it counts itself when not given.  Lanczos
    first seeks λmin factor-free, on m with its kernel shifted to λmax,
    within _FACTOR_FREE_MATVECS products; past them it falls back to the
    pseudo-inverse of m through one sparse LU of m grounded."""
    return _extremes(m, kernel, dense_limit, labels)[:2]


def _extremes(
    m: SymmetricMatrix, kernel: int, dense_limit: Optional[int], labels: Optional[np.ndarray]
) -> tuple[float, float, str]:
    """``extreme_eigs`` and the eigensolver path that found them."""
    if kernel >= m.order:
        raise ValueError("effectively zero matrix: no nonzero eigenvalue")
    limit = DEFAULT_DENSE_LIMIT if dense_limit is None else dense_limit
    if m.order > limit or _is_sparse(m):
        labels = _component_labels(m) if labels is None else labels
        if int(labels.max()) + 1 != kernel:
            raise ValueError(f"kernel {kernel} is not m's component count {labels.max() + 1}")
        return _extreme_eigs_iterative(m, labels)
    eigs = np.linalg.eigvalsh(m.to_dense())
    return float(eigs[kernel]), float(eigs[-1]), "dense"


def _is_sparse(m: SymmetricMatrix) -> bool:
    return m.order > _SPARSE_MIN_ORDER and m.csr.nnz <= m.order**2 / _SPARSE_FILL


def _component_labels(m: SymmetricMatrix) -> np.ndarray:
    # m's pattern is symmetric, so its strong components are its components;
    # "strong" skips the symmetrized copy that an undirected count makes.
    return connected_components(m.csr, directed=True, connection="strong")[1]


def _extreme_eigs_iterative(m: SymmetricMatrix, labels: np.ndarray) -> tuple[float, float, str]:
    a = m.csr
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).uniform(-1.0, 1.0, m.order)
    lam_max = float(
        spla.eigsh(a, k=1, which="LM", v0=v0, tol=_ITERATIVE_TOL, return_eigenvectors=False)[0]
    )
    counts = np.bincount(labels)
    if counts.size + 1 == m.order:  # λmax is the only nonzero eigenvalue
        return lam_max, lam_max, "factor-free"

    def means(x: np.ndarray) -> np.ndarray:
        """Πx: each entry replaced by its component's mean."""
        return (np.bincount(labels, weights=x) / counts)[labels]

    try:
        return _smallest_deflated(a, means, lam_max, v0), lam_max, "factor-free"
    except (_OverBudget, spla.ArpackNoConvergence):
        pass
    # Lanczos on the pseudo-inverse m⁺, whose largest eigenvalue is 1/λmin.
    # m's kernel is spanned by its component indicators, so with one vertex
    # of each component grounded (its row and column deleted) the rest of m
    # is nonsingular, and for x of zero mean on every component
    # m⁺x = P·[m_g⁻¹(Px)_kept; 0], P subtracting each component's mean.  m_g
    # is factored once, ordered by minimum degree on its symmetric pattern:
    # scipy's default COLAMD ordering can fill half of N².
    kept = np.ones(m.order, dtype=bool)
    kept[np.unique(labels, return_index=True)[1]] = False
    lu = spla.splu(a[kept][:, kept].tocsc(), permc_spec="MMD_AT_PLUS_A")

    def center(x: np.ndarray) -> np.ndarray:
        return x - means(x)

    def pinv(x: np.ndarray) -> np.ndarray:
        y = np.zeros(m.order)
        y[kept] = lu.solve(center(x.ravel())[kept])
        return center(y)

    inv_min = spla.eigsh(
        spla.LinearOperator(a.shape, matvec=pinv, dtype=float), k=1, which="LA", v0=v0,
        tol=_ITERATIVE_TOL, return_eigenvectors=False,
    )[0]
    return 1.0 / float(inv_min), lam_max, "grounded"


class _OverBudget(Exception):
    """The factor-free Lanczos run spent its _FACTOR_FREE_MATVECS."""


def _smallest_deflated(a, means, lam_max: float, v0: np.ndarray) -> float:
    """λmin, the smallest nonzero eigenvalue of a, as the smallest eigenvalue
    of x ↦ a·x + λmax·Πx, Π = ``means`` the projector onto the component
    indicators: Π sends a's kernel to λmax and leaves the rest of its
    spectrum in place.  Raises _OverBudget past _FACTOR_FREE_MATVECS
    products."""
    spent = 0

    def deflated(x: np.ndarray) -> np.ndarray:
        nonlocal spent
        spent += 1
        if spent > _FACTOR_FREE_MATVECS:
            raise _OverBudget
        x = x.ravel()
        return a @ x + lam_max * means(x)

    return float(spla.eigsh(
        spla.LinearOperator(a.shape, matvec=deflated, dtype=float), k=1, which="SA", v0=v0,
        tol=_ITERATIVE_TOL, return_eigenvectors=False,
    )[0])


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
    Lanczos.  The record names the path that ran: "dense" (``eigvalsh``),
    "factor-free" (Lanczos on G alone, also when λmax is G's only nonzero
    eigenvalue) or "grounded" (λmin through the grounded pseudo-inverse).
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
    labels = _component_labels(g)
    kernel = int(labels.max()) + 1
    lam_min, lam_max, eigensolver = _extremes(g, kernel, dense_limit, labels)
    if matrix_kind == "incidence":
        lam_min, lam_max = math.sqrt(lam_min), math.sqrt(lam_max)
    return SpectralRecord(
        system_size=size,
        lambda_min_nz=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        sparsity=sparsity(m),
        matrix_kind=matrix_kind,
        eigensolver=eigensolver,
        kernel=kernel,
    )
