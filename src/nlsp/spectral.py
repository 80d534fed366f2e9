"""Condition number, sparsity, and eigenvalue-cutoff diagnostics.

Every system matrix arrives as canonical CSR (``SymmetricMatrix.csr``).  The
dense symmetric eigensolver, on ``csr.toarray()``, is the reference path up
to a size limit (default 3000, overridable through the ``NLSP_DENSE_LIMIT``
environment variable); above it, extreme eigenvalues come from a Lanczos
solver on the CSR array itself, with shift-invert for the small end of the
spectrum and a fixed start vector so repeated runs agree bit for bit.
Sparsity is read off the CSR row pointer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .graphs import SymmetricMatrix

DEFAULT_CUTOFF = 1e-6
AUDIT_CUTOFF = 1e-10
DEFAULT_DENSE_LIMIT = 3000
_ITERATIVE_TOL = 1e-8
# Seed of the Lanczos start vector.  A random start (not the all-ones vector,
# which spans the Laplacian kernel) keeps every eigenvector reachable.
_START_SEED = 2025


def dense_limit() -> int:
    """Largest order handled by the dense eigensolver (env-overridable)."""
    raw = os.environ.get("NLSP_DENSE_LIMIT")
    return int(raw) if raw else DEFAULT_DENSE_LIMIT


@dataclass(frozen=True)
class SpectralRecord:
    """Measured spectral quantities of one system matrix."""

    system_size: int
    lambda_min_nz: float
    lambda_max: float
    kappa: float
    sparsity: int
    cutoff: float
    matrix_kind: str

    def __post_init__(self) -> None:
        if self.kappa < 1.0 - 1e-12:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not 0 < self.sparsity <= self.system_size:
            raise ValueError("sparsity must lie in 1..system_size")


@dataclass(frozen=True)
class CutoffSensitivity:
    """Minimum nonzero eigenvalue under the working and audit cutoffs."""

    system_size: int
    min_eig_at_1e6: float
    min_eig_at_1e10: float
    delta: float

    @property
    def flagged(self) -> bool:
        return self.delta > 0.0


def full_spectrum(m: SymmetricMatrix) -> np.ndarray:
    """All eigenvalues, ascending.  Refuses orders above the dense limit."""
    limit = dense_limit()
    if m.order > limit:
        raise ValueError(
            f"order {m.order} exceeds dense limit {limit}; use extreme_eigs"
        )
    return np.linalg.eigvalsh(m.to_dense())


def extreme_eigs(m: SymmetricMatrix, cutoff: float = DEFAULT_CUTOFF) -> tuple[float, float]:
    """(smallest |eigenvalue| above cutoff, largest |eigenvalue|)."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if m.order <= dense_limit():
        eigs = np.abs(full_spectrum(m))
        lam_max = float(eigs.max())
        if lam_max <= cutoff:
            raise ValueError("effectively zero matrix: all eigenvalues below cutoff")
        lam_min = float(eigs[eigs > cutoff].min())
        return lam_min, lam_max
    return _extreme_eigs_iterative(m, cutoff)


def _extreme_eigs_iterative(m: SymmetricMatrix, cutoff: float) -> tuple[float, float]:
    a = m.csr
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).uniform(-1.0, 1.0, m.order)
    lam_max = float(
        np.abs(
            spla.eigsh(a, k=1, which="LM", v0=v0, tol=_ITERATIVE_TOL, return_eigenvectors=False)
        ).max()
    )
    if lam_max <= cutoff:
        raise ValueError("effectively zero matrix: all eigenvalues below cutoff")
    # Shift-invert near zero; the small negative shift keeps the factored
    # matrix nonsingular for PSD Laplacians. k grows until an eigenvalue
    # clears the cutoff (the kernel can have high multiplicity for dilations).
    sigma = -0.01 * lam_max
    k = 2
    while True:
        k = min(k, m.order - 1)
        vals = spla.eigsh(
            a, k=k, sigma=sigma, which="LM", v0=v0, tol=_ITERATIVE_TOL,
            return_eigenvectors=False,
        )
        above = np.abs(vals)[np.abs(vals) > cutoff]
        if above.size:
            return float(above.min()), lam_max
        if k >= m.order - 1:
            raise ValueError("effectively zero matrix: all eigenvalues below cutoff")
        k *= 2


def condition_number(m: SymmetricMatrix, cutoff: float = DEFAULT_CUTOFF) -> float:
    lam_min, lam_max = extreme_eigs(m, cutoff)
    return lam_max / lam_min


def sparsity(m: SymmetricMatrix) -> int:
    """Maximum number of structurally nonzero entries in any row."""
    return int(np.diff(m.csr.indptr).max())


def cutoff_sensitivity(m: SymmetricMatrix) -> CutoffSensitivity:
    """Minimum nonzero eigenvalue at cutoffs 1e-6 and 1e-10 (dense path)."""
    eigs = np.abs(full_spectrum(m))
    mins = []
    for cut in (DEFAULT_CUTOFF, AUDIT_CUTOFF):
        above = eigs[eigs > cut]
        if above.size == 0:
            raise ValueError("effectively zero matrix: all eigenvalues below cutoff")
        mins.append(float(above.min()))
    return CutoffSensitivity(
        system_size=m.order,
        min_eig_at_1e6=mins[0],
        min_eig_at_1e10=mins[1],
        delta=abs(mins[0] - mins[1]),
    )


def measure(m: SymmetricMatrix, matrix_kind: str, cutoff: float = DEFAULT_CUTOFF) -> SpectralRecord:
    """Assemble the SpectralRecord for one system matrix."""
    lam_min, lam_max = extreme_eigs(m, cutoff)
    return SpectralRecord(
        system_size=m.order,
        lambda_min_nz=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        sparsity=sparsity(m),
        cutoff=cutoff,
        matrix_kind=matrix_kind,
    )
