"""Condition number and sparsity of survey system matrices.

``measure`` is the one κ function, and ``extreme_eigs(G, *, dense_limit)``
the one eigensolver it calls.  It picks no eigenvalue by magnitude and
holds no null tolerance: the kernel dimension is counted from G's
components, so no cutoff enters a κ (the survey's flag threshold only
annotates, and the HHL simulator keeps its own, ``hhl.zero_tolerance``).
A ``SymmetricMatrix`` is a Laplacian L, any other ``RectMatrix`` an
incidence matrix B, and G is L itself or B·Bᵀ.  The dilation
[[0, B], [Bᵀ, 0]] has nonzero eigenvalues ±σᵢ(B), and σᵢ(B)² are those of
B·Bᵀ, so its κ is √κ(B·Bᵀ); squaring leaves σmin a relative error of about
ε·κ²/2.  G has zero row sums (``extreme_eigs`` refuses any other G), so its
kernel is spanned by the c component indicators, and the smallest nonzero
eigenvalue is the (c+1)-th smallest.  Dense G up to a size limit (a per-call argument,
3000 when None) take the dense eigensolver.  Larger G, and sparse G at any
order (order above 256, at most order²/16 entries), take Lanczos with a
fixed start vector, on one of two routes chosen from G's pattern alone.

G that factors cheaply takes the factored route: its pattern is a forest,
which minimum degree factors with no fill, or its envelope work Σwᵢ² after
reverse Cuthill–McKee is at most the work of _ENVELOPE_MATVECS products
with G.  Such G (grids, ladders, rings, trees) have small λ₂ and a
clustered top, where Lanczos on G alone takes thousands of products.
λmax is the largest eigenvalue of (σI - G)⁻¹, σ just above the row bound,
through one sparse LU; λmin is found through the pseudo-inverse G⁺
(below).

Any other G takes one Lanczos call for λmax on G, then one run for λmin,
chosen by G's diagonal, which may take at most _FACTOR_FREE_MATVECS
products with G.  Where the diagonal is narrow (its largest entry at most
_WIDE times its smallest positive one) the run is factor-free: λmin is the
smallest eigenvalue of x ↦ G·x + λmax·Πx, Π the projector onto the
component indicators, which sends G's kernel to λmax.  Where it is wide,
as a weight rule or a scale-free hub makes it, the run is preconditioned:
LOBPCG on G off its kernel with the Jacobi preconditioner diag(G)⁻¹, which
evens the diagonal out.  Past the budget, or when ARPACK does not converge,
λmin is found through G⁺ as on the factored route.

1/λmin is the largest eigenvalue of G⁺.  G⁺ is applied by grounding one
vertex per component, solving with the rest of G (factored once by sparse
LU under a symmetric minimum-degree ordering, minimum degree on Aᵀ + A,
which keeps the fill of G's symmetric pattern low) and subtracting each
component's mean.  The route and the budget depend on G alone, not on
ARPACK restarts, so repeated runs agree bit for bit.  Sparsity is read off
the CSR index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

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
# Products with G the one λmin run (factor-free or preconditioned) may take
# before the grounded pseudo-inverse takes over.  Well-conditioned graphs
# (hypercubes, G_a^m, expanders) need 20 to about 220 factor-free, and
# triangular 41 to 56 need 321 to 441; LOBPCG needs up to 435 on clustered
# barabasi_albert 2100–2200.  A grid or a tree-like graph needs thousands,
# and its run gives up after these 500 sparse products.
_FACTOR_FREE_MATVECS = 500
# The factored route's bound on the envelope work Σwᵢ², in products with G
# (_factors_cheaply), apart from the λmin run's budget.  At 500 products,
# triangular 41 (envelope 254·nnz) would take the factored route: medians
# of 59 and 101 ms in two rounds on a shared 2-core Xeon, against 56 and
# 57 ms for its factor-free run.
_ENVELOPE_MATVECS = 250
# G's diagonal is wide, and its λmin run preconditioned, when its largest
# entry exceeds _WIDE times its smallest positive one.  Over the catalog at
# orders 300–3000 on the unfactored iterative path, the spread is at most 5
# where the factor-free run wins or ties (hypercube, log-rule weights,
# expanders, random_regular, newman_watts_strogatz, triangular), and at
# least 16 where LOBPCG wins or ties (barabasi_albert, scale_free, gnc,
# linear and quadratic rules).  Over seeds 1–10 the lowest wide spread is
# barabasi_albert 300 at seed 4, 12.7, where LOBPCG takes 68 products
# against 181.
_WIDE = 8
# Relative margin of the factored route's shift σ above the row bound
# R ≥ λmax.  It keeps σI - G definite where λmax = R (a regular bipartite
# component), and, near √ε, keeps σ - λmax small against the gaps at the top
# of G's spectrum.
_SHIFT_MARGIN = 2.0**-26
# Relative residual ‖G·x - θx‖/θ at which the preconditioned run accepts θ.
# A Rayleigh quotient's error is at most ‖r‖²/gap, a relative 1e-14·θ/gap,
# gap the distance to the next eigenvalue: on barabasi_albert 300 to 2200
# (seeds 1 to 3) θ lay within 5.1e-14 relative of eigvalsh.  At 1e-6 the
# bound reaches the dense path's 1e3·ε·κ on small G whose two smallest
# nonzero eigenvalues lie in different components, 8 % apart.  On
# barabasi_albert 400 to 2200, 1e-8 took 116 to 238 products; 1e-7 takes
# 101 to 206.
_PRECONDITIONED_TOL = 1e-7
# The preconditioned run drops its last step p when less than this share of
# p lies outside span{x, P·D⁻¹r}: G·p is carried, not recomputed, and
# dividing by a smaller remainder would magnify its rounding.  p is 0 once
# a step leaves x in place.
_DEPENDENT = 1e-4


def dense_limit() -> int:
    """Largest order the dense eigensolver takes when no limit is passed."""
    return DEFAULT_DENSE_LIMIT


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
    # the path that found the eigenvalues ("dense", "factor-free",
    # "preconditioned", "grounded" or "factored", see measure) and the
    # kernel dimension c, G's component count
    eigensolver: str
    kernel: int

    def __post_init__(self) -> None:
        if self.kappa < 1.0 - 1e-12:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not 0 < self.sparsity <= self.system_size:
            raise ValueError("sparsity must lie in 1..system_size")


class Extremes(NamedTuple):
    """G's smallest nonzero and largest eigenvalue, the path that found them
    ("dense", "factored", "factor-free", "preconditioned" or "grounded", see
    measure) and its kernel dimension, the component count."""

    lam_min: float
    lam_max: float
    eigensolver: str
    kernel: int


def extreme_eigs(m: SymmetricMatrix, *, dense_limit: Optional[int] = None) -> Extremes:
    """Extremes of a PSD m with zero row sums (a Laplacian or B·Bᵀ): its
    kernel is spanned by the indicators of its c connected components,
    counted here, so λmin is the (c+1)-th eigenvalue and λmax the last.
    Dense m up to the dense limit (3000 when None) take ``eigvalsh``; larger
    m, and sparse m at any order, take Lanczos.  An m that factors cheaply
    (a forest pattern, or a small envelope after reverse Cuthill–McKee)
    takes one sparse LU for λmax by shift-invert and one of m grounded for
    λmin through its pseudo-inverse.  Any other m takes Lanczos on m for
    λmax, then one run for λmin within _FACTOR_FREE_MATVECS products:
    Jacobi-preconditioned LOBPCG when m's diagonal is wide (its largest
    entry above _WIDE times its smallest positive one), else factor-free
    Lanczos on m with its kernel shifted to λmax.  Past the budget, λmin is
    found through the pseudo-inverse.  An m whose row sums are not zero to
    within order·ε·R is refused, R = 2·max mᵢᵢ the row bound of a Laplacian (read
    off the diagonal, as abs(m) would copy m), as is an m with a positive
    off-diagonal entry, and so is an m without edges, every vertex its own
    component, which has no nonzero eigenvalue."""
    diagonal = m.csr.diagonal()
    sums = m.csr @ np.ones(m.order)
    row = int(np.argmax(np.abs(sums)))
    if abs(sums[row]) > m.order * np.finfo(float).eps * 2.0 * diagonal.max():
        raise ValueError(
            f"row {row} sums to {sums[row]:.6g}, not 0: a Laplacian or B·Bᵀ has zero row sums"
        )
    if np.count_nonzero(m.csr.data > 0) > np.count_nonzero(diagonal > 0):
        raise ValueError("positive off-diagonal entry: a Laplacian or B·Bᵀ has none")
    # m's pattern is symmetric, so its strong components are its components;
    # "strong" skips the symmetrized copy that an undirected count makes.
    kernel, labels = connected_components(m.csr, directed=True, connection="strong")
    if kernel == m.order:
        raise ValueError(
            "effectively zero matrix: no nonzero eigenvalue, as the graph has no edges"
        )
    limit = DEFAULT_DENSE_LIMIT if dense_limit is None else dense_limit
    if m.order > limit or _is_sparse(m):
        return Extremes(*_extreme_eigs_iterative(m, labels), kernel)
    eigs = np.linalg.eigvalsh(m.to_dense())
    return Extremes(float(eigs[kernel]), float(eigs[-1]), "dense", kernel)


def _is_sparse(m: SymmetricMatrix) -> bool:
    return m.order > _SPARSE_MIN_ORDER and m.csr.nnz <= m.order**2 / _SPARSE_FILL


def _extreme_eigs_iterative(m: SymmetricMatrix, labels: np.ndarray) -> tuple[float, float, str]:
    a = m.csr
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).uniform(-1.0, 1.0, m.order)
    counts = np.bincount(labels)

    def means(x: np.ndarray) -> np.ndarray | float:
        """Πx: each entry replaced by its component's mean, a scalar that
        broadcasts when G is connected."""
        per = np.bincount(labels, weights=x) / counts
        return per[0] if counts.size == 1 else per[labels]

    lone = counts.size + 1 == m.order  # λmax is the only nonzero eigenvalue
    if not lone and _factors_cheaply(a, counts.size):
        return _smallest_grounded(a, labels, means, v0), _largest_shifted(m, v0), "factored"
    lam_max = float(
        spla.eigsh(a, k=1, which="LM", v0=v0, tol=_ITERATIVE_TOL, return_eigenvectors=False)[0]
    )
    if lone:
        return lam_max, lam_max, "factor-free"
    diagonal = a.diagonal()
    try:
        if diagonal.max() > _WIDE * diagonal[diagonal > 0].min():
            return _smallest_preconditioned(a, means, v0), lam_max, "preconditioned"
        return _smallest_deflated(a, means, lam_max, v0), lam_max, "factor-free"
    except (_OverBudget, spla.ArpackNoConvergence):
        pass
    return _smallest_grounded(a, labels, means, v0), lam_max, "grounded"


def _factors_cheaply(a, components: int) -> bool:
    """Whether a sparse LU of a, read off its pattern alone, costs no more
    than _ENVELOPE_MATVECS products with a: a's pattern is a forest (edges
    = order - components), which minimum degree factors with no fill, or its
    envelope work Σwᵢ² after reverse Cuthill–McKee, wᵢ the distance from
    row i's first entry to the diagonal, is at most _ENVELOPE_MATVECS·nnz.
    A small envelope means poor expansion, and so a small λ₂ that the
    factor-free run would give up on."""
    order = a.shape[0]
    # a is canonical CSR: every stored entry is nonzero
    edges = (a.nnz - int(np.count_nonzero(a.diagonal()))) // 2
    if edges == order - components:
        return True
    budget = _ENVELOPE_MATVECS * a.nnz
    # Σwᵢ counts each edge at least once, so Σwᵢ² ≥ edges²/order: this
    # rejects dense G without ordering them
    if edges**2 > budget * order:
        return False
    new = np.arange(order)
    position = np.empty(order, dtype=np.int64)
    position[reverse_cuthill_mckee(a, symmetric_mode=True)] = new
    first = new.copy()  # column of each reordered row's first entry
    np.minimum.at(first, np.repeat(position, np.diff(a.indptr)), position[a.indices])
    width = new - first
    return int(width @ width) <= budget


def _smallest_grounded(a, labels: np.ndarray, means, v0: np.ndarray) -> float:
    """λmin through Lanczos on the pseudo-inverse a⁺, whose largest
    eigenvalue is 1/λmin.  a's kernel is spanned by its component
    indicators, so with one vertex of each component grounded (its row and
    column deleted) the rest of a is nonsingular, and for x of zero mean on
    every component a⁺x = P·[a_g⁻¹(Px)_kept; 0], P subtracting each
    component's mean (``means`` is I - P).  a_g is factored once, ordered by
    minimum degree on its symmetric pattern: scipy's default COLAMD ordering
    can fill half of N²."""
    order = a.shape[0]
    kept = np.ones(order, dtype=bool)
    kept[np.unique(labels, return_index=True)[1]] = False
    lu = spla.splu(a[kept][:, kept].tocsc(), permc_spec="MMD_AT_PLUS_A")

    def center(x: np.ndarray) -> np.ndarray:
        return x - means(x)

    def pinv(x: np.ndarray) -> np.ndarray:
        y = np.zeros(order)
        y[kept] = lu.solve(center(x.ravel())[kept])
        return center(y)

    inv_min = spla.eigsh(
        spla.LinearOperator(a.shape, matvec=pinv, dtype=float), k=1, which="LA", v0=v0,
        tol=_ITERATIVE_TOL, return_eigenvectors=False,
    )[0]
    return 1.0 / float(inv_min)


def _largest_shifted(m: SymmetricMatrix, v0: np.ndarray) -> float:
    """λmax through Lanczos on (σI - a)⁻¹, whose largest eigenvalue is
    1/(σ - λmax), with σI - a factored once by sparse LU.  σ sits just above
    the row bound R ≥ λmax, so σI - a is positive definite even where
    λmax = R (a regular bipartite component).  Where λmax is close to R, as
    on the near-regular ladders and grids, the shift spreads a clustered top
    of a's spectrum apart."""
    sigma = abs_row_bound(m) * (1.0 + _SHIFT_MARGIN)
    shifted = sigma * sp.eye_array(m.order) - m.csr
    lu = spla.splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A")
    inv_gap = spla.eigsh(
        spla.LinearOperator(m.csr.shape, matvec=lambda x: lu.solve(x.ravel()), dtype=float),
        k=1, which="LA", v0=v0, tol=_ITERATIVE_TOL, return_eigenvectors=False,
    )[0]
    return sigma - 1.0 / float(inv_gap)


def abs_row_bound(m: RectMatrix) -> float:
    """Gershgorin-style bound max_i sum_j |h_ij| on the eigenvalue magnitudes
    of the Hermitian system h: m itself when symmetric, else its dilation
    [[0, m], [mᵀ, 0]].  Either way h's rows are m's rows and columns."""
    # The CSR mat-vec adds each row's entries left to right in column order,
    # and bincount each column's in row order: h's order, so the bound is
    # h's own bit for bit.
    a = abs(m.csr)
    rows = float((a @ np.ones(m.cols)).max())
    return max(rows, float(np.bincount(a.indices, a.data, minlength=m.cols).max()))


class _OverBudget(Exception):
    """The λmin run spent its _FACTOR_FREE_MATVECS."""


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


def _smallest_preconditioned(a, means, v0: np.ndarray) -> float:
    """λmin, the smallest eigenvalue of a off its kernel, by single-vector
    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) with the Jacobi
    preconditioner D⁻¹, D = diag(a).  Each step takes the Rayleigh–Ritz
    minimum of a over span{x, P·D⁻¹r, p}, r = a·x - θx the residual and p
    the last step, P = I - ``means`` keeping every vector off the kernel.
    The basis is orthonormalised, and p dropped when little of it lies
    outside span{x, P·D⁻¹r}.  Each step makes one product with a, for the
    new direction; a·x and a·p follow from the Ritz vector.  An isolated
    vertex, a component of its own, has a zero diagonal entry and a D⁻¹
    entry of 0.  θ is accepted when ‖r‖ ≤ _PRECONDITIONED_TOL·θ; raises
    _OverBudget past _FACTOR_FREE_MATVECS products."""
    diagonal = a.diagonal()
    inv_d = np.divide(1.0, diagonal, out=np.zeros_like(diagonal), where=diagonal > 0)
    spent = 0

    def product(x: np.ndarray) -> np.ndarray:
        nonlocal spent
        spent += 1
        if spent > _FACTOR_FREE_MATVECS:
            raise _OverBudget
        return a @ x

    x = v0 - means(v0)
    x /= np.linalg.norm(x)
    ax, p, ap = product(x), None, None
    while True:
        theta = float(x @ ax)
        r = ax - theta * x
        if np.linalg.norm(r) <= _PRECONDITIONED_TOL * theta:
            return theta
        w = inv_d * r
        w -= means(w)
        w -= (x @ w) * x
        w /= np.linalg.norm(w)
        basis, images = [x, w], [ax, product(w)]
        if p is not None:
            along = np.array([x @ p, w @ p])
            rest, a_rest = p - along @ basis, ap - along @ images
            size = np.linalg.norm(rest)
            if size > _DEPENDENT * np.linalg.norm(p):
                basis.append(rest / size)
                images.append(a_rest / size)
        basis, images = np.array(basis), np.array(images)
        gram = basis @ images.T
        ritz = np.linalg.eigh((gram + gram.T) / 2.0)[1][:, 0]
        p, ap = ritz[1:] @ basis[1:], ritz[1:] @ images[1:]
        x, ax = ritz[0] * x + p, ritz[0] * ax + ap
        size = np.linalg.norm(x)
        x, ax = x / size, ax / size


def sparsity(m: RectMatrix) -> int:
    """Maximum number of structurally nonzero entries in any row of the
    Hermitian system: m itself when symmetric, else its dilation
    [[0, m], [mᵀ, 0]], whose rows are m's rows and columns."""
    rows = int(np.diff(m.csr.indptr).max())
    if isinstance(m, SymmetricMatrix):
        return rows
    return max(rows, int(np.bincount(m.csr.indices, minlength=m.cols).max()))


def measure(m: RectMatrix, *, dense_limit: Optional[int] = None) -> SpectralRecord:
    """SpectralRecord of the system m's type names: a ``SymmetricMatrix``
    is a Laplacian L, any other ``RectMatrix`` an incidence matrix B whose
    dilation [[0, B], [Bᵀ, 0]] has order rows + cols and κ = √κ(B·Bᵀ).
    Both come from ``extreme_eigs`` of G = L or B·Bᵀ, whose kernel dimension,
    the component count, is exact for L (positive weights) and B·Bᵀ.  Orders
    above ``dense_limit`` (3000 when None) take Lanczos.  The record names
    the path that ran: "dense" (``eigvalsh``), "factored" (G factors cheaply:
    λmax by shift-invert, λmin through the grounded pseudo-inverse),
    "factor-free" (Lanczos on G alone, G's diagonal narrow, also when λmax
    is G's only nonzero eigenvalue), "preconditioned" (λmax on G, λmin by
    Jacobi-preconditioned LOBPCG, G's diagonal wide) or "grounded" (λmax on
    G, λmin through the grounded pseudo-inverse after the λmin run gave
    up)."""
    if isinstance(m, SymmetricMatrix):
        kind, g, size = "laplacian", m, m.order
    else:
        kind, g, size = "incidence", SymmetricMatrix(m.csr @ m.csr.T), m.rows + m.cols
    lam_min, lam_max, eigensolver, kernel = extreme_eigs(g, dense_limit=dense_limit)
    if kind == "incidence":
        lam_min, lam_max = math.sqrt(lam_min), math.sqrt(lam_max)
    return SpectralRecord(
        system_size=size,
        lambda_min_nz=lam_min,
        lambda_max=lam_max,
        kappa=lam_max / lam_min,
        sparsity=sparsity(m),
        matrix_kind=kind,
        eigensolver=eigensolver,
        kernel=kernel,
    )
