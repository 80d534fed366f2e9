"""Statevector simulation of HHL with clock-register fixing shortcuts.

The simulator works in the eigenbasis of the system matrix.  The clock
register after phase estimation is reproduced exactly through its discrete
Fourier kernel, so finite-resolution leakage (the source of HHL error for
eigenvalues that do not land on a clock bin) is modeled without building
gate-level circuits.  Post-selection statistics, the inversion rotation,
and feature extraction then follow from closed-form sums over clock bins.

Zero modes of the matrix are never inverted: the all-zeros clock bin gets
rotation angle zero, which is what makes the reconstructed vector converge
to the pseudo-inverse solution instead of diverging on singular systems.
Matrices with negative eigenvalues (dilated incidence systems) switch to a
two's-complement reading of the clock, values at or above 2^(n_r - 1)
counting as negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .graphs import (
    Graph,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    pad_to_power_of_two,
)
from .spectral import zero_tolerance

# A full run stores order * 2^n_r complex amplitudes implicitly; the budget
# counts state + clock + ancilla qubits.
QUBIT_BUDGET = 22
MQF_THRESHOLD = 0.8
DEFAULT_CLOCK_QUBITS = 10
_NULL_SUCCESS = 1e-14
_C_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class HhlConfig:
    """Clock-register size, evolution time, rotation constant, shot count.

    ``shots=None`` means exact amplitude arithmetic; a positive count turns
    on binomial sampling of the post-selection and SWAP-test statistics,
    seeded for reproducibility.
    """

    n_r: int
    t: float
    C: float
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if self.t <= 0:
            raise ValueError("evolution time t must be positive")
        if self.C <= 0:
            raise ValueError("rotation constant C must be positive")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be a positive count")

    @property
    def n_bins(self) -> int:
        return 2 ** self.n_r


def default_config(
    n_r: int,
    lambda_max: float,
    lambda_min: float | None = None,
    *,
    signed: bool = False,
    shots: int | None = None,
    seed: int | None = None,
) -> HhlConfig:
    """Build a config from a spectral bound, never from an eigensolve.

    ``lambda_max`` is a caller-supplied upper bound on the eigenvalue
    magnitudes (a Gershgorin row bound works).  In PSD mode the evolution
    time puts that bound on the top clock bin, t = 2 pi (1 - 2^-n_r) /
    lambda_max; a bound that is hit exactly then lands on an exactly
    representable bin.  With negative eigenvalues present the window is
    (-1/2, 1/2) and its edges flip sign under the two's-complement wrap,
    so the bound goes mid-half-window instead (t quartered), keeping every
    eigenvalue a number of bins away from the wrap that grows with the
    register.  C defaults to 0.9 of the smallest scaled eigenvalue when a
    lower bound is supplied, else to 0.9 of the clock grid floor 2^-n_r.
    """
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
    if lambda_max <= 0:
        raise ValueError("lambda_max bound must be positive")
    if lambda_min is not None and not 0 < lambda_min <= lambda_max:
        raise ValueError("lambda_min must lie in (0, lambda_max]")
    tbins = 2 ** n_r
    t = 2.0 * math.pi * (1.0 - 1.0 / tbins) / lambda_max
    if signed:
        t /= 4.0
    if lambda_min is not None:
        rot = 0.9 * lambda_min * t / (2.0 * math.pi)
    else:
        rot = 0.9 / tbins
    return HhlConfig(n_r=n_r, t=t, C=rot, shots=shots, seed=seed)


@dataclass(frozen=True)
class HhlOutcome:
    """Post-selected result of one simulated HHL run.

    The unnormalized pseudo-inverse solution of A x = b/|b| is recovered
    as scale * sqrt(p_success * clock_zero_weight) * solution_state;
    multiplying by b_norm undoes the amplitude encoding of the caller's
    right-hand side, which gives ``solution``.  clock_zero_weight is the
    fraction of post-selected probability whose clock register reads all
    zeros; it is exactly 1 when the inversion is bin-exact, in which case
    the reconstruction is the plain scale * sqrt(p_success) * solution_state.
    """

    p_success: float
    solution_state: np.ndarray
    scale: float
    b_norm: float
    clock_zero_weight: float
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_success <= 1.0 + 1e-12:
            raise ValueError("p_success must be a probability")
        if abs(float(np.linalg.norm(self.solution_state)) - 1.0) > 1e-10:
            raise ValueError("solution_state must be normalized within 1e-10")
        if self.scale <= 0 or self.b_norm <= 0:
            raise ValueError("scale and b_norm must be positive")

    @property
    def solution(self) -> np.ndarray:
        """The reconstructed pseudo-inverse solution of A x = b."""
        amplitude = self.b_norm * self.scale * math.sqrt(self.p_success * self.clock_zero_weight)
        return amplitude * self.solution_state


def _check_window(live: np.ndarray, signed: bool, c: float) -> None:
    """The scaled nonzero eigenvalue magnitudes ``live`` must fit the clock
    window, [0, 1) or (-1/2, 1/2) when ``signed``, and none may undercut C."""
    top = float(live.max())
    if signed and top >= 0.5:
        raise ValueError(
            "scaled-eigenvalue bound violated: |lambda t / 2 pi| must stay below "
            f"1/2 when negative eigenvalues are present (got {top:.6g}); reduce t"
        )
    if not signed and top >= 1.0:
        raise ValueError(
            "scaled-eigenvalue bound violated: lambda t / 2 pi must stay below 1 "
            f"(got {top:.6g}); reduce t"
        )
    if c > float(live.min()) * _C_SLACK:
        raise ValueError(
            f"C out of range: {c:.6g} exceeds the smallest scaled "
            f"eigenvalue {float(live.min()):.6g}"
        )


def _sampled(p: float, cfg: HhlConfig) -> float:
    """p in exact mode; else the success fraction of cfg.shots binomial draws."""
    if cfg.shots is None:
        return p
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return float(rng.binomial(cfg.shots, min(p, 1.0)) / cfg.shots)


def _eig_prepare(
    a: SymmetricMatrix, b: Sequence[float], cfg: HhlConfig, cutoff: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """Shared QPE front end: eigensystem, amplitudes, clock kernel, bins."""
    order = a.order
    if order & (order - 1):
        raise ValueError(f"matrix order {order} is not a power of two; pad first")
    n_b = order.bit_length() - 1
    if n_b + cfg.n_r + 1 > QUBIT_BUDGET:
        raise ValueError(
            f"refusing statevector of {n_b + cfg.n_r + 1} qubits (limit {QUBIT_BUDGET})"
        )
    vec = np.asarray(b, dtype=float)
    if vec.shape != (order,):
        raise ValueError(f"b must be a vector of length {order}")
    b_norm = float(np.linalg.norm(vec))
    if b_norm == 0.0:
        raise ValueError("b must be nonzero")
    lam, basis = np.linalg.eigh(a.to_dense())
    lam_t = lam * cfg.t / (2.0 * math.pi)
    tol = zero_tolerance(lam, cutoff)
    nonzero = np.abs(lam) > tol
    signed = bool((lam < -tol).any())
    if nonzero.any():
        _check_window(np.abs(lam_t[nonzero]), signed, cfg.C)
    beta = basis.T @ (vec / b_norm)
    tbins = cfg.n_bins
    ticks = np.arange(tbins)
    # Row j of the kernel holds the exact QPE clock amplitudes of mode j.
    kernel = np.fft.fft(np.exp(2j * math.pi * np.outer(lam_t, ticks))) / tbins
    weights = np.abs(kernel) ** 2
    bins = ticks / tbins
    if signed:
        bins = np.where(ticks >= tbins // 2, (ticks - tbins) / tbins, bins)
    return lam, basis, beta, b_norm, weights, bins


def hhl_solve(
    a: SymmetricMatrix,
    b: Sequence[float],
    cfg: HhlConfig,
    cutoff: float | None = None,
) -> HhlOutcome:
    """Run the simulated circuit: QPE, inversion rotation, QPE undo, post-select.

    The rotation angle on clock value c is 2 arcsin(C / bin(c)), clamped to
    a full flip when a leakage bin undercuts C, and zero on the all-zeros
    bin so null-space components acquire no success amplitude.  Eigenvalues
    at or below ``zero_tolerance(eigs, cutoff)`` in magnitude count as null:
    numpy's rank tolerance by default, or an explicit absolute cutoff.
    """
    _, basis, beta, b_norm, weights, bins = _eig_prepare(a, b, cfg, cutoff)
    sines = np.zeros_like(bins)
    sines[1:] = np.clip(cfg.C / bins[1:], -1.0, 1.0)
    ancilla = weights @ (sines**2)  # per-mode success probability
    zero_clock = weights @ sines  # per-mode amplitude left on the all-zeros clock
    p_exact = float((np.abs(beta) ** 2) @ ancilla)
    if p_exact < _NULL_SUCCESS:
        raise ValueError("b lies entirely in the null space (p_success below 1e-14)")
    unnorm = basis @ (beta * zero_clock)
    norm = float(np.linalg.norm(unnorm))
    if norm == 0.0:
        raise ValueError("b lies entirely in the null space (p_success below 1e-14)")
    state = unnorm / norm
    state.setflags(write=False)
    return HhlOutcome(
        p_success=_sampled(p_exact, cfg),
        solution_state=state,
        scale=cfg.t / (2.0 * math.pi * cfg.C),
        b_norm=b_norm,
        clock_zero_weight=min(norm * norm / p_exact, 1.0),
        shots=cfg.shots,
        seed=cfg.seed,
    )


def extract_overlap(outcome: HhlOutcome, probe: Sequence[float]) -> float:
    """Overlap feature scaled back to pseudo-inverse units.

    The probe is compared against the solution register together with an
    all-zeros clock, which filters out residual clock leakage; when the
    inversion is bin-exact (clock_zero_weight = 1) the exact-mode value is
    the familiar scale * sqrt(p_success) * <probe|solution>.  Shot mode
    simulates a SWAP test, which only ever observes the squared overlap,
    so the sign is lost and binomial noise enters.
    """
    vec = np.asarray(probe, dtype=float)
    if vec.shape != outcome.solution_state.shape:
        raise ValueError("probe length mismatch")
    if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
        raise ValueError("probe must be normalized")
    amp = outcome.scale * math.sqrt(outcome.p_success)
    overlap = math.sqrt(outcome.clock_zero_weight) * float(vec @ outcome.solution_state)
    if outcome.shots is None:
        return amp * overlap
    # Disjoint stream from the post-selection draw in hhl_solve.
    rng = np.random.Generator(np.random.PCG64(outcome.seed).jumped(1))
    zeros = rng.binomial(outcome.shots, 0.5 * (1.0 + overlap**2))
    est_sq = max(0.0, 2.0 * zeros / outcome.shots - 1.0)
    return amp * math.sqrt(est_sq)


def detect_fixed_clock_qubits(
    a: SymmetricMatrix,
    b: Sequence[float],
    cfg: HhlConfig,
    p_th: float = MQF_THRESHOLD,
    cutoff: float | None = None,
) -> set[tuple[int, int]]:
    """Clock qubits whose post-QPE marginal clears the fixing threshold.

    Returns (qubit, bit) pairs with qubit 0 the most significant clock bit.
    A qubit is fixable when one bit value carries marginal probability at
    least p_th, in which case its controlled gates can be replaced by
    classically conditioned ones.  Null eigenvalues are as in ``hhl_solve``.
    """
    if not 0.5 < p_th <= 1.0:
        raise ValueError("p_th must lie in (1/2, 1]")
    _, _, beta, _, weights, _ = _eig_prepare(a, b, cfg, cutoff)
    histogram = (np.abs(beta) ** 2) @ weights
    ticks = np.arange(cfg.n_bins)
    fixed: set[tuple[int, int]] = set()
    for q in range(cfg.n_r):
        hot = (ticks >> (cfg.n_r - 1 - q)) & 1
        p_one = float(histogram[hot == 1].sum())
        if p_one >= p_th:
            fixed.add((q, 1))
        elif 1.0 - p_one >= p_th:
            fixed.add((q, 0))
    return fixed


@dataclass(frozen=True)
class AqfCertificate:
    """Whether delta_i - delta_j is an eigenvector, and of what eigenvalue."""

    holds: bool
    i: int
    j: int
    eigenvalue: float | None


def check_aqf(l: SymmetricMatrix, i: int, j: int) -> AqfCertificate:
    """Entry-wise eigenvector test for the difference vector of two vertices.

    The conditions are exact equalities: every row p outside {i, j} must
    weight columns i and j identically, and the two diagonal entries must
    agree.  When they hold the eigenvalue is l[i,i] - l[i,j], and the full
    HHL circuit collapses to a single ancilla rotation (all-qubit fixing).
    """
    if i == j:
        raise ValueError("need two distinct vertices")
    for k in (i, j):
        if not 0 <= k < l.order:
            raise ValueError(f"vertex {k} out of range for order {l.order}")
    col_i = l.csr[[i], :].toarray()[0]  # row i is column i by symmetry
    col_j = l.csr[[j], :].toarray()[0]
    others = np.ones(l.order, dtype=bool)
    others[[i, j]] = False
    holds = bool(col_i[i] == col_j[j] and np.array_equal(col_i[others], col_j[others]))
    value = float(col_i[i] - col_i[j]) if holds else None
    return AqfCertificate(holds=holds, i=i, j=j, eigenvalue=value)


def augment_for_aqf(g: Graph, attach: Sequence[int]) -> Graph:
    """Adjoin two vertices tied to the same attachment set.

    The difference of the two new vertex indicators is then an eigenvector
    of the grown Laplacian with eigenvalue len(attach), whatever the host
    graph looks like; the promise is re-verified numerically on return.
    """
    if g.directed:
        raise ValueError("augmentation is defined for undirected graphs")
    verts = [int(u) for u in attach]
    if not verts:
        raise ValueError("attach must be nonempty")
    if len(set(verts)) != len(verts):
        raise ValueError("attach contains duplicates")
    for u in verts:
        if not 0 <= u < g.n_vertices:
            raise ValueError(f"attach vertex {u} out of range")
    n = g.n_vertices
    k = len(verts)
    grown = Graph(
        n + 2,
        np.concatenate((g.u, verts, verts)),
        np.concatenate((g.v, np.full(k, n), np.full(k, n + 1))),
        np.concatenate((g.w, np.ones(2 * k))),
    )
    probe = np.zeros(n + 2)
    probe[n], probe[n + 1] = 1.0, -1.0
    dense = laplacian(grown).to_dense()
    if not np.allclose(dense @ probe, len(verts) * probe, atol=1e-9):
        raise AssertionError("augmented Laplacian lost its promised eigenpair")
    return grown


def one_qubit_hhl(lam: float, cfg: HhlConfig) -> float:
    """Success probability of the fully fixed single-rotation circuit.

    Valid once b is certified an eigenvector with eigenvalue ``lam`` (for
    example through check_aqf): every clock qubit is fixed, the circuit is
    one RY on the ancilla, and p = (C / lambda~)^2.
    """
    if not lam > 0:
        raise ValueError(f"eigenvalue {lam:.6g} is not positive")
    lam_t = lam * cfg.t / (2.0 * math.pi)
    _check_window(np.array([lam_t]), False, cfg.C)
    return float(_sampled((cfg.C / lam_t) ** 2, cfg))


def one_qubit_effective_resistance(lam: float, cfg: HhlConfig) -> float:
    """Effective resistance between the two vertices of a certified eigenvector.

    b = delta_i - delta_j has squared norm 2, so r = 2 * scale * sqrt(p);
    in exact mode the C and t factors cancel and this is 2 / lam.
    """
    p = one_qubit_hhl(lam, cfg)
    return 2.0 * cfg.t / (2.0 * math.pi * cfg.C) * math.sqrt(p)


def abs_row_bound(m: SymmetricMatrix) -> float:
    """Gershgorin-style bound max_i sum_j |m_ij| on eigenvalue magnitudes."""
    # The CSR mat-vec adds each row's entries left to right in column order,
    # a fixed summation order.
    return float((abs(m.csr) @ np.ones(m.order)).max())


def graph_system(g: Graph) -> SymmetricMatrix:
    """The matrix the simulator solves for a graph: the Laplacian, or for a
    digraph the Hermitian dilation [[0, B], [B^T, 0]] of its incidence matrix."""
    if g.directed:
        return hermitian_dilation(incidence_matrix(g))
    return laplacian(g)


def graph_config(
    g: Graph,
    n_r: int = DEFAULT_CLOCK_QUBITS,
    *,
    shots: int | None = None,
    seed: int | None = None,
) -> HhlConfig:
    """The default clock for ``graph_system(g)``: ``default_config`` at the
    absolute row bound, in the signed window for a digraph, whose dilation
    has eigenvalues of both signs."""
    return _default_clock(g, abs_row_bound(graph_system(g)), n_r, shots, seed)


def _default_clock(
    g: Graph, bound: float, n_r: int, shots: int | None = None, seed: int | None = None
) -> HhlConfig:
    """graph_config's recipe, for a caller that already holds the bound."""
    return default_config(n_r, bound, signed=g.directed, shots=shots, seed=seed)


def _graph_solve(
    g: Graph, rhs: np.ndarray, cfg: HhlConfig | None
) -> tuple[HhlOutcome, np.ndarray]:
    """Simulate ``graph_system(g)`` padded to a power-of-two order, with rhs
    zero-extended to match; ``cfg=None`` takes graph_config's clock at
    DEFAULT_CLOCK_QUBITS.  Returns the outcome and the extended rhs."""
    system = graph_system(g)
    bound = abs_row_bound(system)
    padded = pad_to_power_of_two(system, bound)
    if cfg is None:
        cfg = _default_clock(g, bound, DEFAULT_CLOCK_QUBITS)
    vec = np.zeros(padded.order)
    vec[: len(rhs)] = rhs
    return hhl_solve(padded, vec, cfg), vec


def _connected(g: Graph) -> bool:
    adj = sp.coo_array((np.ones(g.n_edges), (g.u, g.v)), shape=(g.n_vertices,) * 2)
    return connected_components(adj, directed=False, return_labels=False) == 1


def effective_resistance(
    g: Graph,
    i: int,
    j: int,
    method: str = "oracle",
    cfg: HhlConfig | None = None,
) -> float:
    """Two-point effective resistance, classically or through the simulator.

    The oracle path evaluates (delta_i - delta_j)^T L+ (delta_i - delta_j)
    with a dense pseudo-inverse.  The hhl path pads the Laplacian to a
    power-of-two order, runs the simulator, and reads the resistance off a
    probe overlap; ``cfg=None`` takes ``graph_config(g)``, whose evolution
    time comes from the row bound (twice the largest weighted degree), so
    ill conditioned graphs may need a caller-supplied config with a tighter C.
    The input b sums to zero, hence is orthogonal to the all-ones null
    vector of a connected Laplacian.
    """
    if g.directed:
        raise ValueError("effective resistance is defined for undirected graphs")
    if i == j:
        raise ValueError("need two distinct vertices")
    for k in (i, j):
        if not 0 <= k < g.n_vertices:
            raise ValueError(f"vertex {k} out of range")
    if not _connected(g):
        raise ValueError("disconnected graph: effective resistance undefined")
    rhs = np.zeros(g.n_vertices)
    rhs[i], rhs[j] = 1.0, -1.0
    if method == "oracle":
        return float(rhs @ np.linalg.pinv(laplacian(g).to_dense()) @ rhs)
    if method != "hhl":
        raise ValueError(f"unknown method {method!r}")
    outcome, vec = _graph_solve(g, rhs, cfg)
    # r = b^T L+ b with |b|^2 = 2 and the normalized b as probe.
    return 2.0 * extract_overlap(outcome, vec / math.sqrt(2.0))


class TrafficFlowResult(NamedTuple):
    """Min-norm lane flows plus the lanes where the flow runs negative."""

    flow: np.ndarray
    negative_lanes: tuple[int, ...]


def traffic_flow(
    g: Graph,
    injections: Sequence[float],
    method: str = "oracle",
    cfg: HhlConfig | None = None,
) -> TrafficFlowResult:
    """Min-norm solution of the lane-flow conservation system B y = c.

    ``injections`` is the signed right-hand side in the incidence-row
    convention: each edge contributes -1 at its tail and +1 at its head,
    so a vehicle stream entering the network at u and leaving at w is
    c = -delta_u + delta_w.  Balance is required; c with a component
    outside the column space of B (in particular, nonzero total) is
    rejected.  The hhl path solves the Hermitian dilation [[0, B], [B^T,
    0]] in signed clock mode (``cfg=None`` takes ``graph_config(g)``) and
    reads y off the edge block.  Negative
    flow entries are physically suspect (lane counts are nonnegative) and
    are reported, not rejected.
    """
    if not g.directed:
        raise ValueError("traffic flow is defined for directed graphs")
    c = np.asarray(injections, dtype=float)
    if c.shape != (g.n_vertices,):
        raise ValueError(f"injections must have length {g.n_vertices}")
    if float(np.linalg.norm(c)) == 0.0:
        return TrafficFlowResult(flow=np.zeros(g.n_edges), negative_lanes=())
    dense_b = incidence_matrix(g).to_dense()
    y_ref = np.linalg.lstsq(dense_b, c, rcond=None)[0]
    if float(np.linalg.norm(dense_b @ y_ref - c)) > 1e-8:
        raise ValueError("imbalanced injections: no exact flow satisfies them")
    if method == "oracle":
        y = y_ref[: g.n_edges]
    elif method == "hhl":
        y = _graph_solve(g, c, cfg)[0].solution[g.n_vertices : g.n_vertices + g.n_edges]
    else:
        raise ValueError(f"unknown method {method!r}")
    lanes = tuple(int(k) for k in np.flatnonzero(y < -1e-9))
    return TrafficFlowResult(flow=y, negative_lanes=lanes)
