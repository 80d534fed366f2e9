"""Statevector simulation of HHL with clock-register fixing shortcuts.

The post-selected state depends on the right-hand side b only through its
spectral measure: the eigenvalues b reaches and its projection onto each
of their eigenspaces.  The simulator therefore takes its modes from the
Krylov space of b, block by block: a row without off-diagonal entries (the
fill * I padding to a power-of-two order, an isolated vertex) is an
eigenpair as it stands, and each connected component of the rest (for a
digraph's dilation [[0, B], [B^T, 0]], one per weakly connected component
of the digraph) runs Lanczos from its part of b until that space is
invariant and contributes the Ritz pairs of the tridiagonal.  A block
whose part of b reaches more modes than a fixed share of its order falls
back to a dense ``eigh``.  The window, C and null checks read every
eigenvalue of the padded system, so a mode b never reaches still refuses a
C that undercuts it.  Each block takes them from a second Lanczos run,
from a fixed Gaussian start that meets every eigenspace: once its Krylov
space is invariant, its Ritz values are the block's distinct eigenvalues
to working precision.  Only a block where that run too reaches the cap
takes a dense ``eigvalsh``.
The clock register after phase estimation is reproduced exactly through
the closed-form Fejer kernel of the discrete Fourier transform, so
finite-resolution leakage (the source of HHL error for eigenvalues that do
not land on a clock bin) is modeled without building gate-level circuits;
it is evaluated only for modes that b reaches.  Post-selection statistics,
the inversion rotation, and feature extraction then follow from
closed-form sums over clock bins.

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
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .graphs import (
    Graph,
    RectMatrix,
    SymmetricMatrix,
    _integral,
    flag,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    pad_to_power_of_two,
    real_number,
    system_matrix,
    whole_number,
)
from .spectral import _START_SEED, abs_row_bound

# A full run stores order * 2^n_r complex amplitudes implicitly; the budget
# counts state + clock + ancilla qubits.
QUBIT_BUDGET = 22
MQF_THRESHOLD = 0.8
DEFAULT_CLOCK_QUBITS = 10
_NULL_SUCCESS = 1e-14
_C_SLACK = 1.0 + 1e-12
# A block takes up to two Lanczos runs, one from its part of b for the
# modes and one from a random start for its spectrum.  Each runs at most
# this share of the block's order in steps; a run still reaching new modes
# then gives way to a dense eigh or eigvalsh of the block (for a digraph's
# dilation, of order vertices + edges), and its steps are wasted.  At 1/16
# that waste stays near 5% of the dense eigensolve per run, while
# structured graphs (hypercubes, complete and Turan graphs, stars) reach a
# dozen or fewer distinct eigenvalues.
_KRYLOV_SHARE = 1 / 16
# A run may take this many steps (at most the order) on a small block too.
# After a near-breakdown, a first residual just above the stopping
# tolerance, the next direction is rounding amplified by |A| / beta, and
# the space closes a step or two later.
_KRYLOV_MIN_STEPS = 3


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
        object.__setattr__(self, "n_r", whole_number(self.n_r, "n_r", 1))
        object.__setattr__(self, "t", real_number(self.t, "t"))
        object.__setattr__(self, "C", real_number(self.C, "C"))
        object.__setattr__(self, "shots", whole_number(self.shots, "shots", 1, or_none=True))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", 0, or_none=True))

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
    n_r = whole_number(n_r, "n_r", 1)
    lambda_max = real_number(lambda_max, "lambda_max")
    if lambda_min is not None:
        lambda_min = real_number(lambda_min, "lambda_min", at_most=lambda_max)
    signed = flag(signed, "signed")
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
    In shot mode p_success is ``successes`` out of ``shots`` post-selections,
    and with no success neither the solution nor an overlap has an estimate.
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
    def successes(self) -> int | None:
        """Post-selected successes among ``shots``; None in exact mode."""
        if self.shots is None:
            return None
        return round(self.p_success * self.shots)

    def _require_success(self) -> None:
        """Raise ValueError when shot mode post-selected nothing."""
        if self.successes == 0:
            raise ValueError(
                f"post-selection succeeded in none of {self.shots} shots, so there "
                "is no estimate; raise the shot count or the rotation constant C"
            )

    @property
    def solution(self) -> np.ndarray:
        """The reconstructed pseudo-inverse solution of A x = b; ValueError
        when shot mode post-selected nothing."""
        self._require_success()
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


class _Modes(NamedTuple):
    """Orthonormal eigenpairs of one invariant block of the system matrix:
    eigenvalues ``lam`` whose vectors live on the matrix rows ``rows`` (an
    index array), as the columns of ``vectors``, or as the unit vectors of
    those rows when ``vectors`` is None."""

    rows: np.ndarray
    lam: np.ndarray
    vectors: np.ndarray | None


class _Eigensystem(NamedTuple):
    """What the simulator needs of the system matrix for one right-hand
    side: ``spectrum``, every eigenvalue of each block to working precision,
    blocks concatenated, for the window, C and null checks (they read only
    max |lambda|, the smallest nonzero |lambda| and the sign, so order and
    repeats do not matter), and eigenpairs ``modes`` whose span holds the
    right-hand side, one entry per block, together covering every row."""

    spectrum: np.ndarray
    modes: list[_Modes]


def _unit_rhs(order: int, b: Sequence[float], cfg: HhlConfig) -> tuple[np.ndarray, float]:
    """b / |b| and |b|, once the order, qubit budget and b itself pass the
    checks that precede every eigensolve."""
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
    if not np.isfinite(vec).all():
        raise ValueError("b must be finite")
    peak = float(np.abs(vec).max())
    if peak == 0.0:
        raise ValueError("b must be nonzero")
    # |b| of b scaled by a power of two, exactly, to near 1: its squares
    # then neither overflow (|b| ~ 1e170) nor underflow (1e-170)
    shift = math.frexp(peak)[1]
    b_norm = math.ldexp(float(np.linalg.norm(np.ldexp(vec, -shift))), shift)
    return vec / b_norm, b_norm


def _ritz_pairs(
    block: np.ndarray | sp.csr_array, rhs: np.ndarray, bound: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenpairs (theta, V) of the symmetric ``block`` (a dense or sparse
    array with absolute row bound ``bound``) whose span is the Krylov space
    of ``rhs``, or None when that space is still growing after
    _KRYLOV_SHARE of the order in steps (at least _KRYLOV_MIN_STEPS).  From
    a Gaussian rhs, which meets every eigenspace with probability 1, the
    thetas are the block's distinct eigenvalues to working precision.

    Lanczos from rhs with two-pass full reorthogonalization stops at a
    residual beta <= order * eps * bound, where the space is invariant to
    working precision; the eigenpairs of the tridiagonal T = Q^T block Q
    then give the Ritz pairs (theta, Q z).  A zero rhs spans the empty
    space.
    """
    order = block.shape[0]
    norm = float(np.linalg.norm(rhs))
    if norm == 0.0:
        return np.empty(0), np.empty((order, 0))
    steps = max(int(order * _KRYLOV_SHARE), min(order, _KRYLOV_MIN_STEPS))
    tol = order * np.finfo(float).eps * bound
    basis = np.empty((steps, order))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = rhs / norm
    for k in range(steps):
        basis[k] = q
        done = basis[: k + 1]
        w = block @ q
        first = done @ w
        w -= first @ done
        second = done @ w
        w -= second @ done
        alpha[k] = first[k] + second[k]
        beta[k] = math.sqrt(w @ w)
        if beta[k] <= tol:
            theta, z = scipy.linalg.eigh_tridiagonal(alpha[: k + 1], beta[:k])
            return theta, done.T @ z
        q = w / beta[k]
    return None


def _eigenpairs(a: SymmetricMatrix, unit: np.ndarray) -> _Eigensystem:
    """Spectrum of ``a`` and eigenpairs spanning ``unit``, one block per
    connected component of its pattern.  A row without off-diagonal entries
    (the fill * I padding of ``pad_to_power_of_two``, an isolated vertex) is
    the eigenpair (a_kk, e_k) as it stands, and a_kk enters the spectrum.
    A component takes the Ritz pairs of its part of ``unit``, and its
    spectrum is the Ritz values of a fixed Gaussian start; it takes its full
    ``eigh`` when that part reaches too many modes (``eigvalsh`` for the
    spectrum when the Gaussian start does).  A digraph's dilation has one
    component per weakly connected component of the digraph, edge rows
    included."""
    _, labels = connected_components(a.csr, directed=True, connection="strong")
    sizes = np.bincount(labels)
    alone = np.flatnonzero(sizes[labels] == 1)
    diagonal = a.csr.diagonal()[alone]
    spectra, modes = [diagonal], [_Modes(alone, diagonal, None)]
    for label in np.flatnonzero(sizes > 1):
        rows = np.flatnonzero(labels == label)
        block = a.csr[rows][:, rows]
        bound = float((abs(block) @ np.ones(rows.size)).max())
        # On a fully dense block a CSR product costs 5.2, 2.4, 2.6 and 4.1
        # times a dense one at orders 200, 500, 1000 and 2000 (one BLAS
        # thread), so CSR serves blocks at most an eighth full.
        sparse = 8 * block.nnz <= rows.size**2
        operand = block if sparse else block.toarray()
        ritz = _ritz_pairs(operand, unit[rows], bound)
        if ritz is None:
            lam, vectors = np.linalg.eigh(block.toarray() if sparse else operand)
            spectra.append(lam)
        else:
            lam, vectors = ritz
            start = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(rows.size)
            values = _ritz_pairs(operand, start, bound)
            spectra.append(
                np.linalg.eigvalsh(block.toarray() if sparse else operand)
                if values is None else values[0]
            )
        modes.append(_Modes(rows, lam, vectors))
    return _Eigensystem(np.concatenate(spectra), modes)


def _clock_weights(phase: np.ndarray, n_r: int) -> np.ndarray:
    """Row j holds the post-QPE clock distribution of a mode with scaled
    eigenvalue ``phase[j]`` = lambda_j t / 2 pi over the T = 2^n_r bins.

    That is the Fejer kernel sin^2(pi T d) / (T^2 sin^2(pi d)) of the offset
    d = phase - k / T from bin k.  With T phase = q + f, q the nearest
    integer, the numerator is sin^2(pi f) on every bin, and the kernel's
    period 1 in d lets the integer offset q - k be taken in [-T/2, T/2), so
    every sine argument lies within [-pi/2, pi/2].  A zero denominator
    (phase exactly on bin k) is the limit 1.
    """
    tbins = 2**n_r
    half = tbins // 2
    scaled = phase * tbins
    whole = np.rint(scaled)
    frac = scaled - whole
    weights = np.subtract.outer(np.mod(whole + half, tbins) - half, np.arange(tbins, dtype=float))
    weights[weights < -half] += tbins
    weights += frac[:, None]
    weights *= math.pi / tbins
    np.sin(weights, out=weights)
    np.square(weights, out=weights)
    on_bin = weights == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide((np.sin(math.pi * frac) ** 2 / tbins**2)[:, None], weights, out=weights)
    weights[on_bin] = 1.0
    return weights


def zero_tolerance(eigs: np.ndarray, order: int) -> float:
    """Magnitude at or below which an eigenvalue among ``eigs``, eigenvalues
    of a matrix of ``order``, counts as null: numpy's rank tolerance
    order * eps * max |lambda|."""
    return order * np.finfo(float).eps * float(np.abs(eigs).max())


def _qpe(
    eig: _Eigensystem, unit: np.ndarray, cfg: HhlConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Shared QPE front end: the window and C checks on every eigenvalue,
    the amplitudes beta of the unit right-hand side on the modes, the
    indices ``live`` of the modes with beta != 0, their clock weights, and
    whether the clock reads signed values."""
    spectrum = eig.spectrum
    tol = zero_tolerance(spectrum, unit.size)
    nonzero = np.abs(spectrum) > tol
    signed = bool((spectrum < -tol).any())
    if nonzero.any():
        _check_window(np.abs(spectrum[nonzero] * cfg.t / (2.0 * math.pi)), signed, cfg.C)
    lam = np.concatenate([mode.lam for mode in eig.modes])
    beta = np.concatenate([
        unit[mode.rows] if mode.vectors is None else mode.vectors.T @ unit[mode.rows]
        for mode in eig.modes
    ])
    live = np.flatnonzero(beta)
    return beta, live, _clock_weights(lam[live] * cfg.t / (2.0 * math.pi), cfg.n_r), signed


def hhl_solve(a: SymmetricMatrix, b: Sequence[float], cfg: HhlConfig) -> HhlOutcome:
    """Run the simulated circuit: QPE, inversion rotation, QPE undo, post-select.

    The rotation angle on clock value c is 2 arcsin(C / bin(c)), clamped to
    a full flip when a leakage bin undercuts C, and zero on the all-zeros
    bin so null-space components acquire no success amplitude.  The window,
    C and null checks read every eigenvalue of ``a``, reached by b
    or not, from a Lanczos run per block (see the module docstring), for a
    Laplacian and a digraph's Hermitian dilation alike.  Eigenvalues at or
    below numpy's rank tolerance order * eps * max|lambda|,
    ``zero_tolerance(spectrum, a.order)``, in magnitude count as null.
    """
    unit, b_norm = _unit_rhs(a.order, b, cfg)
    eig = _eigenpairs(a, unit)
    beta, live, weights, signed = _qpe(eig, unit, cfg)
    tbins = cfg.n_bins
    ticks = np.arange(tbins)
    bins = ticks / tbins
    if signed:
        bins = np.where(ticks >= tbins // 2, (ticks - tbins) / tbins, bins)
    sines = np.zeros_like(bins)
    sines[1:] = np.clip(cfg.C / bins[1:], -1.0, 1.0)
    ancilla = weights @ (sines**2)  # per-mode success probability
    zero_clock = weights @ sines  # per-mode amplitude left on the all-zeros clock
    p_exact = float(beta[live] ** 2 @ ancilla)
    if p_exact < _NULL_SUCCESS:
        raise ValueError("b lies entirely in the null space (p_success below 1e-14)")
    coef = np.zeros_like(beta)
    coef[live] = beta[live] * zero_clock
    unnorm = np.empty_like(unit)
    start = 0
    for mode in eig.modes:
        part = coef[start : start + mode.lam.size]
        start += mode.lam.size
        unnorm[mode.rows] = part if mode.vectors is None else mode.vectors @ part
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
    so the sign is lost and binomial noise enters.  With no post-selected
    success there is no estimate: ValueError.
    """
    outcome._require_success()
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
    # The overlap of two unit vectors can round to just above 1.
    zeros = rng.binomial(outcome.shots, min(0.5 * (1.0 + overlap**2), 1.0))
    est_sq = max(0.0, 2.0 * zeros / outcome.shots - 1.0)
    return amp * math.sqrt(est_sq)


def detect_fixed_clock_qubits(
    a: SymmetricMatrix,
    b: Sequence[float],
    cfg: HhlConfig,
) -> set[tuple[int, int]]:
    """Clock qubits whose post-QPE marginal clears the fixing threshold.

    Returns (qubit, bit) pairs with qubit 0 the most significant clock bit.
    A qubit is fixable when one bit value carries marginal probability at
    least MQF_THRESHOLD, in which case its controlled gates can be replaced
    by classically conditioned ones.  Null eigenvalues are as in
    ``hhl_solve``.
    """
    histogram = _clock_histogram(a, b, cfg)
    ticks = np.arange(cfg.n_bins)
    fixed: set[tuple[int, int]] = set()
    for q in range(cfg.n_r):
        hot = (ticks >> (cfg.n_r - 1 - q)) & 1
        p_one = float(histogram[hot == 1].sum())
        if p_one >= MQF_THRESHOLD:
            fixed.add((q, 1))
        elif 1.0 - p_one >= MQF_THRESHOLD:
            fixed.add((q, 0))
    return fixed


def _clock_histogram(a: SymmetricMatrix, b: Sequence[float], cfg: HhlConfig) -> np.ndarray:
    """Probability of each clock value after QPE on the state b / |b|."""
    unit, _ = _unit_rhs(a.order, b, cfg)
    beta, live, weights, _ = _qpe(_eigenpairs(a, unit), unit, cfg)
    return beta[live] ** 2 @ weights


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
    graph looks like; the promise is certified exactly by ``check_aqf``
    before return.
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
    cert = check_aqf(laplacian(grown), n, n + 1)
    if not (cert.holds and cert.eigenvalue == k):
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


def simulator_system(m: RectMatrix, rhs=None) -> tuple[SymmetricMatrix, float, bool, np.ndarray | None]:
    """The power-of-two system the simulator solves for ``m``: a
    SymmetricMatrix as it is, any other matrix (a digraph's B) as its
    Hermitian dilation [[0, B], [B^T, 0]], whose eigenvalues come in signed
    pairs.  Returns it padded with its absolute row bound, that bound (the
    default clock's lambda_max), whether the clock is signed, and ``rhs``,
    of the system's order or, for B, of m's (the c of B y = c), zero-extended
    to the padded order (None when not given)."""
    signed = not isinstance(m, SymmetricMatrix)
    system = hermitian_dilation(m) if signed else m
    if rhs is not None and np.shape(rhs) not in ((m.rows,), (system.order,)):
        lengths = " or ".join(str(k) for k in sorted({m.rows, system.order}))
        raise ValueError(f"b must have length {lengths}")
    bound = abs_row_bound(m)
    if bound <= 0:
        raise ValueError("zero matrix has no invertible part")
    padded = pad_to_power_of_two(system, bound)
    vec = None if rhs is None else np.concatenate((rhs, np.zeros(padded.order - len(rhs))))
    return padded, bound, signed, vec


def graph_config(
    g: Graph,
    n_r: int = DEFAULT_CLOCK_QUBITS,
    *,
    shots: int | None = None,
    seed: int | None = None,
) -> HhlConfig:
    """The default clock for ``simulator_system(system_matrix(g))``:
    ``default_config`` at its row bound, signed for a digraph's dilation."""
    bound = abs_row_bound(system_matrix(g))
    return default_config(n_r, bound, signed=g.directed, shots=shots, seed=seed)


def _graph_solve(g: Graph, rhs: np.ndarray, cfg: HhlConfig | None) -> tuple[HhlOutcome, np.ndarray]:
    """``hhl_solve`` on ``simulator_system(system_matrix(g), rhs)``, with
    graph_config's clock when ``cfg`` is None; the outcome and extended rhs."""
    padded, bound, signed, vec = simulator_system(system_matrix(g), rhs)
    if cfg is None:
        cfg = default_config(DEFAULT_CLOCK_QUBITS, bound, signed=signed)
    return hhl_solve(padded, vec, cfg), vec


def _check_method(method: str, cfg: HhlConfig | None) -> None:
    """``method`` is "oracle" or "hhl", and only "hhl" takes a ``cfg``."""
    if method not in ("oracle", "hhl"):
        raise ValueError(f"unknown method {method!r}")
    if method == "oracle" and cfg is not None:
        raise ValueError("the oracle takes no cfg; pass cfg with method='hhl'")


def _rhs(g: Graph, pair: tuple[int, int] | None = None, injections=None) -> np.ndarray:
    """The right-hand side b of g's system, delta_i - delta_j (L x = b) for a
    ``pair`` of an undirected g or the ``injections`` (B y = b) of a digraph,
    once it lies in range(L) = range(B): its residual off that range,
    sqrt(sum_C (sum_{v in C} b_v)^2 / |C|) over components C (arcs read as
    edges), must stay within the rounding of those sums, n eps |b|_1."""
    n = g.n_vertices
    if pair is not None:
        if g.directed:
            raise ValueError("effective resistance is defined for undirected graphs")
        for k in pair:  # before the int64 cast, so that 2**70 or 1e20 is out of range
            if not 0 <= k < n:
                raise ValueError(f"vertex {k} out of range")
        i, j = _integral(pair, "vertex").tolist()
        if i == j:
            raise ValueError("need two distinct vertices")
        b = np.bincount((i, j), (1.0, -1.0), minlength=n)  # delta_i - delta_j
        refusal = f"vertices {i} and {j} are disconnected: effective resistance undefined"
    else:
        if not g.directed:
            raise ValueError("traffic flow is defined for directed graphs")
        b = np.asarray(injections, dtype=float)
        if b.shape != (n,):
            raise ValueError(f"injections must have length {n}")
        if not np.isfinite(b).all():
            raise ValueError("injections must be finite")
        refusal = "imbalanced injections: no exact flow satisfies them"
    adj = sp.coo_array((np.ones(g.n_edges), (g.u, g.v)), shape=(n, n))
    labels = connected_components(adj, directed=False)[1]
    residual = math.hypot(*np.bincount(labels, b) / np.sqrt(np.bincount(labels)))
    if residual > n * np.finfo(float).eps * float(np.abs(b).sum()):
        raise ValueError(refusal)
    return b


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
    probe overlap; only it takes a ``cfg``, None taking ``graph_config(g)``,
    whose evolution time comes from the row bound (twice the largest weighted
    degree), so ill conditioned graphs may need a config with a tighter C.
    Both need i and j in one component, where delta_i - delta_j is in range(L).
    """
    _check_method(method, cfg)
    if method == "hhl":
        return hhl_resistance(g, i, j, cfg)[0]
    rhs = _rhs(g, (i, j))
    return float(rhs @ np.linalg.pinv(laplacian(g).to_dense()) @ rhs)


def hhl_resistance(
    g: Graph, i: int, j: int, cfg: HhlConfig | None = None
) -> tuple[float, HhlOutcome]:
    """``effective_resistance(g, i, j, "hhl", cfg)`` with the simulator
    outcome it is read from, whose ``successes`` counts the post-selections
    in shot mode."""
    outcome, vec = _graph_solve(g, _rhs(g, (i, j)), cfg)
    # r = b^T L+ b with |b|^2 = 2 and the normalized b as probe.
    return 2.0 * extract_overlap(outcome, vec / math.sqrt(2.0)), outcome


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
    c = -delta_u + delta_w.  c must sum to zero on each weakly connected
    component, to a relative tolerance: its residual off range(B) may be at
    most n eps |c|_1, n the vertex count.  The hhl path, the only one to
    take a ``cfg`` (None takes ``graph_config(g)``), runs ``hhl_solve`` on
    the padded dilation [[0, B], [B^T, 0]] in signed clock mode and reads y
    off the edge block.  Negative flow entries are physically suspect (lane
    counts are nonnegative) and are reported, not rejected.
    """
    _check_method(method, cfg)
    c = _rhs(g, injections=injections)
    if not c.any():
        return TrafficFlowResult(flow=np.zeros(g.n_edges), negative_lanes=())
    if method == "oracle":
        y = np.linalg.lstsq(incidence_matrix(g).to_dense(), c, rcond=None)[0][: g.n_edges]
    else:
        y = _graph_solve(g, c, cfg)[0].solution[g.n_vertices : g.n_vertices + g.n_edges]
    lanes = tuple(int(k) for k in np.flatnonzero(y < -1e-9))
    return TrafficFlowResult(flow=y, negative_lanes=lanes)
