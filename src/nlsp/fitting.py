"""Growth-model fitting for condition-number and sparsity series.

Candidate models: constant, polylog up to degree 3, polynomial up to degree 3,
and a shifted exponential.  Selection uses a small-sample information score
with a simplicity tie-break so runs are reproducible (the source analysis
picked fits by visual inspection; this is the documented deviation).
Reciprocal-power models are deliberately absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .growth import GrowthClass

MODEL_ORDER = ("constant", "polylog", "polynomial", "exponential")
MAX_DEGREE = 3
TIE_WINDOW = 2.0
ENVELOPE_WINDOW = 5
MIN_POINTS = 4  # fewest points a series or an envelope is fit on


class InadmissibleSeriesError(ValueError):
    """All candidate models were disqualified for a series."""


@dataclass(frozen=True)
class FitResult:
    """Selected growth model for one measurement series.

    coefficients are ascending: [a_0, ..., a_p] for polynomial/polylog in the
    respective basis, [c] for constant, and [a0, a1, a2] for the exponential
    a2*exp(a1*x) + a0.  growth is the model's growth class, derived from
    model, degree and coefficients.
    """

    model: str
    degree: int
    coefficients: tuple[float, ...]
    sse: float
    score: float
    n_points: int
    kind: str
    max_round_deviation: float | None = None

    @property
    def growth(self) -> GrowthClass:
        if self.model == "constant":
            return GrowthClass.constant()
        if self.model == "polylog":
            return GrowthClass.log_power(self.degree)
        if self.model == "polynomial":
            return GrowthClass.poly(self.degree)
        return GrowthClass.from_rate(self.coefficients[1])

    def predict(self, x: float) -> float:
        return _evaluator(self.model, self.coefficients)(x)


def _evaluator(model: str, coeffs: Sequence[float]) -> Callable[[float], float]:
    if model == "constant":
        return lambda x: coeffs[0]
    if model == "polylog":
        return lambda x: sum(c * math.log(x) ** j for j, c in enumerate(coeffs))
    if model == "polynomial":
        return lambda x: sum(c * x**j for j, c in enumerate(coeffs))
    if model == "exponential":
        a0, a1, a2 = coeffs
        return lambda x: a2 * math.exp(min(a1 * x, 700.0)) + a0
    raise ValueError(f"unknown model {model}")


def _require_points(count: int) -> None:
    if count < MIN_POINTS:
        raise ValueError(f"fits need {MIN_POINTS} points, got {count}")


@dataclass(frozen=True)
class _Candidate:
    model: str
    degree: int
    coefficients: tuple[float, ...]
    sse: float  # sum of squared relative residuals
    n_params: int  # coefficients plus the noise variance

    @property
    def simplicity(self) -> tuple[int, int]:
        return (MODEL_ORDER.index(self.model), self.degree)


def _rel_sse(ys: np.ndarray, pred: np.ndarray) -> float:
    r = (ys - pred) / ys
    return float(r @ r)


def _weighted_fit(design: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, float]:
    # Measurement noise on kappa and sparsity is relative, so minimize the
    # relative residual.  Absolute least squares would let the small-x end of
    # a steep series swing by the noise scale of the large-x end.
    w = 1.0 / ys
    coeffs, *_ = np.linalg.lstsq(design * w[:, None], np.ones_like(ys), rcond=None)
    return coeffs, _rel_sse(ys, design @ coeffs)


def _fit_candidates(xs: np.ndarray, ys: np.ndarray) -> list[_Candidate]:
    out: list[_Candidate] = []
    const_design = np.ones((len(ys), 1))
    coeffs, sse = _weighted_fit(const_design, ys)
    out.append(_Candidate("constant", 0, (float(coeffs[0]),), sse, 2))
    logs = np.log(xs)
    for p in range(1, MAX_DEGREE + 1):
        design = np.vander(logs, p + 1, increasing=True)
        coeffs, sse = _weighted_fit(design, ys)
        out.append(_Candidate("polylog", p, tuple(coeffs), sse, p + 2))
    for p in range(1, MAX_DEGREE + 1):
        design = np.vander(xs, p + 1, increasing=True)
        coeffs, sse = _weighted_fit(design, ys)
        out.append(_Candidate("polynomial", p, tuple(coeffs), sse, p + 2))
    # Shifted exponential, linearized over a small grid of offsets; the full
    # 3-parameter nonlinear problem is too ill-conditioned at desk scale.
    y_min = float(ys.min())
    best_exp: _Candidate | None = None
    for a0 in (0.0, y_min / 2.0, y_min - 1.0):
        shifted = ys - a0
        if np.any(shifted <= 0):
            continue
        design = np.vander(xs, 2, increasing=True)
        (log_a2, a1), *_ = np.linalg.lstsq(design, np.log(shifted), rcond=None)
        if a1 <= 0:
            continue
        a2 = math.exp(log_a2)
        pred = a2 * np.exp(np.clip(a1 * xs, None, 700.0)) + a0
        cand = _Candidate("exponential", 0, (a0, float(a1), a2), _rel_sse(ys, pred), 4)
        if best_exp is None or cand.sse < best_exp.sse:
            best_exp = cand
    if best_exp is not None:
        out.append(best_exp)
    return out


def _admissible(cand: _Candidate, xs: np.ndarray) -> bool:
    grid = np.unique(np.concatenate([np.linspace(xs[0], xs[-1], 257), xs]))
    fn = _evaluator(cand.model, cand.coefficients)
    return all(fn(x) >= 1.0 - 1e-9 for x in grid)


def _score(cand: _Candidate, n: int, sse_floor: float) -> float:
    if n - cand.n_params - 1 <= 0:
        return math.inf
    sse = max(cand.sse, sse_floor)
    return n * math.log(sse / n) + 2.0 * cand.n_params * n / (n - cand.n_params - 1)


def fit_series(xs: Sequence[float], ys: Sequence[float], kind: str) -> FitResult:
    """Fit one series and select a model deterministically.

    kind is "kappa" or "sparsity"; both require the fitted curve to stay
    >= 1 over the data range.  Sparsity fits additionally report the largest
    deviation of the rounded fit from the measured values.
    """
    if kind not in ("kappa", "sparsity"):
        raise ValueError("kind must be 'kappa' or 'sparsity'")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    _require_points(len(x))
    if not np.all(np.diff(x) > 0):
        raise ValueError("xs must be strictly increasing")
    if np.any(y <= 0):
        raise ValueError("ys must be positive")
    candidates = [c for c in _fit_candidates(x, y) if _admissible(c, x)]
    if not candidates:
        raise InadmissibleSeriesError("no admissible fit")
    n = len(x)
    # Floor the relative SSE at the numerical-noise level so that exact fits
    # tie instead of ranking by rounding accidents.
    sse_floor = n * 1e-16
    scored = [(c, _score(c, n, sse_floor)) for c in candidates]
    finite = [cs for cs in scored if math.isfinite(cs[1])]
    if not finite:
        raise InadmissibleSeriesError("no admissible fit")
    best_score = min(s for _, s in finite)
    in_window = [cs for cs in finite if cs[1] <= best_score + TIE_WINDOW]
    chosen, chosen_score = min(in_window, key=lambda cs: cs[0].simplicity)
    max_dev: float | None = None
    if kind == "sparsity":
        fn = _evaluator(chosen.model, chosen.coefficients)
        max_dev = max(abs(round(fn(xi)) - yi) for xi, yi in zip(x, y))
    return FitResult(
        model=chosen.model,
        degree=chosen.degree,
        coefficients=chosen.coefficients,
        sse=chosen.sse,
        score=chosen_score,
        n_points=n,
        kind=kind,
        max_round_deviation=max_dev,
    )


class Envelope(NamedTuple):
    """Envelope-filtered series, what downstream fitting consumes: the
    points on the upper staircase, or the untouched input, flagged, when
    fewer than MIN_POINTS of them survive."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    flagged: bool


def upper_envelope(xs: Sequence[float], ys: Sequence[float]) -> Envelope:
    """Keep the points on the upper staircase of a noisy series.

    A point survives iff it attains the maximum of the trailing
    ENVELOPE_WINDOW points ending at it.
    """
    _require_points(len(xs))
    kept_x, kept_y = [], []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if y >= max(ys[max(0, i - ENVELOPE_WINDOW + 1) : i + 1]):
            kept_x.append(x)
            kept_y.append(y)
    if len(kept_x) < MIN_POINTS:
        return Envelope(tuple(xs), tuple(ys), True)
    return Envelope(tuple(kept_x), tuple(kept_y), False)
