"""Growth-model fitting for condition-number and sparsity series.

Candidate models: constant, polylog up to degree 3, polynomial up to degree 3,
and a shifted exponential.  Each model is written once: ``_design`` is the
basis of the three linear models, and ``_evaluate`` evaluates any model on an
array.  Every consumer goes through ``_evaluate``: the candidates' residuals,
the admissibility grid, the sparsity rounding check and ``FitResult.predict``.
Selection uses a small-sample information score with a simplicity tie-break
so runs are reproducible (the source analysis picked fits by visual
inspection; this is the documented deviation).  Reciprocal-power models are
deliberately absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .growth import GrowthClass

MODEL_ORDER = ("constant", "polylog", "polynomial", "exponential")
MAX_DEGREE = 3
TIE_WINDOW = 2.0
ENVELOPE_WINDOW = 5
MIN_POINTS = 4  # fewest points a series or an envelope is fit on
# (model, degree) of the candidates fit by least squares in _design's basis
_LINEAR = (("constant", 0),) + tuple(
    (model, p) for model in ("polylog", "polynomial") for p in range(1, MAX_DEGREE + 1)
)


class InadmissibleSeriesError(ValueError):
    """All candidate models were disqualified for a series."""


def _design(model: str, degree: int, x: np.ndarray) -> np.ndarray:
    """Columns 1, t, ..., t^degree with t = log x (polylog) or x (constant,
    polynomial)."""
    return np.vander(np.log(x) if model == "polylog" else x, degree + 1, increasing=True)


def _evaluate(model: str, coefficients: Sequence[float], x: np.ndarray) -> np.ndarray:
    """The model with these coefficients at every point of the 1-D array x."""
    if model == "exponential":
        a0, a1, a2 = coefficients
        return a2 * np.exp(np.minimum(a1 * x, 700.0)) + a0
    return _design(model, len(coefficients) - 1, x) @ coefficients


@dataclass(frozen=True)
class FitResult:
    """Selected growth model for one measurement series.

    coefficients are ascending: [a_0, ..., a_p] for polynomial/polylog in the
    respective basis, [c] for constant, and [a0, a1, a2] for the exponential
    a2*exp(a1*x) + a0.  growth is the model's growth class, derived from
    model, degree and coefficients.  A model outside MODEL_ORDER, a degree
    outside its menu or a coefficient count that does not match is refused.
    """

    model: str
    degree: int
    coefficients: tuple[float, ...]
    sse: float
    score: float
    n_points: int
    kind: str
    max_round_deviation: float | None = None

    def __post_init__(self) -> None:
        degrees = [p for model, p in _LINEAR + (("exponential", 0),) if model == self.model]
        if not degrees:
            raise ValueError(f"unknown model {self.model!r}; choices: {', '.join(MODEL_ORDER)}")
        if self.degree not in degrees:
            raise ValueError(f"{self.model} degree must be one of {degrees}, got {self.degree!r}")
        want = 3 if self.model == "exponential" else self.degree + 1
        if len(self.coefficients) != want:
            raise ValueError(f"{self.model} of degree {self.degree} needs {want} coefficients, "
                             f"got {len(self.coefficients)}")

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
        return float(_evaluate(self.model, self.coefficients, np.array([x], dtype=float))[0])


def _require_points(count: int) -> None:
    if count < MIN_POINTS:
        raise ValueError(f"fits need {MIN_POINTS} points, got {count}")


def _rel_sse(model: str, coefficients: Sequence[float], xs: np.ndarray, ys: np.ndarray) -> float:
    """Sum of squared relative residuals of the model at the data."""
    r = (ys - _evaluate(model, coefficients, xs)) / ys
    return float(r @ r)


def _weighted_fit(design: np.ndarray, ys: np.ndarray) -> tuple[float, ...]:
    # Measurement noise on kappa and sparsity is relative, so minimize the
    # relative residual.  Absolute least squares would let the small-x end of
    # a steep series swing by the noise scale of the large-x end.
    w = 1.0 / ys
    coeffs, *_ = np.linalg.lstsq(design * w[:, None], np.ones_like(ys), rcond=None)
    return tuple(coeffs.tolist())


def _fit_candidates(xs: np.ndarray, ys: np.ndarray) -> list[tuple[str, int, tuple[float, ...]]]:
    """(model, degree, coefficients) of every linear candidate and of the
    shifted exponential of least residual."""
    out = [(model, p, _weighted_fit(_design(model, p, xs), ys)) for model, p in _LINEAR]
    # Shifted exponential, linearized over a small grid of offsets; the full
    # 3-parameter nonlinear problem is too ill-conditioned at desk scale.
    exponentials = []
    line = _design("polynomial", 1, xs)  # log(y - a0) = log(a2) + a1 * x
    y_min = float(ys.min())
    for a0 in (0.0, y_min / 2.0, y_min - 1.0):
        shifted = ys - a0
        if np.any(shifted <= 0):
            continue
        (log_a2, a1), *_ = np.linalg.lstsq(line, np.log(shifted), rcond=None)
        if a1 > 0:
            exponentials.append((a0, float(a1), math.exp(log_a2)))
    if exponentials:
        best = min(exponentials, key=lambda c: _rel_sse("exponential", c, xs, ys))
        out.append(("exponential", 0, best))
    return out


def _score(sse: float, n_params: int, n: int) -> float:
    if n - n_params - 1 <= 0:
        return math.inf
    # Floor the relative SSE at the numerical-noise level so that exact fits
    # tie instead of ranking by rounding accidents.
    sse = max(sse, n * 1e-16)
    return n * math.log(sse / n) + 2.0 * n_params * n / (n - n_params - 1)


def fit_series(xs: Sequence[float], ys: Sequence[float], kind: str) -> FitResult:
    """Fit one series and select a model deterministically.

    kind is "kappa" or "sparsity"; both require the fitted curve to stay
    >= 1 over the data range.  Sparsity fits additionally report the largest
    deviation of the rounded fit from the measured values.  Every x and y
    must be finite and positive.
    """
    if kind not in ("kappa", "sparsity"):
        raise ValueError("kind must be 'kappa' or 'sparsity'")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    _require_points(len(x))
    for name, values in (("xs", x), ("ys", y)):
        bad = values[~(np.isfinite(values) & (values > 0))]
        if bad.size:
            raise ValueError(f"{name} must be finite and positive, got {float(bad[0])!r}")
    if not np.all(np.diff(x) > 0):
        raise ValueError("xs must be strictly increasing")
    n = len(x)
    grid = np.unique(np.concatenate([np.linspace(x[0], x[-1], 257), x]))
    ranked = []  # (score, model, degree, coefficients, sse) of admissible candidates
    for model, degree, coefficients in _fit_candidates(x, y):
        if np.all(_evaluate(model, coefficients, grid) >= 1.0 - 1e-9):
            sse = _rel_sse(model, coefficients, x, y)
            score = _score(sse, len(coefficients) + 1, n)  # + 1: the noise variance
            ranked.append((score, model, degree, coefficients, sse))
    finite = [r for r in ranked if math.isfinite(r[0])]
    if not finite:
        raise InadmissibleSeriesError("no admissible fit")
    best_score = min(r[0] for r in finite)
    score, model, degree, coefficients, sse = min(
        (r for r in finite if r[0] <= best_score + TIE_WINDOW),
        key=lambda r: (MODEL_ORDER.index(r[1]), r[2]),
    )
    max_dev: float | None = None
    if kind == "sparsity":
        max_dev = float(np.max(np.abs(np.round(_evaluate(model, coefficients, x)) - y)))
    return FitResult(
        model=model,
        degree=degree,
        coefficients=coefficients,
        sse=sse,
        score=score,
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
