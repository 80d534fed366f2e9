"""Model fitting: exact recovery, selection rules, envelope filtering."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp.fitting import (
    MAX_DEGREE,
    FitResult,
    InadmissibleSeriesError,
    fit_series,
    upper_envelope,
)
from nlsp.growth import GrowthClass

XS = [8, 16, 32, 64, 128, 256, 512, 1024]


def test_exact_constant_recovery():
    fit = fit_series(XS, [7.25] * len(XS), kind="kappa")
    assert fit.model == "constant"
    assert fit.coefficients[0] == pytest.approx(7.25, rel=1e-12)
    assert fit.growth == GrowthClass.constant()


def test_exact_polylog_recovery():
    ys = [2.0 + 0.5 * math.log(x) + 3.0 * math.log(x) ** 2 for x in XS]
    fit = fit_series(XS, ys, kind="kappa")
    assert fit.model == "polylog"
    assert fit.degree == 2
    for got, want in zip(fit.coefficients, (2.0, 0.5, 3.0)):
        assert got == pytest.approx(want, rel=1e-6)
    assert fit.growth == GrowthClass.log_power(2)


def test_exact_polynomial_recovery():
    ys = [5.0 + 2.0 * x + 0.25 * x**2 for x in XS]
    fit = fit_series(XS, ys, kind="kappa")
    assert fit.model == "polynomial"
    assert fit.degree == 2
    for got, want in zip(fit.coefficients, (5.0, 2.0, 0.25)):
        assert got == pytest.approx(want, rel=1e-6)
    assert fit.growth == GrowthClass.poly(2)


def test_exact_exponential_recovery():
    xs = list(range(4, 44, 4))
    ys = [1.5 * math.exp(0.21 * x) for x in xs]
    fit = fit_series(xs, ys, kind="kappa")
    assert fit.model == "exponential"
    a0, a1, a2 = fit.coefficients
    assert a0 == 0.0
    assert a1 == pytest.approx(0.21, rel=1e-6)
    assert a2 == pytest.approx(1.5, rel=1e-6)
    assert fit.growth.exp_rate == pytest.approx(0.21, rel=1e-6)
    assert fit.growth.exp_sign() > 0


def test_simplicity_tiebreak_prefers_lower_degree():
    # Cubic fits linear data exactly too; the tie must resolve downward.
    ys = [1.0 + 3.0 * x for x in XS]
    fit = fit_series(XS, ys, kind="kappa")
    assert (fit.model, fit.degree) == ("polynomial", 1)


def test_constant_data_not_promoted():
    rng = np.random.default_rng(5)
    ys = 9.0 * (1.0 + 0.01 * rng.standard_normal(len(XS)))
    fit = fit_series(XS, list(ys), kind="kappa")
    assert fit.model == "constant"


def test_all_candidates_below_one_rejected():
    with pytest.raises(InadmissibleSeriesError):
        fit_series(XS, [0.5] * len(XS), kind="kappa")


def test_small_sample_blocks_wide_models():
    # Four points leave no room for 3-parameter candidates in the score.
    xs = [8, 16, 32, 64]
    ys = [1.0 + 0.5 * x + 0.01 * x**2 for x in xs]
    fit = fit_series(xs, ys, kind="kappa")
    assert fit.model in ("constant", "polylog", "polynomial")
    assert fit.degree <= 1


def test_sparsity_rounding_deviation():
    ys = [4, 4, 4, 4, 4, 4]
    fit = fit_series(XS[:6], ys, kind="sparsity")
    assert fit.max_round_deviation == 0

    bad = [4, 4, 9, 4, 4, 4]
    fit2 = fit_series(XS[:6], bad, kind="sparsity")
    assert fit2.max_round_deviation is not None
    assert fit2.max_round_deviation > 2


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(11)
    ys = [3.0 * math.log(x) + 1.0 for x in XS]
    ys = list(np.asarray(ys) * (1.0 + 0.01 * rng.standard_normal(len(ys))))
    a = fit_series(XS, ys, kind="kappa")
    b = fit_series(XS, ys, kind="kappa")
    assert a == b
    assert a.coefficients == b.coefficients


def synthetic_series(model: str, rng):
    """One noiseless 7-point series from the named model class.

    Seven points is deliberate: the small-sample score correction then
    protects constants from noise-chasing wide models while the structured
    classes still separate cleanly.
    """
    if model == "constant":
        xs = sorted(set(int(v) for v in np.geomspace(8, 4096, 7)))
        return xs, np.full(len(xs), rng.uniform(1.5, 20.0))
    if model == "polylog":
        xs = sorted(set(int(v) for v in np.geomspace(8, 4096, 7)))
        d = int(rng.integers(1, 4))
        lx = np.log(xs)
        ys = rng.uniform(1.0, 3.0) + rng.uniform(0.5, 4.0) * lx**d
        for j in range(1, d):
            ys = ys + rng.uniform(0.5, 2.0) * lx**j
        return xs, ys
    if model == "polynomial":
        xs = [int(v) for v in np.linspace(4, 40, 7)]
        d = int(rng.integers(1, 4))
        fx = np.asarray(xs, float)
        ys = rng.uniform(1.0, 3.0) + rng.uniform(0.5, 4.0) * fx**d
        for j in range(1, d):
            ys = ys + rng.uniform(0.5, 2.0) * fx**j
        return xs, ys
    if model == "exponential":
        xs = [int(v) for v in np.linspace(4, 40, 7)]
        fx = np.asarray(xs, float)
        return xs, rng.uniform(1.0, 3.0) * np.exp(rng.uniform(0.12, 0.3) * fx)
    raise ValueError(model)


def test_noisy_recovery_rates():
    rng = np.random.default_rng(2026)
    for model in ("constant", "polylog", "polynomial", "exponential"):
        hits = 0
        for _ in range(20):
            xs, ys = synthetic_series(model, rng)
            ys = ys * (1.0 + 0.01 * rng.standard_normal(len(ys)))
            fit = fit_series(xs, list(ys), kind="kappa")
            hits += fit.model == model
        assert hits >= 18, f"{model}: {hits}/20"


def test_envelope_sawtooth():
    # The staircase rule retains 5, 6, 7; with only 3 survivors the usable
    # series falls back to the full input, flagged.
    xs = [10, 20, 30, 40, 50]
    env = upper_envelope(xs, [5, 1, 6, 2, 7])
    assert env.flagged
    assert env.xs == tuple(xs)
    assert env.ys == (5, 1, 6, 2, 7)
    # one more rise leaves 4 survivors, which the envelope keeps
    env = upper_envelope(xs + [60], [5, 1, 6, 2, 7, 8])
    assert not env.flagged
    assert (env.xs, env.ys) == ((10, 30, 50, 60), (5, 6, 7, 8))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_envelope_rejects_what_fit_series_rejects(bad):
    # a NaN used to be dropped with the valid point ENVELOPE_WINDOW - 1 later
    xs = [10, 20, 30, 40, 50, 60, 70, 80]
    ys = [1, 2, bad, 4, 5, 6, 7, 8]
    message = f"ys must be finite and positive, got {bad!r}"
    for fit in (lambda: upper_envelope(xs, ys), lambda: fit_series(xs, ys, "kappa")):
        with pytest.raises(ValueError, match=re.escape(message)):
            fit()


def test_envelope_fallback_flags():
    xs = [10, 20, 30, 40, 50]
    env = upper_envelope(xs, [9, 8, 7, 6, 5])
    assert env.flagged
    assert env.xs == tuple(xs)
    assert env.ys == (9, 8, 7, 6, 5)


def test_envelope_monotone_passthrough():
    xs = [10, 20, 30, 40, 50]
    env = upper_envelope(xs, [1, 2, 3, 4, 5])
    assert env.xs == tuple(xs)
    assert not env.flagged


WOBBLE = [1.0, 1.013, 0.991, 1.007, 0.996, 1.011, 0.989, 1.004]
EXP_XS = list(range(4, 36, 4))
ENVELOPE = upper_envelope(range(20, 110, 10), [4.0, 3.1, 5.2, 4.4, 6.9, 6.1, 8.3, 7.7, 9.8])
PINNED_SERIES = {
    "constant": (XS, [7.25 * w for w in WOBBLE], "kappa"),
    "polylog": (
        XS,
        [(2.0 + 0.5 * math.log(x) + 3.0 * math.log(x) ** 2) * w for x, w in zip(XS, WOBBLE)],
        "kappa",
    ),
    "polynomial": (XS, [(5.0 + 2.0 * x + 0.25 * x**2) * w for x, w in zip(XS, WOBBLE)], "kappa"),
    "exponential": (
        EXP_XS, [(6.0 + 1.5 * math.exp(0.21 * x)) * w for x, w in zip(EXP_XS, WOBBLE)], "kappa"
    ),
    "sparsity": (XS, [3, 4, 4, 5, 7, 6, 7, 8], "sparsity"),
    # a random family's scatter, cut to its upper envelope first
    "envelope": (ENVELOPE.xs, ENVELOPE.ys, "kappa"),
}
# (model, degree, coefficients, sse, score, max_round_deviation) as the
# per-point evaluator of earlier releases computed them; evaluating on arrays
# must not move a bit
PINNED_FITS = {
    "constant": (
        "constant", 0, (7.258957584908214,),
        0.0005573973953801111, -70.1733892592742, None,
    ),
    "polylog": (
        "polylog", 2, (1.7442957851902847, 0.693208562838016, 2.9744094147610833),
        0.0005419359338181365, -55.46510113449543, None,
    ),
    "polynomial": (
        "polynomial", 2, (4.695619971063976, 2.0486898491677765, 0.24977366956943087),
        0.0005355936136246373, -55.559277944074125, None,
    ),
    "exponential": (
        "exponential", 0, (4.7372752325858185, 0.20063667972896043, 1.9105731570116955),
        0.014993237405446011, -28.90344715351019, None,
    ),
    "sparsity": (
        "polylog", 1, (0.9701106890886437, 0.9883882044173762),
        0.05296333530352594, -28.140775465845017, 1.0,
    ),
    "envelope": (
        "polynomial", 1, (2.4829303298485734, 0.07246471969381427),
        0.0016638087018301603, -10.040419092342034, None,
    ),
}


@pytest.mark.parametrize("name", PINNED_FITS)
def test_fit_series_outputs_are_pinned_bit_for_bit(name):
    fit = fit_series(*PINNED_SERIES[name])
    got = (fit.model, fit.degree, fit.coefficients, fit.sse, fit.score, fit.max_round_deviation)
    assert got == PINNED_FITS[name]


def closed_form(model, coefficients, x):
    if model == "constant":
        return coefficients[0]
    if model == "polylog":
        return sum(c * math.log(x) ** j for j, c in enumerate(coefficients))
    if model == "polynomial":
        return sum(c * x**j for j, c in enumerate(coefficients))
    a0, a1, a2 = coefficients
    return a2 * math.exp(min(a1 * x, 700.0)) + a0


@st.composite
def fits(draw):
    model = draw(st.sampled_from(["constant", "polylog", "polynomial", "exponential"]))
    if model == "exponential":
        degree = 0
        coefficients = (
            draw(st.floats(0.0, 10.0)), draw(st.floats(1e-6, 1.0)), draw(st.floats(0.1, 10.0))
        )
    else:
        degree = 0 if model == "constant" else draw(st.integers(1, MAX_DEGREE))
        coefficients = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=degree + 1,
                                           max_size=degree + 1)))
    return FitResult(model, degree, coefficients, 0.0, 0.0, 8, "kappa")


@settings(max_examples=300, deadline=None)
@given(fits(), st.floats(1.0, 1e6))
def test_predict_matches_the_closed_form(fit, x):
    want = closed_form(fit.model, fit.coefficients, x)
    assert fit.predict(x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "model, degree, coefficients, message",
    [
        ("quartic", 4, (1.0, 0.5, 0.1), "unknown model 'quartic'"),
        ("polylog", 0, (1.0,), "polylog degree must be one of [1, 2, 3], got 0"),
        ("polynomial", 4, (1.0,) * 5, "polynomial degree must be one of [1, 2, 3], got 4"),
        ("exponential", 1, (0.0, 0.5, 1.0), "exponential degree must be one of [0], got 1"),
        ("polylog", 2, (1.0, 0.5), "polylog of degree 2 needs 3 coefficients, got 2"),
        ("exponential", 0, (0.5, 1.0), "exponential of degree 0 needs 3 coefficients, got 2"),
    ],
    ids=["unknown-model", "polylog-0", "polynomial-4", "exponential-1", "short-polylog",
         "short-exponential"],
)
def test_fit_result_refuses_a_fit_off_the_menu(model, degree, coefficients, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FitResult(model, degree, coefficients, 0.0, 0.0, 8, "kappa")


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        (XS, [2.0, 3.0, math.nan] + [4.0] * 5, "ys must be finite and positive, got nan"),
        (XS, [2.0, 3.0, math.inf] + [4.0] * 5, "ys must be finite and positive, got inf"),
        ([0] + XS[1:], [2.0] * 8, "xs must be finite and positive, got 0.0"),
        ([math.nan] + XS[1:], [2.0] * 8, "xs must be finite and positive, got nan"),
    ],
    ids=["nan-y", "inf-y", "zero-x", "nan-x"],
)
def test_non_finite_or_non_positive_inputs_are_refused(xs, ys, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_series(xs, ys, kind="kappa")
