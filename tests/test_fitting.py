"""Model fitting: exact recovery, selection rules, envelope filtering."""

import math

import numpy as np
import pytest

from nlsp.fitting import (
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
