import math
from fractions import Fraction

import pytest

from nlsp.growth import GrowthClass
from nlsp.solvers import (
    CATEGORY_ORDER,
    CLS,
    SOLVERS,
    classify,
    crossover,
    crossover_index,
    evaluate_advantage,
    get_solver,
    kmp_reference_ratio,
    ratio_R,
    ratio_class,
)

N1 = GrowthClass.poly(1)
LOG = GrowthClass.log_power
CONST = GrowthClass.constant()
EXP2 = GrowthClass.exponential(2)


def test_runtime_boundaries():
    e_e = math.exp(math.e)
    assert CLS.runtime(e_e, 1.0, 1.0) == pytest.approx(e_e, rel=1e-12)
    with pytest.raises(ValueError):
        get_solver("DREAM").runtime(math.e, 4.0, 4.0)
    with pytest.raises(ValueError):
        get_solver("HHL").runtime(100.0, 0.5, 1.0)
    assert get_solver("cks2") is SOLVERS["CKS(2)"]
    assert get_solver("AQC(3)") is SOLVERS["AQC(3)"]
    with pytest.raises(ValueError):
        get_solver("grover")


def _paper_formulas(n_size, k, s):
    """Each model's runtime as the paper writes it, 1/eps = log N."""
    log_n = math.log(n_size)
    ll = math.log(log_n)
    out = {
        "CLS": n_size * s * math.sqrt(k) * ll,
        "HHL": log_n**2 * s**2 * k**3,
        "HHL_AA": log_n**2 * s**2 * k**2,
        "HHL_VTAA": log_n**4 * s**2 * k * math.log(k * log_n) ** 3 * ll**2,
        "PSI_HHL": log_n**2 * s**2 * k,
        "PHASE_RAND": log_n**2 * s * k * math.log(k),
        "DREAM": log_n * math.sqrt(s) * k * ll,
    }
    for order in (1, 2, 3):
        out[f"CKS({order})"] = out[f"AQC({order})"] = (
            log_n * s * k * math.log(s * k * log_n) ** order
        )
    return out


def test_runtime_formulas_spot_values():
    assert set(_paper_formulas(10.0, 2.0, 2.0)) == {"CLS", *SOLVERS}
    for n_size in (3.0, 1000.0, 1e9):
        for k in (1.0, 7.0, 1e4):
            for s in (1.0, 3.0, 50.0):
                for name, want in _paper_formulas(n_size, k, s).items():
                    model = CLS if name == "CLS" else SOLVERS[name]
                    assert model.runtime(n_size, k, s) == want, (name, n_size, k, s)


def test_runtime_classes_of_every_model():
    # size 2^n, kappa = s = n: log N = n, loglog N = log n
    expected = {
        "CLS": "2^n * n^(3/2) * log(n)",
        "HHL": "n^7",
        "HHL_AA": "n^6",
        "HHL_VTAA": "n^7 * log(n)^5",
        "PSI_HHL": "n^5",
        "PHASE_RAND": "n^4 * log(n)",
        "DREAM": "n^(5/2) * log(n)",
    }
    for order, tail in ((1, "log(n)"), (2, "log(n)^2"), (3, "log(n)^3")):
        expected[f"CKS({order})"] = expected[f"AQC({order})"] = f"n^3 * {tail}"
    assert set(expected) == {"CLS", *SOLVERS}
    for name, want in expected.items():
        model = CLS if name == "CLS" else SOLVERS[name]
        assert str(model.runtime_class(EXP2, N1, N1)) == want, name


def test_ratio_consistency_random_triples():
    import random

    rng = random.Random(7)
    for _ in range(100):
        n_size = rng.uniform(10, 1e6)
        kappa = rng.uniform(1.0, 1e3)
        s = rng.uniform(1.0, 50.0)
        for name in SOLVERS:
            direct = CLS.runtime(n_size, kappa, s) / SOLVERS[name].runtime(n_size, kappa, s)
            via_op = ratio_R(name, n_size, lambda _: kappa, lambda _: s)
            assert via_op == pytest.approx(direct, rel=1e-12)


def test_hhl_outperformance_condition():
    import random

    rng = random.Random(3)
    for _ in range(200):
        n_size = rng.uniform(10, 1e8)
        kappa = rng.uniform(1.0, 1e3)
        s = rng.uniform(1.0, 100.0)
        log_n = math.log(n_size)
        lhs = kappa ** 2.5 * s
        rhs = n_size * math.log(log_n) / log_n**2
        r = ratio_R("HHL", n_size, lambda _: kappa, lambda _: s)
        assert (r > 1) == (lhs < rhs)


def test_ratio_floors_fitted_values_at_one():
    # an extrapolated fit below the physical floor counts as kappa = s = 1
    floored = ratio_R("HHL", 10.0, lambda _: 1.0, lambda _: 1.0)
    assert ratio_R("HHL", 10.0, lambda _: 0.5, lambda _: 0.9999999999999992) == floored


def test_phase_rand_sparsity_cancels():
    for s in (3.0, 7.0, 19.0):
        r = ratio_R("PHASE_RAND", 5000.0, lambda _: 9.0, lambda _, s=s: s)
        r3 = ratio_R("PHASE_RAND", 5000.0, lambda _: 9.0, lambda _: 3.0)
        assert r == pytest.approx(r3, rel=1e-12)
    assert ratio_R("PHASE_RAND", 100.0, lambda _: 1.0, lambda _: 2.0) == math.inf


def test_synthetic_crossovers():
    # kappa = s = log N with N = 2^n, so kappa(n) = s(n) = n in the family
    # index; prefactor-free ratio 2^n log(n)/n^5.5.
    ratio = ratio_class("HHL", EXP2, N1, N1)
    assert ratio == EXP2 * LOG(1) * GrowthClass.poly(Fraction(-11, 2))
    assert ratio.evaluate(23) < 1.0
    assert crossover_index(ratio, range(3, 100)) == 24
    # Specialized Laplacian baseline crosses much earlier, near n=14.
    assert kmp_reference_ratio(13) < 1.0
    kmp_cross = next(n for n in range(3, 100) if kmp_reference_ratio(n) >= 1.0)
    assert kmp_cross == 14


def test_crossover_numeric_scan():
    kappa_fit = lambda x: math.log(x)
    s_fit = lambda x: math.log(x)
    scan = [2.0**n for n in range(2, 30)]
    found = crossover("HHL", kappa_fit, s_fit, scan)
    assert found is not None
    # With linear kappa the ratio only decays; no crossover anywhere.
    assert crossover("HHL", lambda x: x, lambda _: 1.0, scan) is None


def test_overflowing_runtime_counts_as_infinite():
    # an exponential κ(N) fit reaches 1.5·e^700 inside the crossover scan,
    # where HHL's κ³ is past the float range
    from nlsp.fitting import FitResult
    from nlsp.survey import CROSSOVER_SCAN

    kappa = FitResult("exponential", 0, (0.0, 0.2, 1.5), 0.0, 0.0, 5, "kappa").predict
    s_fit = FitResult("constant", 0, (3.0,), 0.0, 0.0, 5, "sparsity").predict
    assert get_solver("HHL").runtime(1e12, kappa(1e12), 3.0) == math.inf
    assert ratio_R("HHL", 1e12, kappa, s_fit) == 0.0
    assert crossover("HHL", kappa, s_fit, CROSSOVER_SCAN) is None
    assert crossover("CKS(1)", kappa, s_fit, CROSSOVER_SCAN) is None
    assert crossover("DREAM", kappa, s_fit, CROSSOVER_SCAN) == 4.0
    # the baseline's runtime overflows too: no ratio, and no crossover
    assert math.isnan(ratio_R("HHL", 1e12, kappa, kappa))


def test_ratio_class_table_examples():
    # Hypercube: kappa=n, s=n, N=2^n.
    r = ratio_class("HHL", EXP2, N1, N1)
    assert r == EXP2 * LOG(1) * GrowthClass.poly(Fraction(-11, 2))
    # Modified Margulis-Gabber-Galil: kappa=log^2, s=c, N=n^2.
    r = ratio_class("HHL", GrowthClass.poly(2), LOG(2), CONST)
    assert r == GrowthClass.poly(2) * GrowthClass.loglog_power(1) * LOG(-7)
    # Balanced binary tree: kappa=2^n, s=c, N=2^n; ratio log(n)/(n^2 2^(3n/2)).
    r = ratio_class("HHL", EXP2, EXP2, CONST)
    assert r == LOG(1) * GrowthClass.poly(-2) * GrowthClass.exponential(2, Fraction(-3, 2))
    assert r.exp_sign() == -1


def test_classify_categories():
    hyper = ratio_class("HHL", EXP2, N1, N1)
    t_hhl = SOLVERS["HHL"].runtime_class(EXP2, N1, N1)
    v = classify(hyper, t_hhl, solver="HHL")
    assert v.category == "best" and not v.futile
    assert t_hhl == GrowthClass.poly(7)

    # grid_2d_square under CKS(1): exponential ratio but exponential runtime.
    kappa = GrowthClass.exponential(4)
    t_cks = SOLVERS["CKS(1)"].runtime_class(GrowthClass.exponential(4), kappa, CONST)
    r = ratio_class("CKS(1)", GrowthClass.exponential(4), kappa, CONST)
    v = classify(r, t_cks)
    assert v.category == "best" and v.futile

    # grid_2d under HHL: n ll(n)/log^(19/2) -> good.
    r = ratio_class("HHL", N1, LOG(3), CONST)
    assert r == N1 * GrowthClass.loglog_power(1) * LOG(Fraction(-19, 2))
    assert classify(r, SOLVERS["HHL"].runtime_class(N1, LOG(3), CONST)).category == "good"

    # Bounded and decreasing ratios are bad.
    assert classify(CONST, CONST).category == "bad"
    assert classify(LOG(-2), CONST).category == "bad"
    assert classify(LOG(2), CONST).category == "good"


def test_classify_theta_n_boundary():
    # Ratio exactly Theta(n) and slight variations around the line.
    assert classify(N1, CONST).category == "better"
    assert classify(N1 * GrowthClass.loglog_power(1), CONST).category == "better"
    assert classify(N1 * LOG(1) * GrowthClass.loglog_power(-3), CONST).category == "better"
    assert classify(N1 * GrowthClass.loglog_power(-1), CONST).category == "good"
    assert classify(N1 * LOG(-1), CONST).category == "good"
    assert classify(GrowthClass.poly(Fraction(3, 2)), CONST).category == "better"


def test_kappa_monotonicity_never_improves():
    kappa_ladder = [
        CONST,
        LOG(1),
        LOG(3),
        GrowthClass.poly(Fraction(1, 2)),
        N1,
        GrowthClass.poly(2),
        EXP2,
    ]
    sizes = [N1, GrowthClass.poly(2), EXP2]
    sparsities = [CONST, LOG(3), N1]
    for size in sizes:
        for s in sparsities:
            for name in SOLVERS:
                cats = []
                for kap in kappa_ladder:
                    v = evaluate_advantage(name, size, kap, s)
                    cats.append(CATEGORY_ORDER.index(v.category))
                assert cats == sorted(cats, reverse=True) or all(
                    a >= b for a, b in zip(cats, cats[1:])
                )


def test_evaluate_advantage_wrapper():
    v = evaluate_advantage("DREAM", EXP2, N1, N1)
    assert v.solver == "DREAM"
    assert v.category == "best"
    assert v.crossover_N is None
