import math
from fractions import Fraction

import pytest

from nlsp.growth import CompositionError, GrowthClass, compose


def test_constant_identity():
    one = GrowthClass.constant()
    assert one.compare(GrowthClass.constant()) == 0
    assert not one.is_unbounded()
    assert str(one) == "1"


def test_multiplication_merges_bases():
    a = GrowthClass.exponential(2) * GrowthClass.exponential(2, Fraction(1, 2))
    assert a.exp_factors == ((2, Fraction(3, 2)),)
    b = a * GrowthClass.exponential(2, Fraction(-3, 2))
    assert b.exp_factors == ()


def test_exact_exponential_comparison():
    # 4^(3n/2) == 8^n exactly, via integer power comparison.
    a = GrowthClass.exponential(4, Fraction(3, 2))
    b = GrowthClass.exponential(8)
    assert a.compare(b) == 0
    # 2^n beats any polynomial times a slightly smaller exponential.
    c = GrowthClass.exponential(2) * GrowthClass.poly(-100)
    d = GrowthClass.exponential(2, Fraction(99, 100))
    assert c.compare(d) == 1
    # 3^n / 9^(n/2) cancels exactly; remaining poly part decides.
    e = GrowthClass.exponential(3) * GrowthClass.poly(2)
    f = GrowthClass.exponential(9, Fraction(1, 2)) * GrowthClass.poly(3)
    assert e.compare(f) == -1


def test_lexicographic_ordering():
    n = GrowthClass.poly(1)
    logn = GrowthClass.log_power(1)
    lln = GrowthClass.loglog_power(1)
    assert n.compare(logn) == 1
    assert logn.compare(lln) == 1
    assert lln.compare(GrowthClass.constant()) == 1
    assert (n * logn ** -3).compare(n) == -1
    assert (n * lln).compare(n * logn) == -1


def test_division_and_powers():
    r = (GrowthClass.poly(2) * GrowthClass.log_power(3)) / GrowthClass.poly(Fraction(1, 2))
    assert r.poly_deg == Fraction(3, 2)
    assert r.log_deg == 3
    half = GrowthClass.poly(3) ** Fraction(1, 2)
    assert half.poly_deg == Fraction(3, 2)


def test_log_class_rules():
    assert GrowthClass.exponential(2).log_class() == GrowthClass.poly(1)
    assert (GrowthClass.exponential(2) * GrowthClass.poly(1)).log_class() == GrowthClass.poly(1)
    assert GrowthClass.poly(4).log_class() == GrowthClass.log_power(1)
    assert GrowthClass.log_power(3).log_class() == GrowthClass.loglog_power(1)
    assert GrowthClass.constant().log_class() == GrowthClass.constant()
    assert GrowthClass.poly(2).loglog_class() == GrowthClass.loglog_power(1)
    with pytest.raises(ValueError):
        GrowthClass.exponential(2, -1).log_class()
    with pytest.raises(ValueError):
        GrowthClass.poly(-1).log_class()
    with pytest.raises(ValueError):
        GrowthClass.loglog_power(1).log_class()


def test_float_rate_sign():
    g = GrowthClass.from_rate(0.2) * GrowthClass.exponential(2, Fraction(-1, 2))
    # 0.2 - ln(2)/2 < 0
    assert g.exp_sign() == -1
    h = GrowthClass.from_rate(0.5) * GrowthClass.exponential(2, Fraction(-1, 2))
    assert h.exp_sign() == 1


def test_evaluate_matches_formula():
    g = GrowthClass.exponential(2) * GrowthClass.log_power(1) * GrowthClass.poly(Fraction(-11, 2))
    n = 24
    expected = 2**n * math.log(n) / n**5.5
    assert g.evaluate(n) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        g.evaluate(2)


def test_compose_fit_shapes():
    two_n = GrowthClass.exponential(2)
    assert compose(GrowthClass.constant(), two_n) == GrowthClass.constant()
    assert compose(GrowthClass.log_power(2), two_n) == GrowthClass.poly(2)
    assert compose(GrowthClass.log_power(2), GrowthClass.poly(2)) == GrowthClass.log_power(2)
    assert compose(GrowthClass.poly(3), GrowthClass.poly(1)) == GrowthClass.poly(3)
    assert compose(GrowthClass.poly(2), two_n) == GrowthClass.exponential(2, 2)
    # loglog(N') for N' = n 2^n is log n.
    n_two_n = two_n * GrowthClass.poly(1)
    assert compose(GrowthClass.log_power(2), n_two_n) == GrowthClass.poly(2)
    assert n_two_n.loglog_class() == GrowthClass.log_power(1)
    rate = compose(GrowthClass.from_rate(0.3), GrowthClass.poly(1))
    assert rate.exp_rate == 0.3
    with pytest.raises(CompositionError):
        compose(GrowthClass.from_rate(0.3), two_n)
    with pytest.raises(CompositionError):
        compose(GrowthClass.poly(1), GrowthClass.constant())


def test_str_forms():
    g = GrowthClass.exponential(2) * GrowthClass.poly(Fraction(3, 2)) * GrowthClass.log_power(1)
    assert str(g) == "2^n * n^(3/2) * log(n)"
