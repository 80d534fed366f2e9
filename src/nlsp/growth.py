"""Exact asymptotic growth classes of the form Theta(e^(a*n) * n^d * log^l(n) * (loglog n)^m).

A :class:`GrowthClass` records the leading-order shape of a positive sequence,
with multiplicative prefactors dropped.  Exponential content is kept in exact
form as integer bases raised to rational multiples of n (so ``4^(3n/2)`` and
``8^n`` compare exactly), plus an optional float rate for exponentials that
come out of numerical fits.  Degrees are `fractions.Fraction`, so ordering and
classification never go through floating point unless a float rate is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GrowthClass:
    """Leading-order growth shape in one integer variable n.

    Attributes
    ----------
    exp_factors : tuple of (base, coeff)
        Exact exponential part prod(base ** (coeff * n)) with integer bases
        >= 2 and nonzero rational coefficients, sorted by base.
    exp_rate : float
        Additional e-base rate (exp(exp_rate * n)); nonzero only for classes
        derived from fitted exponentials, where the rate is approximate.
    poly_deg, log_deg, loglog_deg : Fraction
        Rational degrees of n, log n and loglog n.
    """

    exp_factors: tuple[tuple[int, Fraction], ...] = ()
    exp_rate: float = 0.0
    poly_deg: Fraction = field(default_factory=Fraction)
    log_deg: Fraction = field(default_factory=Fraction)
    loglog_deg: Fraction = field(default_factory=Fraction)

    def __post_init__(self) -> None:
        merged: dict[int, Fraction] = {}
        for base, coeff in self.exp_factors:
            if not isinstance(base, int) or base < 2:
                raise ValueError(f"exponential base must be an integer >= 2, got {base!r}")
            c = _frac(coeff)
            if c != 0:
                merged[base] = merged.get(base, Fraction(0)) + c
        cleaned = tuple(sorted((b, c) for b, c in merged.items() if c != 0))
        object.__setattr__(self, "exp_factors", cleaned)
        object.__setattr__(self, "poly_deg", _frac(self.poly_deg))
        object.__setattr__(self, "log_deg", _frac(self.log_deg))
        object.__setattr__(self, "loglog_deg", _frac(self.loglog_deg))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant() -> "GrowthClass":
        return GrowthClass()

    @staticmethod
    def poly(d: Rational) -> "GrowthClass":
        return GrowthClass(poly_deg=_frac(d))

    @staticmethod
    def log_power(l: Rational) -> "GrowthClass":
        return GrowthClass(log_deg=_frac(l))

    @staticmethod
    def loglog_power(m: Rational) -> "GrowthClass":
        return GrowthClass(loglog_deg=_frac(m))

    @staticmethod
    def exponential(base: int, coeff: Rational = 1) -> "GrowthClass":
        return GrowthClass(exp_factors=((base, _frac(coeff)),))

    @staticmethod
    def from_rate(rate: float) -> "GrowthClass":
        return GrowthClass(exp_rate=float(rate))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "GrowthClass") -> "GrowthClass":
        return GrowthClass(
            exp_factors=self.exp_factors + other.exp_factors,
            exp_rate=self.exp_rate + other.exp_rate,
            poly_deg=self.poly_deg + other.poly_deg,
            log_deg=self.log_deg + other.log_deg,
            loglog_deg=self.loglog_deg + other.loglog_deg,
        )

    def __truediv__(self, other: "GrowthClass") -> "GrowthClass":
        return self * other ** -1

    def __pow__(self, exponent: Rational) -> "GrowthClass":
        e = _frac(exponent)
        return GrowthClass(
            exp_factors=tuple((b, c * e) for b, c in self.exp_factors),
            exp_rate=self.exp_rate * float(e),
            poly_deg=self.poly_deg * e,
            log_deg=self.log_deg * e,
            loglog_deg=self.loglog_deg * e,
        )

    # -- ordering ----------------------------------------------------------

    def exp_sign(self) -> int:
        """Sign of the net exponential rate (exact when no float rate)."""
        if self.exp_rate == 0.0:
            if not self.exp_factors:
                return 0
            # Compare prod(b^(c*L)) against 1 with L clearing denominators;
            # exact in big-integer arithmetic.
            lcm = 1
            for _, c in self.exp_factors:
                lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
            num = den = 1
            for b, c in self.exp_factors:
                k = int(c * lcm)
                if k > 0:
                    num *= b**k
                else:
                    den *= b**-k
            return (num > den) - (num < den)
        total = self.exp_rate + sum(float(c) * math.log(b) for b, c in self.exp_factors)
        return (total > 0.0) - (total < 0.0)

    def compare(self, other: "GrowthClass") -> int:
        """-1, 0 or 1 as self grows slower than, like, or faster than other."""
        ratio = self / other
        s = ratio.exp_sign()
        if s:
            return s
        for deg in (ratio.poly_deg, ratio.log_deg, ratio.loglog_deg):
            if deg:
                return 1 if deg > 0 else -1
        return 0

    def is_unbounded(self) -> bool:
        return self.compare(GrowthClass.constant()) > 0

    # -- operators used by the runtime models ------------------------------

    def log_class(self) -> "GrowthClass":
        """Growth class of log applied to a sequence in this class.

        log(exponential) -> n, log(polynomial) -> log n,
        log(polylog) -> loglog n, log(constant) -> constant.
        """
        s = self.exp_sign()
        if s > 0:
            return GrowthClass.poly(1)
        if s < 0:
            raise ValueError("log of an exponentially vanishing class")
        if self.poly_deg > 0:
            return GrowthClass.log_power(1)
        if self.poly_deg < 0:
            raise ValueError("log of a polynomially vanishing class")
        if self.log_deg > 0:
            return GrowthClass.loglog_power(1)
        if self.log_deg < 0:
            raise ValueError("log of a vanishing class")
        if self.loglog_deg != 0:
            raise ValueError("log of a loglog-only class is not representable")
        return GrowthClass.constant()

    def loglog_class(self) -> "GrowthClass":
        return self.log_class().log_class()

    # -- evaluation --------------------------------------------------------

    def evaluate(self, n: float) -> float:
        """Prefactor-free numeric value at index n (requires n >= 3)."""
        if n < 3:
            raise ValueError("evaluation requires n >= 3 so loglog(n) > 0")
        log_n = math.log(n)
        value = math.exp(self.exp_rate * n) * n ** float(self.poly_deg)
        value *= log_n ** float(self.log_deg)
        value *= math.log(log_n) ** float(self.loglog_deg)
        for b, c in self.exp_factors:
            value *= b ** (float(c) * n)
        return value

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for b, c in self.exp_factors:
            parts.append(f"{b}^n" if c == 1 else f"{b}^({c}n)")
        if self.exp_rate:
            parts.append(f"e^({self.exp_rate:g}n)")
        for deg, sym in ((self.poly_deg, "n"), (self.log_deg, "log(n)"), (self.loglog_deg, "loglog(n)")):
            if deg == 1:
                parts.append(sym)
            elif deg != 0:
                parts.append(f"{sym}^{deg}" if deg.denominator == 1 else f"{sym}^({deg})")
        return " * ".join(parts) if parts else "1"


class CompositionError(ValueError):
    """Raised when a fitted N-domain class cannot be composed with N(n)."""


def compose(outer: GrowthClass, inner: GrowthClass) -> GrowthClass:
    """Class of f(N(n)) for a fit-shaped outer class f and size growth N(n).

    The outer class must be one of the fit model shapes: constant, pure
    polylog, pure polynomial, or pure exponential (float rate).  Exponential
    outer classes compose only with linear size growth; the unknown linear
    coefficient scales the rate but never changes its sign, which is all
    classification uses.
    """
    if inner.compare(GrowthClass.constant()) <= 0:
        raise CompositionError("size growth must be unbounded")
    if outer.exp_factors:
        raise CompositionError("outer class must come from the fit menu")
    if outer.exp_rate:
        if outer.poly_deg or outer.log_deg or outer.loglog_deg:
            raise CompositionError("mixed exponential outer class")
        if inner != GrowthClass.poly(1):
            raise CompositionError("exponential fit composes only with linear size growth")
        return GrowthClass.from_rate(outer.exp_rate)
    if outer.poly_deg:
        if outer.log_deg or outer.loglog_deg:
            raise CompositionError("mixed polynomial outer class")
        return inner**outer.poly_deg
    if outer.log_deg:
        if outer.loglog_deg:
            raise CompositionError("mixed polylog outer class")
        return inner.log_class() ** outer.log_deg
    if outer.loglog_deg:
        return inner.loglog_class() ** outer.loglog_deg
    return GrowthClass.constant()
