"""Runtime models for the classical baseline and the quantum linear solvers.

Every model fixes the precision by substituting 1/eps = log(system size), uses
natural logarithms, and sets all prefactors to 1.  Each model is one formula
cost(N, kappa, s, op), where ``op`` supplies ``log`` and ``sqrt``: evaluated
on floats it is the runtime t(N, kappa, s); evaluated on growth classes in
the family index n (size, kappa and s growths already composed into the n
domain) it is the runtime's growth class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .growth import GrowthClass


class Ops(NamedTuple):
    """The operations a runtime formula applies beyond * and integer powers."""

    log: Callable[[Any], Any]
    sqrt: Callable[[Any], Any]


# math.sqrt, not ** 0.5: sqrt is correctly rounded, pow need not be.
_FLOAT_OPS = Ops(math.log, math.sqrt)
_CLASS_OPS = Ops(GrowthClass.log_class, lambda c: c ** Fraction(1, 2))

Cost = Callable[[Any, Any, Any, Ops], Any]
Fit = Callable[[float], float]  # a fitted kappa(N) or s(N)


@dataclass(frozen=True)
class SolverModel:
    name: str
    cost: Cost

    def runtime(self, n_size: float, kappa: float, s: float) -> float:
        if n_size < 3:
            raise ValueError("runtime model needs system size >= 3 so loglog > 0")
        if kappa < 1 or s < 1:
            raise ValueError("kappa and s must be >= 1")
        try:
            return self.cost(float(n_size), float(kappa), float(s), _FLOAT_OPS)
        except OverflowError:  # a float power past the float range; a product gives inf
            return math.inf

    def runtime_class(
        self, size: GrowthClass, kappa: GrowthClass, s: GrowthClass
    ) -> GrowthClass:
        return self.cost(size, kappa, s, _CLASS_OPS)


def _hhl_vtaa(n, k, s, op: Ops):
    log_n = op.log(n)
    return log_n**4 * s**2 * k * op.log(k * log_n) ** 3 * op.log(log_n) ** 2


def _cks(order: int) -> Cost:
    """CKS(order), the Childs-Kothari-Somma solver; AQC(order) shares it."""

    def cost(n, k, s, op: Ops):
        log_n = op.log(n)
        return log_n * s * k * op.log(s * k * log_n) ** order

    return cost


CLS = SolverModel("CLS", lambda n, k, s, op: n * s * op.sqrt(k) * op.log(op.log(n)))

SOLVERS: dict[str, SolverModel] = {
    model.name: model
    for model in (
        SolverModel("HHL", lambda n, k, s, op: op.log(n) ** 2 * s**2 * k**3),
        SolverModel("HHL_AA", lambda n, k, s, op: op.log(n) ** 2 * s**2 * k**2),
        SolverModel("HHL_VTAA", _hhl_vtaa),
        SolverModel("PSI_HHL", lambda n, k, s, op: op.log(n) ** 2 * s**2 * k),
        SolverModel("PHASE_RAND", lambda n, k, s, op: op.log(n) ** 2 * s * k * op.log(k)),
        SolverModel(
            "DREAM", lambda n, k, s, op: op.log(n) * op.sqrt(s) * k * op.log(op.log(n))
        ),
    )
}
for _k in (1, 2, 3):
    for _name in (f"CKS({_k})", f"AQC({_k})"):
        SOLVERS[_name] = SolverModel(_name, _cks(_k))


def get_solver(name: str) -> SolverModel:
    """Look up a quantum solver by name; accepts CKS1/cks(1) style variants."""
    key = name.strip().upper().replace("-", "_")
    if key in SOLVERS:
        return SOLVERS[key]
    for k in (1, 2, 3):
        if key in (f"CKS{k}", f"AQC{k}"):
            return SOLVERS[f"{key[:3]}({k})"]
    raise KeyError(f"unknown solver {name!r}; choices: {', '.join(SOLVERS)}")


def runtime(solver: str, n_size: float, kappa: float, s: float) -> float:
    model = CLS if solver.upper() == "CLS" else get_solver(solver)
    return model.runtime(n_size, kappa, s)


def ratio_R(solver: str, n_size: float, kappa_fit: Fit, s_fit: Fit) -> float:
    """Numeric runtime ratio t_CLS / t_solver at system size N.

    kappa_fit and s_fit give the fitted kappa(N) and s(N), as
    FitResult.predict does.  A fit extrapolated past its data can dip below
    the physical floor kappa, s >= 1; it is clamped there.  A zero solver
    runtime (phase randomisation at kappa exactly 1) yields +inf.  A runtime
    past the float range counts as +inf, so the ratio is 0.0 when only the
    solver's overflows, +inf when only the baseline's does, and NaN (never
    a crossover) when both do.
    """
    kappa = max(1.0, kappa_fit(n_size))
    s = max(1.0, s_fit(n_size))
    t_cls = CLS.runtime(n_size, kappa, s)
    t_q = get_solver(solver).runtime(n_size, kappa, s)
    return math.inf if t_q == 0.0 else t_cls / t_q


def crossover(solver: str, kappa_fit: Fit, s_fit: Fit, scan: Iterable[float]) -> Optional[float]:
    """Smallest scanned N with ratio_R >= 1, or None."""
    for n_size in scan:
        if ratio_R(solver, n_size, kappa_fit, s_fit) >= 1.0:
            return n_size
    return None


def crossover_index(ratio: GrowthClass, ns: Iterable[int]) -> Optional[int]:
    """Smallest n in ns where the prefactor-free ratio class evaluates >= 1."""
    for n in ns:
        if ratio.evaluate(n) >= 1.0:
            return n
    return None


def ratio_class(
    solver: str, size_growth: GrowthClass, kappa_growth: GrowthClass, s_growth: GrowthClass
) -> GrowthClass:
    """Symbolic prefactor-free ratio t_CLS / t_solver in the family index n."""
    return evaluate_advantage(solver, size_growth, kappa_growth, s_growth).ratio_class


def kmp_reference_ratio(n: int) -> float:
    """Prefactor-free ratio t_KMP / t_HHL for the synthetic family with
    N = 2^n and kappa = s = log N, where the Laplacian-specialized classical
    baseline runs in M log^2(N) log(1/eps) (M ~ N best case) with the inner
    factor kept explicit: 2^n log(n) log(2^n n^2 log n) / n^5."""
    if n < 3:
        raise ValueError("needs n >= 3")
    return 2**n * math.log(n) * math.log(2**n * n**2 * math.log(n)) / n**5


CATEGORY_ORDER = ("bad", "good", "better", "best")


@dataclass(frozen=True)
class AdvantageVerdict:
    solver: str
    ratio_class: GrowthClass
    category: str
    futile: bool
    crossover_N: Optional[float] = None

    def as_dict(self) -> dict:
        """The JSON form of the verdict: category, ratio class and futility.
        A caller that scanned for a crossover adds crossover_N itself."""
        return {
            "category": self.category,
            "ratio_class": str(self.ratio_class),
            "futile": self.futile,
        }


def classify(
    ratio: GrowthClass,
    t_solver_class: GrowthClass,
    solver: str = "",
    crossover_N: Optional[float] = None,
) -> AdvantageVerdict:
    """Categorize a runtime-ratio growth class.

    best: ratio grows exponentially.  better: ratio is Omega(n) (degree > 1,
    or degree exactly 1 with a lexicographically nonnegative log/loglog
    tail).  good: unbounded but o(n).  bad: bounded or decreasing.  The
    futile flag marks solvers whose own runtime is exponential.
    """
    sign = ratio.exp_sign()
    if sign > 0:
        category = "best"
    elif sign < 0:
        category = "bad"
    elif ratio.poly_deg > 1 or (
        ratio.poly_deg == 1
        and (ratio.log_deg > 0 or (ratio.log_deg == 0 and ratio.loglog_deg >= 0))
    ):
        category = "better"
    elif ratio.is_unbounded():
        category = "good"
    else:
        category = "bad"
    return AdvantageVerdict(
        solver=solver,
        ratio_class=ratio,
        category=category,
        futile=t_solver_class.exp_sign() > 0,
        crossover_N=crossover_N,
    )


def evaluate_advantage(
    solver: str,
    size_growth: GrowthClass,
    kappa_growth: GrowthClass,
    s_growth: GrowthClass,
    crossover_N: Optional[float] = None,
) -> AdvantageVerdict:
    """Verdict on the symbolic ratio t_CLS / t_solver for a named quantum
    solver; the one place that ratio is formed (``ratio_class`` reads it)."""
    model = get_solver(solver)
    t_q = model.runtime_class(size_growth, kappa_growth, s_growth)
    ratio = CLS.runtime_class(size_growth, kappa_growth, s_growth) / t_q
    return classify(ratio, t_q, solver=model.name, crossover_N=crossover_N)
