"""Runtime models for the classical baseline and the quantum linear solvers.

Every model fixes the precision by substituting 1/eps = log(system size), uses
natural logarithms, and sets all prefactors to 1.  Each solver carries a
numeric evaluator t(N, kappa, s) and a symbolic evaluator over growth classes
in the family index n (size, kappa and s growths already composed into the
n domain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .growth import GrowthClass

Half = Fraction(1, 2)


@dataclass(frozen=True)
class SolverModel:
    name: str
    numeric: Callable[[float, float, float], float]
    symbolic: Callable[[GrowthClass, GrowthClass, GrowthClass], GrowthClass]

    def runtime(self, n_size: float, kappa: float, s: float) -> float:
        if n_size < 3:
            raise ValueError("runtime model needs system size >= 3 so loglog > 0")
        if kappa < 1 or s < 1:
            raise ValueError("kappa and s must be >= 1")
        return self.numeric(float(n_size), float(kappa), float(s))

    def runtime_class(
        self, size: GrowthClass, kappa: GrowthClass, s: GrowthClass
    ) -> GrowthClass:
        return self.symbolic(size, kappa, s)


def _cls_num(n: float, k: float, s: float) -> float:
    return n * s * math.sqrt(k) * math.log(math.log(n))


def _cls_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    return size * s * k**Half * size.loglog_class()


def _hhl_num(n: float, k: float, s: float) -> float:
    return math.log(n) ** 2 * s**2 * k**3


def _hhl_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    return size.log_class() ** 2 * s**2 * k**3


def _hhl_aa_num(n: float, k: float, s: float) -> float:
    return math.log(n) ** 2 * s**2 * k**2


def _hhl_aa_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    return size.log_class() ** 2 * s**2 * k**2


def _vtaa_num(n: float, k: float, s: float) -> float:
    log_n = math.log(n)
    return (
        log_n**4 * s**2 * k * math.log(k * log_n) ** 3 * math.log(log_n) ** 2
    )


def _vtaa_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    log_n = size.log_class()
    return log_n**4 * s**2 * k * (k * log_n).log_class() ** 3 * size.loglog_class() ** 2


def _psi_num(n: float, k: float, s: float) -> float:
    return math.log(n) ** 2 * s**2 * k


def _psi_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    return size.log_class() ** 2 * s**2 * k


def _prm_num(n: float, k: float, s: float) -> float:
    return math.log(n) ** 2 * s * k * math.log(k)


def _prm_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    return size.log_class() ** 2 * s * k * k.log_class()


def _cks_num(order: int) -> Callable[[float, float, float], float]:
    def run(n: float, k: float, s: float) -> float:
        log_n = math.log(n)
        return log_n * s * k * math.log(s * k * log_n) ** order

    return run


def _cks_sym(order: int) -> Callable[[GrowthClass, GrowthClass, GrowthClass], GrowthClass]:
    def run(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
        log_n = size.log_class()
        return log_n * s * k * (s * k * log_n).log_class() ** order

    return run


def _dream_num(n: float, k: float, s: float) -> float:
    return math.log(n) * math.sqrt(s) * k * math.log(math.log(n))


def _dream_sym(size: GrowthClass, k: GrowthClass, s: GrowthClass) -> GrowthClass:
    return size.log_class() * s**Half * k * size.loglog_class()


CLS = SolverModel("CLS", _cls_num, _cls_sym)

SOLVERS: dict[str, SolverModel] = {
    "HHL": SolverModel("HHL", _hhl_num, _hhl_sym),
    "HHL_AA": SolverModel("HHL_AA", _hhl_aa_num, _hhl_aa_sym),
    "HHL_VTAA": SolverModel("HHL_VTAA", _vtaa_num, _vtaa_sym),
    "PSI_HHL": SolverModel("PSI_HHL", _psi_num, _psi_sym),
    "PHASE_RAND": SolverModel("PHASE_RAND", _prm_num, _prm_sym),
    "DREAM": SolverModel("DREAM", _dream_num, _dream_sym),
}
for _k in (1, 2, 3):
    SOLVERS[f"CKS({_k})"] = SolverModel(f"CKS({_k})", _cks_num(_k), _cks_sym(_k))
    SOLVERS[f"AQC({_k})"] = SolverModel(f"AQC({_k})", _cks_num(_k), _cks_sym(_k))


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


def _eval_fit(fit, x: float) -> float:
    return fit.predict(x) if hasattr(fit, "predict") else fit(x)


def ratio_R(solver: str, n_size: float, kappa_fit, s_fit) -> float:
    """Numeric runtime ratio t_CLS / t_solver at system size N.

    kappa_fit and s_fit are FitResults (or any callables) giving the fitted
    kappa(N) and s(N) with coefficients.  A fit extrapolated past its data
    can dip below the physical floor kappa, s >= 1; it is clamped there.  A
    zero solver runtime (phase randomisation at kappa exactly 1) yields +inf.
    """
    kappa = max(1.0, _eval_fit(kappa_fit, n_size))
    s = max(1.0, _eval_fit(s_fit, n_size))
    t_cls = CLS.runtime(n_size, kappa, s)
    t_q = get_solver(solver).runtime(n_size, kappa, s)
    return math.inf if t_q == 0.0 else t_cls / t_q


def crossover(solver: str, kappa_fit, s_fit, scan: Iterable[float]) -> Optional[float]:
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
    t_cls = CLS.runtime_class(size_growth, kappa_growth, s_growth)
    t_q = get_solver(solver).runtime_class(size_growth, kappa_growth, s_growth)
    return t_cls / t_q


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
    """ratio_class + classify in one step for a named quantum solver."""
    model = get_solver(solver)
    t_q = model.runtime_class(size_growth, kappa_growth, s_growth)
    ratio = CLS.runtime_class(size_growth, kappa_growth, s_growth) / t_q
    return classify(ratio, t_q, solver=model.name, crossover_N=crossover_N)
