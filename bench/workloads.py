"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

Each workload drives ``nlsp`` only through its public API.  ``setup`` imports
the package and builds the inputs (timed as ``setup_s``); ``run_round`` is
the timed region (``wall_s``); ``references`` and ``check`` run after the
timed rounds and compare every output with values computed apart from
``nlsp.graphs`` and ``nlsp.spectral`` (see ``reference.py``).

An operation is one survey instance (family, n) or one simulator call.  It
fails when its output disagrees with the reference.  The operations listed
in ``KNOWN_FAULTS`` fail on every run because of named defects of the
program; their inputs do not depend on the seed.  Any other failure, or a
failed property check, makes the run incorrect.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Relative agreement required of a measured κ.  Both eigensolver paths meet
# it by orders of magnitude on correct output; the known faults miss it by
# more than 25 %.
KAPPA_RTOL = 1e-6
# Bin-exact HHL configs reproduce the pseudo-inverse up to rounding.
EXACT_RTOL = 1e-8
# default_config places eigenvalues between clock bins; at n_r = 10 the
# leakage error stays below 1 % on these inputs (README, "Tolerances").
DEFAULT_CONFIG_RTOL = 2e-2

CLOCK_QUBITS = 10
FIXED_SEED = 19  # inputs of the known-fault operations never vary

_MIRRORED = (
    "shift-invert Lanczos under-reports κ of a dilated incidence system "
    "above the dense limit (mirrored eigenvalues -s_i crowd out s_min)"
)
KNOWN_FAULTS = {
    "gn#fixed:n=1100": _MIRRORED,
    "gnr#fixed:n=1100": _MIRRORED,
    "hypercube:quadratic_rule:n=11": (
        "the absolute 1e-6 eigenvalue cutoff discards λ2 = 7.5e-7 of a "
        "connected graph and reports λ3 as the smallest nonzero eigenvalue"
    ),
}


@dataclass
class Outcome:
    """Per-run verdict: operations attempted and failed, property problems."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, op_id: str, why: str) -> None:
        self.failed.append(f"{op_id}: {why}")
        if op_id not in KNOWN_FAULTS:
            self.problems.append(f"unexpected failure {op_id}: {why}")

    @property
    def correct(self) -> bool:
        return not self.problems


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# survey workloads

@dataclass(frozen=True)
class SurveyOp:
    """One scheduled instance: spec index in the config, n, and its id."""

    spec_index: int
    n: int
    op_id: str


def _label(spec, fixed: bool) -> str:
    label = spec.family_id
    if spec.weight_rule != "unit":
        label += f":{spec.weight_rule}"
    return label + ("#fixed" if fixed else "")


class SurveyWorkload:
    """config -> run_survey -> persisted outputs, checked per instance."""

    def __init__(self, specs: Callable[[int], list], dense_limit: Optional[int],
                 property_checks: Callable):
        self._specs = specs
        self.dense_limit = dense_limit
        self._property_checks = property_checks

    def setup(self, seed: int) -> dict:
        import nlsp

        pairs = self._specs(seed)
        specs = tuple(nlsp.make_spec(fam, **kw) for fam, kw, _ in pairs)
        ops = [
            SurveyOp(i, n, f"{_label(spec, fixed)}:n={n}")
            for i, (spec, (_, _, fixed)) in enumerate(zip(specs, pairs))
            for n in spec.schedule
        ]
        if len({op.op_id for op in ops}) != len(ops):
            raise ValueError("operation ids must be unique")
        return {"specs": specs, "ops": ops}

    def run_round(self, inputs: dict, out_dir: Path) -> dict:
        """The timed region.  Returns the compact outputs to check later."""
        import nlsp

        start, cpu = time.perf_counter(), time.process_time()
        config = nlsp.SurveyConfig(
            families=inputs["specs"], dense_limit=self.dense_limit, output_dir=str(out_dir)
        )
        result = nlsp.run_survey(config)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "summary": summarize_survey(result, inputs["ops"], out_dir),
        }

    def references(self, inputs: dict) -> dict:
        import nlsp
        import reference

        refs = {}
        for op in inputs["ops"]:
            spec = inputs["specs"][op.spec_index]
            closed = reference.CLOSED_FORMS.get(spec.family_id)
            if closed is not None and spec.weight_rule == "unit":
                refs[op.op_id] = closed(op.n)
                continue
            graph = nlsp.generate(spec, op.n).graph
            u, v, w = reference.edge_arrays(graph.edges)
            if spec.matrix_kind == "laplacian":
                refs[op.op_id] = reference.laplacian_reference(graph.n_vertices, u, v, w)
            else:
                refs[op.op_id] = reference.incidence_reference(graph.n_vertices, u, v)
        return refs

    def check(self, inputs: dict, refs: dict, rounds: list[dict], outcome: Outcome) -> None:
        for rnd in rounds:
            summary = rnd["summary"]
            for op in inputs["ops"]:
                outcome.attempted += 1
                got = summary["records"].get(op.op_id)
                if isinstance(got, str):
                    outcome.fail(op.op_id, got)
                    continue
                want = refs[op.op_id]
                if got[0] != want.system_size or got[2] != want.sparsity:
                    outcome.fail(op.op_id, f"(N, s) = {got[0], got[2]}, expected "
                                           f"{want.system_size, want.sparsity}")
                elif rel_err(got[1], want.kappa) > KAPPA_RTOL:
                    outcome.fail(op.op_id, f"κ = {got[1]:.6g}, reference {want.kappa:.6g}")
            outcome.problems.extend(summary["problems"])
            outcome.problems.extend(self._property_checks(summary))


def summarize_survey(result, ops: list[SurveyOp], out_dir: Path) -> dict:
    """Per-operation (N, κ, s) or error text, the facts the property checks
    need, and whether the persisted records match the in-memory result."""
    outcomes = result.outcomes
    records: dict[str, object] = {}
    problems: list[str] = []
    for op in ops:
        outcome = outcomes[op.spec_index]
        rec = dict(outcome.records).get(op.n)
        if rec is not None:
            records[op.op_id] = (rec.system_size, rec.kappa, rec.sparsity)
        else:
            errors = dict(outcome.errors)
            records[op.op_id] = f"no record ({errors.get(op.n, 'missing')})"
    persisted = {}
    with open(out_dir / "records.csv", newline="") as f:
        for row in csv.DictReader(f):
            persisted[(row["family"], int(row["n"]))] = row["kappa"]
    in_memory = {
        (o.key, n): repr(rec.kappa) for o in outcomes for n, rec in o.records
    }
    if persisted != in_memory:
        problems.append("records.csv does not match the in-memory records")
    for name in ("report.json", "manifest.json"):
        if not (out_dir / name).is_file():
            problems.append(f"{name} was not written")
    facts = {
        o.key: {
            "kappa_model": o.kappa_fit.model if o.kappa_fit else None,
            "verdicts": {k: v.category for k, v in o.verdicts.items()},
        }
        for o in outcomes
    }
    return {"records": records, "facts": facts, "problems": problems}


def _dense_specs(seed: int) -> list:
    sizes = (100, 200, 300, 400)
    return [
        ("complete", {"schedule": sizes}, False),
        ("turan", {"schedule": sizes}, False),
        ("gnp", {"schedule": sizes, "seed": seed}, False),
    ]


def _dense_properties(summary: dict) -> list[str]:
    model = summary["facts"]["complete"]["kappa_model"]
    if model != "constant":
        return [f"complete: κ fit is {model!r}, expected 'constant' (κ = 1)"]
    return []


# Orders above 2048 take shift-invert Lanczos, the rest the dense path.  The
# quadratic-rule hypercube n=11 has order 2048 exactly, so its cutoff defect
# shows on the dense path in under a second.
SPARSE_DENSE_LIMIT = 2048


def _sparse_specs(seed: int) -> list:
    """(family, make_spec keywords, is a fixed-seed known-fault input)."""
    return [
        ("hypercube", {"schedule": range(2, 11)}, False),
        ("hypercube", {"schedule": (8, 9, 10, 11), "weight_rule": "quadratic_rule"}, False),
        ("grid_2d", {"schedule": (3, 4, 5, 21, 22)}, False),
        ("modified_mgg", {"schedule": (10, 14, 18, 22, 46, 47)}, False),
        ("barabasi_albert", {"schedule": (100, 200, 300, 400, 2100, 2200), "seed": seed}, False),
        ("gn", {"schedule": (50, 100, 150, 200, 250), "seed": seed}, False),
        ("gn", {"schedule": (1100,), "seed": FIXED_SEED}, True),
        ("gnr", {"schedule": (50, 100, 150, 200, 250), "seed": seed}, False),
        ("gnr", {"schedule": (1100,), "seed": FIXED_SEED}, True),
        ("gnc", {"schedule": (20, 40, 60, 80), "seed": seed}, False),
        ("directed_hypercube", {"schedule": range(2, 8)}, False),
    ]


def _sparse_properties(summary: dict) -> list[str]:
    verdict = summary["facts"]["hypercube"]["verdicts"].get("HHL")
    if verdict != "best":
        return [f"hypercube: HHL verdict {verdict!r}, expected 'best'"]
    return []


# ---------------------------------------------------------------------------
# HHL simulator workload

@dataclass(frozen=True)
class HhlCall:
    """One simulator call.  ``cfg`` None means the program's default_config."""

    op_id: str
    kind: str  # "reff" or "flow"
    graph: object
    args: tuple
    cfg: object


def exact_bin_config(lam_min: float, lam_bound: float, signed: bool):
    """Config whose clock bins hold every eigenvalue of an integer spectrum.

    t = 2π / 2^p maps eigenvalue λ to λ / 2^p, a multiple of 2^-n_r when λ is
    an integer and p <= n_r.  p is the least power keeping every scaled
    eigenvalue inside the clock window, (-1/2, 1/2) when signed, else [0, 1).
    """
    import nlsp

    window = 2.0 * lam_bound if signed else lam_bound
    p = 0
    while 2**p <= window:
        p += 1
    if p > CLOCK_QUBITS:
        raise ValueError("spectrum too wide for a bin-exact clock")
    return nlsp.HhlConfig(n_r=CLOCK_QUBITS, t=2 * math.pi / 2**p, C=lam_min / 2**p)


class HhlWorkload:
    """effective_resistance and traffic_flow through the statevector HHL."""

    def setup(self, seed: int) -> dict:
        import nlsp
        import numpy as np

        rng = np.random.default_rng(seed)

        def gen(family, n, **kw):
            return nlsp.generate(nlsp.make_spec(family, schedule=(n,), **kw), n).graph

        def pair(n_vertices):
            i, j = rng.choice(n_vertices, size=2, replace=False)
            return int(i), int(j)

        calls: list[HhlCall] = []
        # Integer Laplacian spectra: (graph, smallest nonzero eigenvalue,
        # padding fill = Gershgorin bound 2 * max degree).
        integral = {
            "hypercube-8": (gen("hypercube", 8), 2, 16),
            "hypercube-9": (gen("hypercube", 9), 2, 18),
            "hypercube-10": (gen("hypercube", 10), 2, 20),
            "complete-200": (gen("complete", 200), 200, 398),
            "turan-300": (gen("turan", 300), 150, 300),
        }
        for key, (g, lam_min, bound) in integral.items():
            cfg = exact_bin_config(lam_min, bound, signed=False)
            calls.append(HhlCall(f"reff-exact:{key}", "reff", g, pair(g.n_vertices), cfg))
        default_reff = {
            "hypercube-8": integral["hypercube-8"][0],
            "hypercube-10": integral["hypercube-10"][0],
            "complete-200": integral["complete-200"][0],
            "turan-300": integral["turan-300"][0],
            "barabasi_albert-300": gen("barabasi_albert", 300, seed=seed),
            "gnp-200": gen("gnp", 200, seed=seed),
        }
        for key, g in default_reff.items():
            calls.append(HhlCall(f"reff-default:{key}", "reff", g, pair(g.n_vertices), None))
        # Directed stars center -> leaf: σ(B) = 1 and sqrt(m + 1), an integer
        # for these m; the dilation's padding fill is m.  Orders 256..1024.
        for m in (120, 255, 483):
            g = nlsp.Graph.from_edges(m + 1, [(0, k) for k in range(1, m + 1)], directed=True)
            cfg = exact_bin_config(1.0, float(m), signed=True)
            calls.append(HhlCall(f"flow-exact:star-{m}", "flow", g, pair(m + 1), cfg))
        for d in (6, 7):
            g = gen("directed_hypercube", d)
            calls.append(HhlCall(f"flow-default:directed_hypercube-{d}", "flow", g,
                                 pair(g.n_vertices), None))
        return {"calls": calls}

    def run_round(self, inputs: dict, out_dir: Path) -> dict:
        import nlsp
        import numpy as np

        start = time.perf_counter()
        results = {}
        for call in inputs["calls"]:
            try:
                if call.kind == "reff":
                    i, j = call.args
                    results[call.op_id] = nlsp.effective_resistance(
                        call.graph, i, j, method="hhl", cfg=call.cfg
                    )
                else:
                    results[call.op_id] = np.asarray(nlsp.traffic_flow(
                        call.graph, _demand(call), method="hhl", cfg=call.cfg
                    ).flow)
            except Exception as exc:  # one failed operation, not a failed run
                results[call.op_id] = f"raised {type(exc).__name__}: {exc}"
        return {"wall_s": time.perf_counter() - start, "results": results}

    def references(self, inputs: dict) -> dict:
        import reference

        refs = {}
        for call in inputs["calls"]:
            g = call.graph
            u, v, w = reference.edge_arrays(g.edges)
            if call.kind == "reff":
                refs[call.op_id] = reference.resistance(g.n_vertices, u, v, w, *call.args)
            else:
                c = _demand(call)
                refs[call.op_id] = (
                    reference.incidence_dense(g.n_vertices, u, v),
                    c,
                    reference.min_norm_flow(g.n_vertices, u, v, c),
                )
        return refs

    def check(self, inputs: dict, refs: dict, rounds: list[dict], outcome: Outcome) -> None:
        import numpy as np

        for rnd in rounds:
            for call in inputs["calls"]:
                outcome.attempted += 1
                tol = EXACT_RTOL if call.cfg is not None else DEFAULT_CONFIG_RTOL
                got = rnd["results"][call.op_id]
                if isinstance(got, str):
                    outcome.fail(call.op_id, got)
                    continue
                if call.kind == "reff":
                    err = rel_err(got, refs[call.op_id])
                    if err > tol:
                        outcome.fail(call.op_id, f"resistance off by {err:.2e} (tolerance {tol:g})")
                    continue
                b, c, y_ref = refs[call.op_id]
                balance = float(np.linalg.norm(b @ got - c) / np.linalg.norm(c))
                err = float(np.linalg.norm(got - y_ref) / np.linalg.norm(y_ref))
                if balance > tol or err > tol:
                    outcome.fail(call.op_id, f"flow: ‖By - c‖/‖c‖ = {balance:.2e}, "
                                             f"error vs min-norm flow {err:.2e} (tolerance {tol:g})")


def _demand(call: HhlCall):
    """c = -δ_source + δ_sink, the incidence-row convention of traffic_flow."""
    import numpy as np

    c = np.zeros(call.graph.n_vertices)
    source, sink = call.args
    c[source], c[sink] = -1.0, 1.0
    return c


WORKLOADS = {
    "survey-dense": SurveyWorkload(_dense_specs, None, _dense_properties),
    "survey-sparse": SurveyWorkload(_sparse_specs, SPARSE_DENSE_LIMIT, _sparse_properties),
    "hhl-sim": HhlWorkload(),
}
