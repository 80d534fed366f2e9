"""Survey orchestration: run family schedules, persist records, emit reports.

A survey walks a list of family specs, measures every scheduled instance,
fits condition number and sparsity against system size, composes the fits
with the declared size growth, and classifies each configured quantum
solver.  Results are persisted as records.csv (one row per instance),
report.json (fits and verdicts), manifest.json (provenance and timings),
and plot-ready CSV series.  Every view is built from one InstanceResult per
scheduled instance; a failed instance is recorded there, skipped by the
fits, and the run continues.  Instances are measured in forked worker
processes, so generation and eigensolves run in parallel, not one at a time
under the GIL; a worker that dies fails the instances left unmeasured, not
the run.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime
import hashlib
import itertools
import json
import math
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from . import __version__
from .families import FamilySpec, catalog_entry, generate, make_spec
from .fitting import FitResult, fit_series, upper_envelope
from .graphs import system_matrix, whole_number
from .growth import CompositionError, GrowthClass, compose
from .solvers import AdvantageVerdict, crossover, evaluate_advantage, get_solver, ratio_R
from .spectral import SpectralRecord, measure

SCHEMA_VERSION = 1
DEFAULT_SOLVERS = ("HHL", "CKS(1)", "DREAM")
# An instance whose smallest nonzero eigenvalue is at or below this gets a
# note, and records.csv echoes it; it picks no eigenvalue.
FLAG_CUTOFF = 1e-6


def geometric_scan(stop: float = 1e12) -> tuple[float, ...]:
    """System sizes 4, 8, 16, ... up to ``stop``, for numeric crossover scans."""
    if not (math.isfinite(stop) and stop >= 4):
        raise ValueError("need a finite stop >= 4")
    points = []
    x = 4.0
    while x <= stop:
        points.append(x)
        x *= 2
    return tuple(points)


CROSSOVER_SCAN = geometric_scan()


@dataclass(frozen=True)
class SurveyConfig:
    """One survey: which families to run and how to classify them.

    base_seed is provenance for configs loaded from JSON, where it seeds
    every random family that carries no explicit per-family seed; specs
    passed in directly are used as-is.  output_dir None keeps the run
    in memory.  Orders above dense_limit (3000 when None) take Lanczos, and
    so does a sparse G at any order: order above 256, at most order²/16
    entries.  The flag threshold (FLAG_CUTOFF) and the crossover scan
    (CROSSOVER_SCAN) are fixed.
    """

    families: tuple[FamilySpec, ...]
    dense_limit: Optional[int] = None
    solvers: tuple[str, ...] = DEFAULT_SOLVERS
    output_dir: Optional[str] = None
    base_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.solvers, str):  # tuple() would split it into letters
            raise ValueError("solvers must be a list of solver names")
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not self.families:
            raise ValueError("families must be nonempty")
        for spec in self.families:
            if not isinstance(spec, FamilySpec):
                raise ValueError("families must be FamilySpec instances")
        if not self.solvers:
            raise ValueError("solvers must be nonempty")
        for name in self.solvers:
            get_solver(name)  # raises ValueError on unknown names
        for key, low in (("dense_limit", 1), ("base_seed", 0)):
            object.__setattr__(self, key, whole_number(getattr(self, key), key, low, or_none=True))
        if self.output_dir is not None:
            path = Path(self.output_dir)
            path.mkdir(parents=True, exist_ok=True)
            if not os.access(path, os.W_OK):
                raise ValueError(f"output_dir {path} is not writable")

    def family_keys(self) -> tuple[str, ...]:
        """Unique report key per spec, ``id[:rule][#k]``: the family id, the
        weight rule unless unit, and #k on the k-th spec of that id and rule."""
        keys: list[str] = []
        seen: dict[str, int] = {}
        for spec in self.families:
            base = spec.family_id
            if spec.weight_rule != "unit":
                base = f"{base}:{spec.weight_rule}"
            count = seen.get(base, 0) + 1
            seen[base] = count
            keys.append(base if count == 1 else f"{base}#{count}")
        return tuple(keys)


def family_id_of_key(key: str) -> str:
    """The family id of a ``SurveyConfig.family_keys`` key."""
    return key.split("#")[0].split(":")[0]


def config_to_dict(config: SurveyConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dense_limit": config.dense_limit,
        "solvers": list(config.solvers),
        "output_dir": config.output_dir,
        "base_seed": config.base_seed,
        "families": [
            {
                "family": spec.family_id,
                "schedule": list(spec.schedule),
                "seed": spec.seed,
                "params": dict(spec.params),
                "weight_rule": spec.weight_rule,
            }
            for spec in config.families
        ],
    }


_CONFIG_KEYS = ("schema", "dense_limit", "solvers", "output_dir", "base_seed", "families")
_FAMILY_KEYS = ("family", "schedule", "seed", "params", "weight_rule")


def _reject_unknown_keys(doc: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}; allowed: {', '.join(allowed)}")


def config_from_dict(data: Mapping) -> SurveyConfig:
    """Build a validated config from the JSON document format, which holds
    exactly the keys ``config_to_dict`` writes; any other key is an error."""
    if not isinstance(data, Mapping):
        raise ValueError(f"the config must be an object, got {type(data).__name__}")
    _reject_unknown_keys(data, _CONFIG_KEYS, "the config")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {data.get('schema')!r}")
    base_seed = data.get("base_seed")
    specs = []
    for entry in data.get("families", []):
        if not isinstance(entry, Mapping):
            raise ValueError(f"a family entry must be an object, got {entry!r}")
        _reject_unknown_keys(entry, _FAMILY_KEYS, "a family entry")
        if "family" not in entry:
            raise ValueError("family entry missing 'family'")
        seed = entry.get("seed")
        if seed is None and base_seed is not None:
            if catalog_entry(entry["family"]).random:
                seed = base_seed
        specs.append(
            make_spec(
                entry["family"],
                schedule=entry.get("schedule"),
                seed=seed,
                params=entry.get("params"),
                weight_rule=entry.get("weight_rule", "unit"),
            )
        )
    kwargs = {key: data[key] for key in ("dense_limit", "solvers", "output_dir")
              if data.get(key) is not None}
    return SurveyConfig(families=tuple(specs), base_seed=base_seed, **kwargs)


def config_hash(config: SurveyConfig) -> str:
    """sha256 over the canonical config document, output_dir excluded.

    The directory does not influence any computed value, so relocating a
    survey keeps its hash."""
    doc = config_to_dict(config)
    doc.pop("output_dir")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# results

class RecordRow(NamedTuple):
    """One records.csv row."""

    family: str
    n: int
    system_size: int
    matrix_kind: str
    kappa: float
    lambda_min_nz: float
    lambda_max: float
    sparsity: int
    cutoff: float
    seed: Optional[int]


CSV_COLUMNS = RecordRow._fields
# one parser per column; only the seed of a deterministic family is empty
_COLUMN_PARSERS = (
    str, int, int, str, float, float, float, int, float, lambda raw: int(raw) if raw else None,
)


@dataclass(frozen=True)
class SurveyManifest:
    """Run provenance.  manifest.json adds one entry per measured instance
    and one skip per failed instance, both built from the outcomes."""

    config_hash: str
    tool_version: str
    created: str


@dataclass(frozen=True)
class InstanceResult:
    """One scheduled instance: its record, or the error that stopped it.
    seed is the instance's own seed, None for a deterministic family or a
    failed instance; warnings become the family's notes.  A measured
    instance also carries the seconds its generation, assembly and
    measurement took; its record names the eigensolver path and the kernel
    dimension."""

    n: int
    seed: Optional[int]
    record: Optional[SpectralRecord]
    error: Optional[str]
    warnings: tuple[str, ...]
    elapsed_s: float
    generate_s: float = 0.0
    assemble_s: float = 0.0
    measure_s: float = 0.0


@dataclass(frozen=True)
class FamilyOutcome:
    """Everything the survey derived for one family spec: one result per
    scheduled n, the fits, and one verdict per solver (each carrying its
    crossover_N).  fit_notes say why a fit or a verdict is missing."""

    key: str
    spec: FamilySpec
    instances: tuple[InstanceResult, ...]
    kappa_fit: Optional[FitResult]
    s_fit: Optional[FitResult]
    envelope_flagged: bool
    verdicts: Mapping[str, AdvantageVerdict]
    fit_notes: tuple[str, ...]

    @property
    def records(self) -> tuple[tuple[int, SpectralRecord], ...]:
        return tuple((i.n, i.record) for i in self.instances if i.record is not None)

    @property
    def errors(self) -> tuple[tuple[int, str], ...]:
        return tuple((i.n, i.error) for i in self.instances if i.error is not None)

    @property
    def notes(self) -> tuple[str, ...]:
        warned = tuple(f"n={i.n}: {w}" for i in self.instances for w in i.warnings)
        return warned + self.fit_notes


@dataclass(frozen=True)
class SurveyResult:
    config: SurveyConfig
    outcomes: tuple[FamilyOutcome, ...]
    manifest: SurveyManifest

    def record_rows(self) -> list[RecordRow]:
        return [row for outcome in self.outcomes for row in self._rows(outcome)]

    def _rows(self, outcome: FamilyOutcome) -> list[RecordRow]:
        return [
            RecordRow(
                family=outcome.key,
                n=i.n,
                system_size=i.record.system_size,
                matrix_kind=i.record.matrix_kind,
                kappa=i.record.kappa,
                lambda_min_nz=i.record.lambda_min_nz,
                lambda_max=i.record.lambda_max,
                sparsity=i.record.sparsity,
                cutoff=FLAG_CUTOFF,
                seed=i.seed,
            )
            for i in outcome.instances
            if i.record is not None
        ]

    def manifest_dict(self) -> dict:
        """manifest.json: an entry per measured instance and a skip per
        failed one, in (family, n) order."""
        pairs = [(o.key, i) for o in self.outcomes for i in o.instances]
        entries = [
            {"family": key, "n": i.n, "seed": i.seed, "system_size": i.record.system_size,
             "eigensolver": i.record.eigensolver, "kernel": i.record.kernel,
             "generate_s": round(i.generate_s, 6), "assemble_s": round(i.assemble_s, 6),
             "measure_s": round(i.measure_s, 6), "elapsed_s": round(i.elapsed_s, 6)}
            for key, i in pairs if i.record is not None
        ]
        skipped = [
            {"family": key, "n": i.n, "error": i.error} for key, i in pairs if i.error is not None
        ]
        return {**dataclasses.asdict(self.manifest), "entries": entries, "skipped": skipped}

    def report_dict(self) -> dict:
        """Fits and verdicts keyed by family; a verdict never appears
        without its records and both fits."""
        families = {}
        for outcome in self.outcomes:
            block: dict = {
                "family": outcome.spec.family_id,
                "matrix_kind": outcome.spec.matrix_kind,
                "weight_rule": outcome.spec.weight_rule,
                "size_growth": str(outcome.spec.size_growth),
                "records": [
                    {k: v for k, v in row._asdict().items() if k not in ("family", "matrix_kind")}
                    for row in self._rows(outcome)
                ],
                "errors": [{"n": n, "error": msg} for n, msg in outcome.errors],
                "notes": list(outcome.notes),
            }
            if outcome.kappa_fit is not None and outcome.s_fit is not None:
                block["kappa_fit"] = fit_to_dict(outcome.kappa_fit)
                block["s_fit"] = fit_to_dict(outcome.s_fit)
                block["envelope_flagged"] = outcome.envelope_flagged
                if outcome.verdicts:
                    block["verdicts"] = {
                        name: {**v.as_dict(), "crossover_N": v.crossover_N}
                        for name, v in outcome.verdicts.items()
                    }
            families[outcome.key] = block
        return {
            "schema": SCHEMA_VERSION,
            "config_hash": self.manifest.config_hash,
            "solvers": list(self.config.solvers),
            "families": families,
        }


def fit_to_dict(fit: FitResult) -> dict:
    return {
        "model": fit.model,
        "degree": fit.degree,
        "coefficients": list(fit.coefficients),
        "sse": fit.sse,
        "score": fit.score,
        "n_points": fit.n_points,
        "growth": str(fit.growth),
        "kind": fit.kind,
        "max_round_deviation": fit.max_round_deviation,
    }


def fit_from_dict(data: Mapping) -> FitResult:
    """Rebuild a FitResult from its JSON form; growth is derived, not read."""
    return FitResult(
        model=data["model"],
        degree=int(data["degree"]),
        coefficients=tuple(float(c) for c in data["coefficients"]),
        sse=float(data["sse"]),
        score=float(data["score"]),
        n_points=int(data["n_points"]),
        kind=data["kind"],
        max_round_deviation=data.get("max_round_deviation"),
    )


# ---------------------------------------------------------------------------
# pipeline

def _measure_instance(spec: FamilySpec, n: int, dense_limit: Optional[int]) -> InstanceResult:
    start = time.perf_counter()
    try:
        instance = generate(spec, n)
        generated = time.perf_counter()
        matrix = system_matrix(instance.graph)
        assembled = time.perf_counter()
        record = measure(matrix, dense_limit=dense_limit)
        measured = time.perf_counter()
    except Exception as exc:  # per-instance failures are recorded, not fatal
        error = f"{type(exc).__name__}: {exc}"
        return InstanceResult(n, None, None, error, (), time.perf_counter() - start)
    warnings = instance.warnings
    if record.lambda_min_nz <= FLAG_CUTOFF:
        warnings += (
            f"smallest nonzero eigenvalue {record.lambda_min_nz!r} is at or below "
            f"the cutoff {FLAG_CUTOFF!r}",
        )
    return InstanceResult(
        n, instance.seed, record, None, warnings, time.perf_counter() - start,
        generate_s=generated - start, assemble_s=assembled - generated,
        measure_s=measured - assembled,
    )


# What a forked worker measures from: the config's specs and dense_limit,
# set by the pool's initializer before the first job.
_worker_specs: tuple[FamilySpec, ...] = ()
_worker_dense_limit: Optional[int] = None


def _adopt(specs: tuple[FamilySpec, ...], dense_limit: Optional[int]) -> None:
    global _worker_specs, _worker_dense_limit
    _worker_specs, _worker_dense_limit = specs, dense_limit


def _measure_job(index: int, n: int) -> InstanceResult:
    return _measure_instance(_worker_specs[index], n, _worker_dense_limit)


def _measure_forked(
    config: SurveyConfig, jobs: Sequence[tuple[int, int]], workers: int
) -> list[InstanceResult]:
    """One InstanceResult per (family index, n) job, in job order, measured
    by ``workers`` forked processes.

    The specs and dense_limit reach each worker through the fork, as the
    initializer's arguments, which the fork start method never pickles; only
    the index pairs and the results cross the process boundary.  A worker
    that dies breaks the pool: every job without a result then fails with an
    error naming the dead worker, and the run goes on to fit what was
    measured.  The workers have exited when this returns or raises.
    """
    # imported here, not with the module: `import nlsp` skips the pool's
    # modules, and a run in one process never loads them
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt, initargs=(config.families, config.dense_limit),
    )
    results: list[Optional[InstanceResult]] = [None] * len(jobs)
    try:
        futures = []
        with contextlib.suppress(BrokenProcessPool):  # a worker died during the submits
            for index, n in jobs:
                futures.append(pool.submit(_measure_job, index, n))
        # Under fork the pool has started every worker by its last submit,
        # and it keeps a dead one's handle, so the exit code can be read.
        # The executor exposes its processes only as this private mapping.
        processes = tuple(pool._processes.values())
        for k, future in enumerate(futures):
            with contextlib.suppress(BrokenProcessPool):
                results[k] = future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    if None not in results:
        return results
    # the pool terminates the survivors when one dies; the rest died on their own
    dead = [p for p in processes if p.exitcode != -signal.SIGTERM] or processes
    error = "BrokenProcessPool: worker process " + ", ".join(
        f"{p.pid} exited with code {p.exitcode}" for p in dead
    ) + " before this instance was measured"
    return [
        result if result is not None else InstanceResult(n, None, None, error, (), 0.0)
        for result, (_, n) in zip(results, jobs)
    ]


def fit_growth(random: bool, records: Iterable) -> tuple[FitResult, FitResult, bool]:
    """(κ(N) fit, s(N) fit, envelope_flagged) of one family's records, any
    objects with ``system_size``, ``kappa`` and ``sparsity`` in any order.

    The series run in increasing N; records that share an N merge into one
    point carrying their largest κ and, separately, their largest s.  A
    random family then fits the upper envelope of each scatter; the flag is
    set when an envelope keeps too few points and the whole series is fit.
    Raises ValueError when either series cannot be fit, as when it has too
    few points.
    """
    merged: dict[int, tuple[float, int]] = {}
    for rec in records:
        kappa, sparsity = merged.get(rec.system_size, (rec.kappa, rec.sparsity))
        merged[rec.system_size] = (max(kappa, rec.kappa), max(sparsity, rec.sparsity))
    sizes = sorted(merged)
    kappas = [merged[size][0] for size in sizes]
    sparsities = [merged[size][1] for size in sizes]
    if not random:
        return fit_series(sizes, kappas, "kappa"), fit_series(sizes, sparsities, "sparsity"), False
    k_env = upper_envelope(sizes, kappas)
    s_env = upper_envelope(sizes, sparsities)
    return (
        fit_series(k_env.xs, k_env.ys, "kappa"),
        fit_series(s_env.xs, s_env.ys, "sparsity"),
        k_env.flagged or s_env.flagged,
    )


def classify_fits(
    kappa_fit: FitResult,
    s_fit: FitResult,
    size_growth: GrowthClass,
    solvers: Sequence[str],
    scan: Sequence[float],
) -> tuple[GrowthClass, GrowthClass, dict[str, AdvantageVerdict]]:
    """(κ(n), s(n), verdicts): both fits composed with the size growth N(n),
    then one verdict per solver, carrying its numeric crossover_N.

    The crossover scan keeps the points of ``scan`` where the runtime models
    are defined, N >= 3.  Raises CompositionError when a fit does not compose.
    """
    kappa_n = compose(kappa_fit.growth, size_growth)
    s_n = compose(s_fit.growth, size_growth)
    scan = [x for x in scan if x >= 3.0]
    verdicts = {
        name: evaluate_advantage(
            name, size_growth, kappa_n, s_n,
            crossover_N=crossover(name, kappa_fit.predict, s_fit.predict, scan),
        )
        for name in solvers
    }
    return kappa_n, s_n, verdicts


def run_survey(config: SurveyConfig, max_workers: Optional[int] = None) -> SurveyResult:
    """Measure, fit, and classify every configured family.

    Instances are measured by ``max_workers`` forked worker processes, at
    least 1; None takes min(4, cores), counting the cores this process may
    run on (its affinity mask, where the platform has one, as under
    ``taskset``).  Each worker holds its own instance in memory.  One
    worker, one job, or a platform without the fork start method measures
    in this process instead.  Fits and all file writes happen in this
    process in canonical (family, n) order, so re-running an identical
    config reproduces records.csv byte for byte, whatever the worker count.
    A worker that dies fails every instance still unmeasured; the run goes
    on with the rest.
    """
    whole_number(max_workers, "max_workers", 1, or_none=True)
    jobs = [(index, n) for index, spec in enumerate(config.families) for n in spec.schedule]
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    workers = min(max_workers or min(4, cores), len(jobs))
    if any(catalog_entry(spec.family_id).needs_networkx for spec in config.families):
        # loaded before any instance is timed, so no generate_s carries the
        # import; forked workers inherit it, where each would otherwise
        # import it again on every run
        import networkx  # noqa: F401
    # results run in job order: by family, then by the strictly increasing n
    if workers > 1 and hasattr(os, "fork"):
        results = iter(_measure_forked(config, jobs, workers))
    else:
        results = (
            _measure_instance(config.families[index], n, config.dense_limit) for index, n in jobs
        )

    outcomes = []
    for key, spec in zip(config.family_keys(), config.families):
        instances = tuple(itertools.islice(results, len(spec.schedule)))
        notes: list[str] = []
        kappa_fit = s_fit = None
        flagged, verdicts = False, {}
        try:
            kappa_fit, s_fit, flagged = fit_growth(
                catalog_entry(spec.family_id).random,
                (i.record for i in instances if i.record is not None),
            )
        except ValueError as exc:
            notes.append(f"fit failed: {exc}")
        if kappa_fit is not None:
            try:
                _, _, verdicts = classify_fits(
                    kappa_fit, s_fit, spec.size_growth, config.solvers, CROSSOVER_SCAN
                )
            except CompositionError as exc:
                notes.append(f"composition failed: {exc}")
        outcomes.append(
            FamilyOutcome(
                key=key,
                spec=spec,
                instances=instances,
                kappa_fit=kappa_fit,
                s_fit=s_fit,
                envelope_flagged=flagged,
                verdicts=verdicts,
                fit_notes=tuple(notes),
            )
        )

    manifest = SurveyManifest(
        config_hash=config_hash(config),
        tool_version=__version__,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    result = SurveyResult(config=config, outcomes=tuple(outcomes), manifest=manifest)
    if config.output_dir is not None:
        persist(result, Path(config.output_dir))
    return result


# ---------------------------------------------------------------------------
# persistence

def write_records_csv(path: Union[str, Path], rows: Sequence[RecordRow]) -> None:
    """csv writes a float as its repr and None as an empty field."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def read_records_csv(path: Union[str, Path]) -> list[RecordRow]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise ValueError(f"unexpected records header in {path}")
        rows = []
        for raw in reader:
            if not raw:
                continue
            if len(raw) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: {len(raw)} fields")
            rows.append(RecordRow(*(parse(x) for parse, x in zip(_COLUMN_PARSERS, raw))))
    return rows


def persist(result: SurveyResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "records.csv", result.record_rows())
    with open(out_dir / "report.json", "w") as f:
        json.dump(result.report_dict(), f, indent=2)
        f.write("\n")
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(result.manifest_dict(), f, indent=2)
        f.write("\n")
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    for outcome in result.outcomes:
        _write_series(plots, outcome, result.config.solvers)


def _write_series(plots: Path, outcome: FamilyOutcome, solvers: Sequence[str]) -> None:
    """Plot-ready series: kappa/s vs N, ratio vs N, symbolic ratio vs n."""
    key = outcome.key.replace("/", "_")
    with open(plots / f"{key}_kappa_s.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["N", "kappa", "sparsity"])
        for _, rec in outcome.records:
            writer.writerow([rec.system_size, repr(rec.kappa), rec.sparsity])
    if outcome.kappa_fit is None or outcome.s_fit is None:
        return
    with open(plots / f"{key}_ratio.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["N"] + [f"R_{s}" for s in solvers])
        for _, rec in outcome.records:
            if rec.system_size < 3:  # runtime models need loglog(N) > 0
                continue
            n_size = float(rec.system_size)
            writer.writerow(
                [rec.system_size]
                + [
                    repr(ratio_R(s, n_size, outcome.kappa_fit.predict, outcome.s_fit.predict))
                    for s in solvers
                ]
            )
    if not outcome.verdicts:
        return
    with open(plots / f"{key}_ratio_class.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "reference"] + [f"Rtilde_{s}" for s in solvers])
        for n, _ in outcome.records:
            if n < 3:  # ratio classes evaluate only where loglog(n) > 0
                continue
            writer.writerow(
                [n, n]
                + [
                    repr(outcome.verdicts[s].ratio_class.evaluate(n))
                    for s in solvers
                ]
            )


# ---------------------------------------------------------------------------
# seed sensitivity

@dataclass(frozen=True)
class SeedSensitivityReport:
    """Per-seed categories and a per-family stability flag."""

    seeds: tuple[int, ...]
    solvers: tuple[str, ...]
    families: Mapping[str, Mapping[int, Mapping[str, Optional[str]]]]

    def stable(self, key: str) -> bool:
        """True when every solver's category agrees across all seeds."""
        per_seed = self.families[key]
        reference = per_seed[self.seeds[0]]
        return all(per_seed[s] == reference for s in self.seeds[1:]) and all(
            c is not None for c in reference.values()
        )

    def as_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "solvers": list(self.solvers),
            "families": {
                key: {
                    "per_seed": {str(s): dict(per_seed[s]) for s in self.seeds},
                    "stable": self.stable(key),
                }
                for key, per_seed in self.families.items()
            },
        }


def seed_sensitivity(config: SurveyConfig, seeds: Sequence[int]) -> SeedSensitivityReport:
    """Re-run every family under each seed and compare verdict categories.

    Only random families qualify; the whole spec list is re-seeded per run.
    Families whose fits fail under some seed carry None categories there and
    are reported unstable.
    """
    seeds = tuple(whole_number(s, "seed", 0) for s in seeds)
    if len(seeds) < 2:
        raise ValueError("seed sensitivity needs at least 2 seeds")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    for spec in config.families:
        if not catalog_entry(spec.family_id).random:
            raise ValueError(f"{spec.family_id} is deterministic; seeds have no effect")
    table: dict[str, dict[int, dict[str, Optional[str]]]] = {k: {} for k in config.family_keys()}
    for seed in seeds:
        reseeded = tuple(dataclasses.replace(spec, seed=seed) for spec in config.families)
        result = run_survey(dataclasses.replace(config, families=reseeded, output_dir=None))
        for outcome in result.outcomes:
            table[outcome.key][seed] = {
                name: (outcome.verdicts[name].category if name in outcome.verdicts else None)
                for name in config.solvers
            }
    report = SeedSensitivityReport(seeds=seeds, solvers=config.solvers, families=table)
    if config.output_dir is not None:
        with open(Path(config.output_dir) / "seed_sensitivity.json", "w") as f:
            json.dump(report.as_dict(), f, indent=2)
            f.write("\n")
    return report
