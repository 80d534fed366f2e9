"""Command-line front end.

Four command groups: survey (run / fit / classify / crossover), superfamily
(tableau / slice), hhl (solve / reff / traffic), and repro (tables).  Exit
codes: 0 on success, 2 on configuration or input errors, 3 when a run
completed but recorded partial failures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .families import catalog_entry
from .graphs import SymmetricMatrix, pad_to_power_of_two, read_edge_list
from .growth import CompositionError
from .hhl import (
    DEFAULT_CLOCK_QUBITS,
    HhlConfig,
    abs_row_bound,
    default_config,
    effective_resistance,
    graph_config,
    graph_system,
    hhl_solve,
    traffic_flow,
)
from .solvers import crossover as numeric_crossover
from .superfamily import SLICE_KINDS, SLICES, slice_verdict, tableau, write_tableau_csv
from .survey import (
    DEFAULT_SOLVERS,
    MIN_FIT_POINTS,
    SCHEMA_VERSION,
    classify_fits,
    config_from_dict,
    fit_from_dict,
    fit_growth,
    fit_to_dict,
    geometric_scan,
    read_records_csv,
    run_survey,
)
from .tables import reproduce_tables

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    """Input or configuration problem; maps to exit code 2."""


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# survey group

def cmd_survey_run(args: argparse.Namespace) -> int:
    doc = _load_json(args.config)
    if args.output_dir is not None:
        doc["output_dir"] = args.output_dir
    try:
        config = config_from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad config: {exc}") from exc
    result = run_survey(config, max_workers=args.workers)
    for outcome in result.outcomes:
        categories = {name: v.category for name, v in outcome.verdicts.items()}
        print(
            f"{outcome.key}: {len(outcome.records)} records, "
            f"{len(outcome.errors)} skipped, verdicts {categories or 'unavailable'}"
        )
    if config.output_dir:
        print(f"outputs in {config.output_dir}")
    return EXIT_PARTIAL if any(o.errors for o in result.outcomes) else EXIT_OK


def _family_id_of_key(key: str) -> str:
    return key.split("#")[0].split(":")[0]


def _catalog_entry(family_id: str):
    try:
        return catalog_entry(family_id)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_survey_fit(args: argparse.Namespace) -> int:
    try:
        rows = read_records_csv(args.records)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    grouped: dict[str, list] = {}
    for row in rows:
        grouped.setdefault(row.family, []).append(row)
    families = {}
    failures = 0
    for key, group in grouped.items():
        group.sort(key=lambda r: r.n)
        family_id = _family_id_of_key(key)
        entry = _catalog_entry(family_id)
        block: dict = {"family": family_id, "n_records": len(group)}
        families[key] = block
        if len(group) < MIN_FIT_POINTS:
            block["error"] = f"needs {MIN_FIT_POINTS} records, has {len(group)}"
            failures += 1
            continue
        try:
            kappa_fit, s_fit, flagged = fit_growth(
                entry.random,
                [r.system_size for r in group],
                [r.kappa for r in group],
                [r.sparsity for r in group],
            )
        except ValueError as exc:
            block["error"] = f"fit failed: {exc}"
            failures += 1
            continue
        block["kappa_fit"] = fit_to_dict(kappa_fit)
        block["s_fit"] = fit_to_dict(s_fit)
        block["envelope_flagged"] = flagged
    doc = {"schema": SCHEMA_VERSION, "families": families}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"fits written to {args.out}")
    else:
        _emit(doc)
    return EXIT_PARTIAL if failures else EXIT_OK


def _iter_fitted_families(doc: dict, only: Optional[str]):
    families = doc.get("families", {})
    if only is not None:
        if only not in families:
            raise CliError(f"family {only!r} not in fits file")
        families = {only: families[only]}
    for key, block in families.items():
        yield key, block


def cmd_survey_classify(args: argparse.Namespace) -> int:
    doc = _load_json(args.fits)
    solvers = args.solver or list(DEFAULT_SOLVERS)
    out: dict = {"solvers": solvers, "families": {}}
    failures = 0
    for key, block in _iter_fitted_families(doc, args.family):
        if "kappa_fit" not in block or "s_fit" not in block:
            out["families"][key] = {"error": block.get("error", "fits missing")}
            failures += 1
            continue
        entry = _catalog_entry(_family_id_of_key(key))
        if callable(entry.size_growth):  # N(n) needs params the fits file lacks
            out["families"][key] = {
                "error": f"size growth of {entry.family_id} depends on its params, which "
                "records.csv does not carry; read the verdicts in the run's report.json"
            }
            failures += 1
            continue
        kappa_fit = fit_from_dict(block["kappa_fit"])
        s_fit = fit_from_dict(block["s_fit"])
        size_growth = entry.size_growth
        try:  # an empty scan: crossovers are the crossover command's job
            kappa_n, s_n, verdicts = classify_fits(kappa_fit, s_fit, size_growth, solvers, ())
        except CompositionError as exc:
            out["families"][key] = {"error": f"composition failed: {exc}"}
            failures += 1
            continue
        out["families"][key] = {
            "size_growth": str(size_growth),
            "kappa_n": str(kappa_n),
            "s_n": str(s_n),
            "verdicts": {name: v.as_dict() for name, v in verdicts.items()},
        }
    _emit(out)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_survey_crossover(args: argparse.Namespace) -> int:
    doc = _load_json(args.fits)
    scan = geometric_scan(4.0, args.max_n, 2.0)
    out: dict = {"solver": args.solver, "max_N": args.max_n, "families": {}}
    failures = 0
    for key, block in _iter_fitted_families(doc, args.family):
        if "kappa_fit" not in block or "s_fit" not in block:
            out["families"][key] = {"error": block.get("error", "fits missing")}
            failures += 1
            continue
        n_cross = numeric_crossover(
            args.solver, fit_from_dict(block["kappa_fit"]), fit_from_dict(block["s_fit"]), scan
        )
        out["families"][key] = {"crossover_N": n_cross}
    _emit(out)
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# superfamily group

def cmd_superfamily_tableau(args: argparse.Namespace) -> int:
    try:
        cells = tableau(args.a_max, args.m_max)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            write_tableau_csv(f, cells)
        print(f"tableau written to {args.csv}")
    else:
        write_tableau_csv(sys.stdout, cells)
    return EXIT_OK


def cmd_superfamily_slice(args: argparse.Namespace) -> int:
    build = SLICES[args.kind]
    params = {}
    for name in inspect.signature(build).parameters:
        if getattr(args, name) is None:
            raise CliError(f"slice kind {args.kind!r} requires --{name.replace('_', '-')}")
        params[name] = getattr(args, name)
    try:
        sl = build(**params)
        verdict = slice_verdict(sl, args.solver)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(
        {
            "kind": sl.kind,
            "parameter": sl.parameter,
            "cells": [[c.a, c.m] for c in sl.cells],
            "solver": args.solver,
            **verdict.as_dict(),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# hhl group

def _dense_to_symmetric(rows: list) -> SymmetricMatrix:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"dense matrix must be an array of reals: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CliError("dense matrix must be square")
    if not np.allclose(arr, arr.T, atol=1e-12):
        raise CliError("dense matrix must be symmetric")
    upper = np.triu(arr)  # the upper triangle wins within the tolerance
    return SymmetricMatrix(upper + np.triu(upper, 1).T)


def _problem_matrix(doc: dict) -> tuple[SymmetricMatrix, bool]:
    spec = doc.get("matrix")
    if not isinstance(spec, dict):
        raise CliError("problem file needs a 'matrix' object")
    if "dense" in spec:
        matrix = _dense_to_symmetric(spec["dense"])
        signed_hint = bool(spec.get("signed", False))
    elif "edge_list" in spec:
        kind = spec.get("matrix_kind")
        if kind not in ("laplacian", "incidence"):
            raise CliError("matrix_kind must be 'laplacian' or 'incidence'")
        graph = _load_graph(spec["edge_list"])
        if graph.directed != (kind == "incidence"):
            need = "a directed" if kind == "incidence" else "an undirected"
            raise CliError(f"matrix_kind {kind!r} needs {need} graph")
        matrix, signed_hint = graph_system(graph), graph.directed
    else:
        raise CliError("matrix needs either 'dense' or 'edge_list'")
    return matrix, signed_hint


def _problem_config(doc: dict, bound: float, signed: bool) -> HhlConfig:
    raw = doc.get("config")
    if not isinstance(raw, dict) or "n_r" not in raw:
        raise CliError("problem file needs config.n_r")
    try:
        if "t" in raw or "C" in raw:
            return HhlConfig(
                n_r=int(raw["n_r"]),
                t=float(raw["t"]),
                C=float(raw["C"]),
                shots=raw.get("shots"),
                seed=raw.get("seed"),
            )
        return default_config(
            int(raw["n_r"]),
            bound,
            raw.get("lambda_min"),
            signed=bool(raw.get("signed", signed)),
            shots=raw.get("shots"),
            seed=raw.get("seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad solver config: {exc}") from exc


def cmd_hhl_solve(args: argparse.Namespace) -> int:
    doc = _load_json(args.problem)
    matrix, signed_hint = _problem_matrix(doc)
    if "b" not in doc:
        raise CliError("problem file needs 'b'")
    try:
        b = np.asarray(doc["b"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"b must be a vector of reals: {exc}") from exc
    if b.shape != (matrix.order,):
        raise CliError(f"b must have length {matrix.order}")
    bound = abs_row_bound(matrix)
    if bound <= 0:
        raise CliError("zero matrix has no invertible part")
    if doc.get("pad"):
        matrix = pad_to_power_of_two(matrix, bound)
        b = np.concatenate([b, np.zeros(matrix.order - len(b))])
    cfg = _problem_config(doc, bound, signed_hint)
    try:
        outcome = hhl_solve(matrix, b, cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    reconstruction = outcome.solution
    oracle = np.linalg.pinv(matrix.to_dense()) @ b
    # global sign of the statevector is unobservable; align before comparing
    if float(reconstruction @ oracle) < 0:
        reconstruction = -reconstruction
    _emit(
        {
            "p_success": outcome.p_success,
            "scale": outcome.scale,
            "b_norm": outcome.b_norm,
            "clock_zero_weight": outcome.clock_zero_weight,
            "solution_state": [float(x) for x in outcome.solution_state],
            "reconstruction": [float(x) for x in reconstruction],
            "oracle_solution": [float(x) for x in oracle],
            "oracle_delta": float(np.abs(reconstruction - oracle).max()),
        }
    )
    return EXIT_OK


def _load_graph(path: str):
    try:
        with open(path) as f:
            return read_edge_list(f)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load graph: {exc}") from exc


def cmd_hhl_reff(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    method = "oracle" if args.oracle else "hhl"
    try:
        cfg = None if args.oracle else graph_config(
            graph, args.n_r, shots=args.shots, seed=args.seed
        )
        value = effective_resistance(graph, args.i, args.j, method, cfg)
        oracle = effective_resistance(graph, args.i, args.j)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(
        {
            "method": method,
            "i": args.i,
            "j": args.j,
            "effective_resistance": value,
            "oracle": oracle,
            "oracle_delta": abs(value - oracle),
        }
    )
    return EXIT_OK


def _parse_injections(raw: str) -> list[float]:
    data = _load_json(raw) if Path(raw).exists() else raw.split(",")
    if not isinstance(data, list):
        raise CliError("injection file must hold a JSON array")
    try:
        return [float(x) for x in data]
    except (TypeError, ValueError) as exc:
        raise CliError(f"injections must be a file or comma-separated reals: {exc}") from exc


def cmd_hhl_traffic(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    injections = _parse_injections(args.injections)
    method = "oracle" if args.oracle else "hhl"
    try:
        cfg = None if args.oracle else graph_config(graph, args.n_r)
        result = traffic_flow(graph, injections, method, cfg)
        oracle = traffic_flow(graph, injections)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(
        {
            "method": method,
            "flow": [float(x) for x in result.flow],
            "negative_lanes": list(result.negative_lanes),
            "oracle_flow": [float(x) for x in oracle.flow],
            "oracle_delta": float(np.abs(result.flow - oracle.flow).max()),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro group

def cmd_repro_tables(args: argparse.Namespace) -> int:
    report = reproduce_tables()
    if args.json:
        _emit(report.as_dict())
    else:
        print(report.to_text())
    return EXIT_OK if report.matched == report.total else EXIT_PARTIAL


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsp",
        description="Survey condition number and sparsity growth of graph "
        "linear systems and classify quantum-solver advantage.",
    )
    groups = parser.add_subparsers(dest="group")

    survey = groups.add_parser("survey", help="run surveys and derive fits/verdicts")
    survey_sub = survey.add_subparsers(dest="command")

    run_p = survey_sub.add_parser("run", help="execute a survey config")
    run_p.add_argument("config", help="JSON survey config")
    run_p.add_argument("--output-dir", help="override the config output directory")
    run_p.add_argument("--workers", type=int, help="measurement worker pool size")
    run_p.set_defaults(handler=cmd_survey_run)

    fit_p = survey_sub.add_parser("fit", help="fit kappa and s from records.csv")
    fit_p.add_argument("records", help="records.csv from a survey run")
    fit_p.add_argument("--out", help="write fits JSON here instead of stdout")
    fit_p.set_defaults(handler=cmd_survey_fit)

    cls_p = survey_sub.add_parser("classify", help="verdicts from a fits file")
    cls_p.add_argument("fits", help="fits JSON from survey fit")
    cls_p.add_argument("--solver", action="append", help="solver name (repeatable)")
    cls_p.add_argument("--family", help="restrict to one family key")
    cls_p.set_defaults(handler=cmd_survey_classify)

    xo_p = survey_sub.add_parser("crossover", help="numeric advantage crossover scan")
    xo_p.add_argument("fits", help="fits JSON from survey fit")
    xo_p.add_argument("--solver", required=True)
    xo_p.add_argument("--max-N", dest="max_n", type=float, default=1e12)
    xo_p.add_argument("--family", help="restrict to one family key")
    xo_p.set_defaults(handler=cmd_survey_crossover)

    superf = groups.add_parser("superfamily", help="generalized hypercube tableau")
    superf_sub = superf.add_subparsers(dest="command")

    tab_p = superf_sub.add_parser("tableau", help="measure the (a, m) tableau")
    tab_p.add_argument("--a-max", dest="a_max", type=int, required=True)
    tab_p.add_argument("--m-max", dest="m_max", type=int, required=True)
    tab_p.add_argument("--csv", help="write CSV here instead of stdout")
    tab_p.set_defaults(handler=cmd_superfamily_tableau)

    sl_p = superf_sub.add_parser("slice", help="classify one tableau slice")
    sl_p.add_argument("--kind", required=True, choices=SLICE_KINDS)
    sl_p.add_argument("--a", type=int)
    sl_p.add_argument("--m", type=int)
    sl_p.add_argument("--d", type=int, help="diagonal offset D")
    sl_p.add_argument("--s", type=int, help="iso-sparsity value")
    sl_p.add_argument("--a-max", dest="a_max", type=int)
    sl_p.add_argument("--m-max", dest="m_max", type=int)
    sl_p.add_argument("--solver", default="HHL")
    sl_p.set_defaults(handler=cmd_superfamily_slice)

    hhl = groups.add_parser("hhl", help="statevector solver applications")
    hhl_sub = hhl.add_subparsers(dest="command")

    solve_p = hhl_sub.add_parser("solve", help="solve a problem file")
    solve_p.add_argument("problem", help="JSON problem description")
    solve_p.set_defaults(handler=cmd_hhl_solve)

    reff_p = hhl_sub.add_parser("reff", help="two-vertex effective resistance")
    reff_p.add_argument("graph", help="undirected edge-list file")
    reff_p.add_argument("--i", type=int, required=True)
    reff_p.add_argument("--j", type=int, required=True)
    reff_p.add_argument("--oracle", action="store_true", help="classical path only")
    reff_p.add_argument("--n-r", dest="n_r", type=int, default=DEFAULT_CLOCK_QUBITS)
    reff_p.add_argument("--shots", type=int)
    reff_p.add_argument("--seed", type=int)
    reff_p.set_defaults(handler=cmd_hhl_reff)

    tr_p = hhl_sub.add_parser("traffic", help="minimum-norm traffic assignment")
    tr_p.add_argument("graph", help="directed edge-list file")
    tr_p.add_argument("injections", help="JSON file or comma-separated reals")
    tr_p.add_argument("--oracle", action="store_true", help="classical path only")
    tr_p.add_argument("--n-r", dest="n_r", type=int, default=DEFAULT_CLOCK_QUBITS)
    tr_p.set_defaults(handler=cmd_hhl_traffic)

    repro = groups.add_parser("repro", help="reproduce published artifacts")
    repro_sub = repro.add_subparsers(dest="command")
    tables_p = repro_sub.add_parser("tables", help="re-derive advantage labels")
    tables_p.add_argument("--json", action="store_true")
    tables_p.set_defaults(handler=cmd_repro_tables)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
