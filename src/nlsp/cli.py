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
from .graphs import RectMatrix, SymmetricMatrix, read_edge_list, system_matrix
from .growth import CompositionError
from .hhl import (
    DEFAULT_CLOCK_QUBITS,
    HhlConfig,
    default_config,
    effective_resistance,
    graph_config,
    hhl_resistance,
    hhl_solve,
    simulator_system,
    traffic_flow,
)
from .solvers import crossover as numeric_crossover, get_solver
from .superfamily import SLICES, slice_verdict, tableau, write_tableau_csv
from .survey import (
    DEFAULT_SOLVERS,
    SCHEMA_VERSION,
    _reject_unknown_keys,
    classify_fits,
    config_from_dict,
    family_id_of_key,
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


class CliError(ValueError):
    """Input or configuration problem; maps to exit code 2, as does any
    ``ValueError`` or ``OSError`` that reaches ``main``."""


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
    if args.output_dir is not None and isinstance(doc, dict):
        doc["output_dir"] = args.output_dir
    try:
        config = config_from_dict(doc)
    except (ValueError, TypeError) as exc:
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


def cmd_survey_fit(args: argparse.Namespace) -> int:
    rows = read_records_csv(args.records)
    grouped: dict[str, list] = {}
    for row in rows:
        grouped.setdefault(row.family, []).append(row)
    families = {}
    failures = 0
    for key, group in grouped.items():
        family_id = family_id_of_key(key)
        entry = catalog_entry(family_id)
        block: dict = {"family": family_id, "n_records": len(group)}
        families[key] = block
        try:
            kappa_fit, s_fit, flagged = fit_growth(entry.random, group)
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


def _known_solvers(names: list[str]) -> list[str]:
    for name in names:
        get_solver(name)
    return names


def _fitted_families(doc: dict, only: Optional[str], out: dict):
    """Yield (key, κ fit, s fit) for each family block of a fits file, or
    only for ``only``; a block that lacks a fit gets its error in ``out``."""
    families = doc.get("families", {}) if isinstance(doc, dict) else None
    if not isinstance(families, dict):
        raise CliError("fits file needs a 'families' object")
    if only is not None:
        if only not in families:
            raise CliError(f"family {only!r} not in fits file")
        families = {only: families[only]}
    for key, block in families.items():
        if not isinstance(block, dict):
            raise CliError(f"family {key!r}: fits block must be an object")
        if "kappa_fit" not in block or "s_fit" not in block:
            out[key] = {"error": block.get("error", "fits missing")}
            continue
        try:
            kappa_fit, s_fit = fit_from_dict(block["kappa_fit"]), fit_from_dict(block["s_fit"])
        except KeyError as exc:
            raise CliError(f"family {key!r}: fit lacks field {exc}") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise CliError(f"family {key!r}: malformed fit: {exc}") from exc
        yield key, kappa_fit, s_fit


def _exit_code(blocks: dict) -> int:
    return EXIT_PARTIAL if any("error" in block for block in blocks.values()) else EXIT_OK


def cmd_survey_classify(args: argparse.Namespace) -> int:
    doc = _load_json(args.fits)
    solvers = _known_solvers(args.solver or list(DEFAULT_SOLVERS))
    out: dict = {"solvers": solvers, "families": {}}
    for key, kappa_fit, s_fit in _fitted_families(doc, args.family, out["families"]):
        entry = catalog_entry(family_id_of_key(key))
        if callable(entry.size_growth):  # N(n) needs params the fits file lacks
            out["families"][key] = {
                "error": f"size growth of {entry.family_id} depends on its params, which "
                "records.csv does not carry; read the verdicts in the run's report.json"
            }
            continue
        size_growth = entry.size_growth
        try:  # an empty scan: crossovers are the crossover command's job
            kappa_n, s_n, verdicts = classify_fits(kappa_fit, s_fit, size_growth, solvers, ())
        except CompositionError as exc:
            out["families"][key] = {"error": f"composition failed: {exc}"}
            continue
        out["families"][key] = {
            "size_growth": str(size_growth),
            "kappa_n": str(kappa_n),
            "s_n": str(s_n),
            "verdicts": {name: v.as_dict() for name, v in verdicts.items()},
        }
    _emit(out)
    return _exit_code(out["families"])


def cmd_survey_crossover(args: argparse.Namespace) -> int:
    _known_solvers([args.solver])
    doc = _load_json(args.fits)
    try:
        scan = geometric_scan(args.max_n)
    except ValueError as exc:
        raise CliError(f"bad --max-N {args.max_n:g}: {exc}") from exc
    out: dict = {"solver": args.solver, "max_N": args.max_n, "families": {}}
    for key, kappa_fit, s_fit in _fitted_families(doc, args.family, out["families"]):
        n_cross = numeric_crossover(args.solver, kappa_fit.predict, s_fit.predict, scan)
        out["families"][key] = {"crossover_N": n_cross}
    _emit(out)
    return _exit_code(out["families"])


# ---------------------------------------------------------------------------
# superfamily group

def cmd_superfamily_tableau(args: argparse.Namespace) -> int:
    cells = tableau(args.a_max, args.m_max)
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            write_tableau_csv(f, cells)
        print(f"tableau written to {args.csv}")
    else:
        write_tableau_csv(sys.stdout, cells)
    return EXIT_OK


def cmd_superfamily_slice(args: argparse.Namespace) -> int:
    _known_solvers([args.solver])
    build = SLICES[args.kind]
    params = {}
    for name in inspect.signature(build).parameters:
        if getattr(args, name) is None:
            raise CliError(f"slice kind {args.kind!r} requires --{name.replace('_', '-')}")
        params[name] = getattr(args, name)
    sl = build(**params)
    verdict = slice_verdict(sl, args.solver)
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
    if not np.isfinite(arr).all():
        raise CliError("dense matrix must be finite")
    # Relative to the largest entry: allclose's default rtol of 1e-5 would
    # take a pair -1, -1.00001 as symmetric.
    if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12 * float(np.abs(arr).max())):
        raise CliError("dense matrix must be symmetric")
    upper = np.triu(arr)  # the upper triangle wins within the tolerance
    return SymmetricMatrix(upper + np.triu(upper, 1).T)


def _problem_matrix(doc: dict) -> RectMatrix:
    """The problem's matrix: the dense one, or an edge list's
    ``system_matrix``, L or a digraph's B."""
    spec = doc.get("matrix")
    if not isinstance(spec, dict):
        raise CliError("problem file needs a 'matrix' object")
    _reject_unknown_keys(spec, ("dense", "edge_list"), "matrix")
    if len(spec) != 1:
        raise CliError("matrix needs exactly one of 'dense' and 'edge_list'")
    if "dense" in spec:
        return _dense_to_symmetric(spec["dense"])
    return system_matrix(_load_graph(spec["edge_list"]))


def _problem_config(doc: dict, bound: float, signed: bool) -> HhlConfig:
    raw = doc.get("config")
    if not isinstance(raw, dict) or "n_r" not in raw:
        raise CliError("problem file needs config.n_r")
    _reject_unknown_keys(raw, ("n_r", "t", "C", "lambda_min", "signed", "shots", "seed"), "config")
    sampling = {"shots": raw.get("shots"), "seed": raw.get("seed")}
    if "t" in raw or "C" in raw:
        for key in ("t", "C"):
            if key not in raw:
                raise CliError(f"config.t and config.C go together; config.{key} is missing")
        for key in ("lambda_min", "signed"):
            if key in raw:
                raise CliError(f"config.{key} sets the default clock, which config.t and "
                               "config.C replace")
    try:
        if "t" in raw:
            return HhlConfig(n_r=raw["n_r"], t=raw["t"], C=raw["C"], **sampling)
        signed = raw.get("signed", signed)
        return default_config(raw["n_r"], bound, raw.get("lambda_min"), signed=signed, **sampling)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"bad solver config: {exc}") from exc


def cmd_hhl_solve(args: argparse.Namespace) -> int:
    doc = _load_json(args.problem)
    if not isinstance(doc, dict):
        raise CliError("problem file must be a JSON object")
    _reject_unknown_keys(doc, ("matrix", "b", "config"), "the problem file")
    matrix = _problem_matrix(doc)
    if "b" not in doc:
        raise CliError("problem file needs 'b'")
    try:
        b = np.asarray(doc["b"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"b must be a vector of reals: {exc}") from exc
    matrix, bound, signed, b = simulator_system(matrix, b)
    cfg = _problem_config(doc, bound, signed)
    outcome = hhl_solve(matrix, b, cfg)
    reconstruction = outcome.solution
    oracle = np.linalg.pinv(matrix.to_dense()) @ b
    # global sign of the statevector is unobservable; align before comparing
    if float(reconstruction @ oracle) < 0:
        reconstruction = -reconstruction
    _emit(
        {
            "p_success": outcome.p_success,
            "shots": outcome.shots,
            "successes": outcome.successes,
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


def _graph_clock(args: argparse.Namespace, graph, **sampling) -> Optional[HhlConfig]:
    """graph_config from --n-r and the sampling flags; None with --oracle,
    which runs no clock and refuses them."""
    if args.oracle:
        for name, value in {"n_r": args.n_r, **sampling}.items():
            if value is not None:
                raise CliError(f"--oracle runs no clock; drop --{name.replace('_', '-')}")
        return None
    n_r = DEFAULT_CLOCK_QUBITS if args.n_r is None else args.n_r
    return graph_config(graph, n_r, **sampling)


def cmd_hhl_reff(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    successes = None
    oracle = effective_resistance(graph, args.i, args.j)
    cfg = _graph_clock(args, graph, shots=args.shots, seed=args.seed)
    if cfg is None:
        value = oracle
    else:
        value, outcome = hhl_resistance(graph, args.i, args.j, cfg)
        successes = outcome.successes
    _emit(
        {
            "method": "oracle" if args.oracle else "hhl",
            "i": args.i,
            "j": args.j,
            "effective_resistance": value,
            "oracle": oracle,
            "oracle_delta": abs(value - oracle),
            "shots": None if args.oracle else args.shots,
            "successes": successes,
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
    cfg = _graph_clock(args, graph)
    result = traffic_flow(graph, injections, method, cfg)
    oracle = result if args.oracle else traffic_flow(graph, injections)
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
    sl_p.add_argument("--kind", required=True, choices=SLICES)
    sl_p.add_argument("--a", type=int)
    sl_p.add_argument("--m", type=int)
    sl_p.add_argument("--d", type=int, help="diagonal offset D")
    sl_p.add_argument("--s", type=int, help="iso-sparsity value")
    sl_p.add_argument("--a-max", dest="a_max", type=int)
    sl_p.add_argument("--m-max", dest="m_max", type=int)
    sl_p.add_argument("--solver", default="HHL")
    sl_p.set_defaults(handler=cmd_superfamily_slice)

    hhl = groups.add_parser("hhl", help="statevector solver applications")
    clock_help = f"clock qubits of the simulator (default {DEFAULT_CLOCK_QUBITS})"
    hhl_sub = hhl.add_subparsers(dest="command")

    solve_p = hhl_sub.add_parser("solve", help="solve a problem file")
    solve_p.add_argument("problem", help="JSON problem description")
    solve_p.set_defaults(handler=cmd_hhl_solve)

    reff_p = hhl_sub.add_parser("reff", help="two-vertex effective resistance")
    reff_p.add_argument("graph", help="undirected edge-list file")
    reff_p.add_argument("--i", type=int, required=True)
    reff_p.add_argument("--j", type=int, required=True)
    reff_p.add_argument("--oracle", action="store_true", help="classical path only")
    reff_p.add_argument("--n-r", dest="n_r", type=int, help=clock_help)
    reff_p.add_argument(
        "--shots", type=int,
        help="sampled readout; the default clock post-selects rarely (p_success "
             "about 7e-6 on Q_8 at --n-r 10), so such a graph needs about 1e6 shots")
    reff_p.add_argument("--seed", type=int)
    reff_p.set_defaults(handler=cmd_hhl_reff)

    tr_p = hhl_sub.add_parser("traffic", help="minimum-norm traffic assignment")
    tr_p.add_argument("graph", help="directed edge-list file")
    tr_p.add_argument("injections", help="JSON file or comma-separated reals")
    tr_p.add_argument("--oracle", action="store_true", help="classical path only")
    tr_p.add_argument("--n-r", dest="n_r", type=int, help=clock_help)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
