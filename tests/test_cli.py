"""Command-line interface: command wiring, outputs, exit codes."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlsp
from nlsp.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from nlsp.graphs import (
    Graph,
    SymmetricMatrix,
    laplacian,
    pad_to_power_of_two,
    read_edge_list,
    write_edge_list,
)
from nlsp.hhl import (
    DEFAULT_CLOCK_QUBITS,
    abs_row_bound,
    default_config,
    effective_resistance,
    graph_config,
    hhl_solve,
    traffic_flow,
)
from nlsp.solvers import SOLVERS
from nlsp.superfamily import (
    column_slice,
    iso_s_slice,
    main_diagonal_slice,
    row_slice,
    slice_verdict,
    sub_diagonal_slice,
    super_diagonal_slice,
)
from nlsp.survey import write_records_csv, read_records_csv, RecordRow


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with open(path, "w") as f:
        write_edge_list(g, f)
    return str(path)


# A problem-file matrix on the edge list of c4_file, which the test fills in.
C4 = {"edge_list": "<c4_file>"}


@pytest.fixture
def dc4_file(tmp_path):
    path = tmp_path / "dc4.edges"
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
    with open(path, "w") as f:
        write_edge_list(g, f)
    return str(path)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestTopLevel:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "survey" in capsys.readouterr().out

    def test_group_without_command(self, capsys):
        assert main(["survey"]) == EXIT_CONFIG


class TestReproTables:
    def test_text_report(self, capsys):
        assert main(["repro", "tables"]) == EXIT_OK
        assert "50/50 rows reproduced" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["repro", "tables", "--json"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["matched"] == doc["total"] == 50

    def test_corrupted_row_reported(self, capsys, monkeypatch):
        import nlsp.tables as tables_mod

        bad = dict(tables_mod.CATEGORY_LABEL)
        bad["best"] = "poly"  # mislabel exponential advantage
        monkeypatch.setattr(tables_mod, "CATEGORY_LABEL", bad)
        assert main(["repro", "tables"]) == EXIT_PARTIAL
        assert "MISMATCH" in capsys.readouterr().out


class TestSurveyCommands:
    @pytest.fixture
    def config_file(self, tmp_path):
        doc = {
            "schema": 1,
            "solvers": ["HHL", "DREAM"],
            "output_dir": str(tmp_path / "out"),
            "families": [{"family": "hypercube", "schedule": [2, 3, 4, 5, 6, 7]}],
        }
        path = tmp_path / "survey.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_fit_classify_crossover(self, tmp_path, config_file, capsys):
        assert main(["survey", "run", str(config_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hypercube: 6 records" in out and "best" in out
        records = tmp_path / "out" / "records.csv"
        assert records.exists()

        fits = tmp_path / "fits.json"
        assert main(["survey", "fit", str(records), "--out", str(fits)]) == EXIT_OK
        capsys.readouterr()
        fits_doc = json.loads(fits.read_text())
        assert fits_doc["families"]["hypercube"]["kappa_fit"]["model"] == "polylog"

        assert main(["survey", "classify", str(fits), "--solver", "HHL"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["families"]["hypercube"]["verdicts"]["HHL"]["category"] == "best"

        assert (
            main(["survey", "crossover", str(fits), "--solver", "HHL", "--max-N", "1e10"])
            == EXIT_OK
        )
        doc = read_json(capsys)
        assert doc["families"]["hypercube"]["crossover_N"] == pytest.approx(8388608.0)

    def test_fit_classify_crossover_agree_with_the_survey_report(self, tmp_path, capsys):
        # deterministic, weighted, random Laplacian (flagged envelope),
        # random incidence (envelope drops points) and random families whose
        # N is not monotone in n (records come in n order, fits in N order)
        doc = {
            "schema": 1,
            "output_dir": str(tmp_path / "out"),
            "families": [
                {"family": "ladder", "schedule": [5, 10, 15, 20, 25, 30]},
                {"family": "hypercube", "schedule": [3, 4, 5, 6, 7, 8], "weight_rule": "log_rule"},
                {"family": "gnp", "schedule": list(range(20, 101, 10)), "seed": 3},
                {"family": "gn", "schedule": list(range(20, 101, 10)), "seed": 19},
                {"family": "random_lobster", "schedule": list(range(10, 80, 5))},
            ],
        }
        config = tmp_path / "survey.json"
        config.write_text(json.dumps(doc))
        assert main(["survey", "run", str(config)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())["families"]
        fits = tmp_path / "fits.json"
        records = str(tmp_path / "out" / "records.csv")
        assert main(["survey", "fit", records, "--out", str(fits)]) == EXIT_OK
        capsys.readouterr()
        fitted = json.loads(fits.read_text())["families"]
        assert main(["survey", "classify", str(fits)]) == EXIT_OK
        classified = read_json(capsys)["families"]
        assert main(["survey", "crossover", str(fits), "--solver", "HHL"]) == EXIT_OK
        crossed = read_json(capsys)["families"]

        assert list(fitted) == list(report) == [
            "ladder", "hypercube:log_rule", "gnp", "gn", "random_lobster",
        ]
        assert report["gnp"]["envelope_flagged"]
        assert report["gn"]["kappa_fit"]["n_points"] < 9
        for key, block in report.items():
            for field in ("kappa_fit", "s_fit", "envelope_flagged"):
                assert fitted[key][field] == block[field]
            categories = {name: v["category"] for name, v in block["verdicts"].items()}
            assert {n: v["category"] for n, v in classified[key]["verdicts"].items()} == categories
            assert crossed[key]["crossover_N"] == block["verdicts"]["HHL"]["crossover_N"]

    def test_classify_refuses_a_size_growth_set_by_params(self, tmp_path, capsys):
        # records.csv carries no params, so N(n) = 3^n of a=3 cannot be told
        # from the default a=2; the verdicts live in report.json
        doc = {
            "schema": 1,
            "output_dir": str(tmp_path / "out"),
            "families": [
                {"family": "generalized_hypercube", "schedule": [1, 2, 3, 4, 5, 6],
                 "params": {"a": 3}},
                {"family": "hypercube", "schedule": [2, 3, 4, 5, 6, 7]},
            ],
        }
        config = tmp_path / "survey.json"
        config.write_text(json.dumps(doc))
        assert main(["survey", "run", str(config)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())["families"]
        assert report["generalized_hypercube"]["size_growth"] == "3^n"
        fits = tmp_path / "fits.json"
        records = str(tmp_path / "out" / "records.csv")
        assert main(["survey", "fit", records, "--out", str(fits)]) == EXIT_OK
        capsys.readouterr()
        assert main(["survey", "classify", str(fits)]) == EXIT_PARTIAL
        classified = read_json(capsys)["families"]
        assert set(classified["generalized_hypercube"]) == {"error"}
        assert "report.json" in classified["generalized_hypercube"]["error"]
        assert classified["hypercube"]["verdicts"]["HHL"]["category"] == "best"

    def test_run_output_dir_override(self, tmp_path, config_file, capsys):
        override = tmp_path / "elsewhere"
        code = main(["survey", "run", str(config_file), "--output-dir", str(override)])
        assert code == EXIT_OK
        assert (override / "records.csv").exists()

    def test_run_partial_failures_exit_code(self, tmp_path, config_file, monkeypatch, capsys):
        import nlsp.survey as survey_mod

        real = survey_mod.generate

        def flaky(spec, n):
            if n == 5:
                raise RuntimeError("boom")
            return real(spec, n)

        monkeypatch.setattr(survey_mod, "generate", flaky)
        assert main(["survey", "run", str(config_file)]) == EXIT_PARTIAL
        assert "1 skipped" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
    def test_run_with_a_dead_worker_exits_partial(self, tmp_path, config_file, monkeypatch, capsys):
        import nlsp.survey as survey_mod

        real = survey_mod.generate

        def fatal(spec, n):
            if n == 5:
                os._exit(1)
            return real(spec, n)

        monkeypatch.setattr(survey_mod, "generate", fatal)
        assert main(["survey", "run", str(config_file), "--workers", "2"]) == EXIT_PARTIAL
        assert "hypercube: " in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert {"family": "hypercube", "n": 5} in [
            {k: s[k] for k in ("family", "n")} for s in manifest["skipped"]
        ]
        assert multiprocessing.active_children() == []

    def test_run_missing_and_invalid_config(self, tmp_path, capsys):
        assert main(["survey", "run", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        assert main(["survey", "run", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("dense_limit", "x"), ("base_seed", "x"), ("solvers", "HHL"), ("schedule", 5)],
    )
    def test_run_badly_typed_config_value(self, tmp_path, key, value, capsys):
        family = {"family": "hypercube", "schedule": [2, 3, 4, 5]}
        doc = {"schema": 1, "families": [family]}
        (family if key == "schedule" else doc)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["survey", "run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # the type is at fault, not the name of a key or a solver
        assert err.startswith("error: bad config:") and "unknown" not in err

    @pytest.mark.parametrize("where, key", [("family", "shedule"), ("config", "cutoff")])
    def test_run_unknown_config_key(self, tmp_path, where, key, capsys):
        family = {"family": "hypercube", "schedule": [2, 3, 4, 5]}
        doc = {"schema": 1, "families": [family]}
        (family if where == "family" else doc)[key] = [10, 20]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["survey", "run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: bad config: unknown key '{key}'")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("schedule", [2.5, 3, 4, 5], "schedule entry must be an integer, got 2.5"),
            ("schedule", ["4"], "schedule entry must be an integer, got '4'"),
            ("dense_limit", 2.5, "dense_limit must be a positive integer, got 2.5"),
            ("seed", True, "seed must be a non-negative integer, got True"),
            ("seed", -3, "seed must be a non-negative integer, got -3"),
            ("solvers", ["FOO"], f"unknown solver 'FOO'; choices: {', '.join(SOLVERS)}"),
            ("solvers", [1], "a solver name must be a string, got 1"),
        ],
    )
    def test_run_non_integer_sizes(self, tmp_path, key, value, message, capsys):
        family = {"family": "hypercube", "schedule": [2, 3, 4, 5]}
        doc = {"schema": 1, "families": [family]}
        (family if key in ("schedule", "seed") else doc)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["survey", "run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: bad config: {message}\n"

    @pytest.mark.parametrize("output_dir", [None, "out"])
    def test_run_a_config_that_is_no_object(self, tmp_path, output_dir, capsys):
        # --output-dir is written into the document only when it is an object
        path = tmp_path / "bad.json"
        path.write_text("[]")
        extra = [] if output_dir is None else ["--output-dir", str(tmp_path / output_dir)]
        assert main(["survey", "run", str(path), *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: bad config: the config must be an object, got list\n"

    def test_fit_with_too_few_records(self, tmp_path, capsys):
        rows = [
            RecordRow("hypercube", n, 2**n, "laplacian", float(n), 2.0, 2.0 * n, n + 1, 1e-6, None)
            for n in (2, 3)
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, rows)
        assert main(["survey", "fit", str(path)]) == EXIT_PARTIAL
        doc = read_json(capsys)
        assert "fits need 4 points, got 2" in doc["families"]["hypercube"]["error"]

    def test_fit_refuses_a_non_finite_record_before_lapack(self, tmp_path, capfd):
        # stdout is read at fd 1: a LAPACK complaint about a NaN input would
        # land there, ahead of the JSON
        rows = [
            RecordRow("hypercube", n, 2**n, "laplacian", kappa, 2.0, 2.0 * n, n + 1, 1e-6, None)
            for n, kappa in ((2, 2.0), (3, math.nan), (4, 4.0), (5, 5.0), (6, 6.0))
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, rows)
        assert main(["survey", "fit", str(path)]) == EXIT_PARTIAL
        doc = json.loads(capfd.readouterr().out)
        error = doc["families"]["hypercube"]["error"]
        assert error == "fit failed: ys must be finite and positive, got nan"

    def test_unknown_family_is_config_error(self, tmp_path, capsys):
        rows = [
            RecordRow("hypercube", n, 2**n, "laplacian", float(n), 2.0, 2.0 * n, n + 1, 1e-6, None)
            for n in (3, 4, 5, 6)
        ]
        path, fits = tmp_path / "records.csv", tmp_path / "fits.json"
        write_records_csv(path, rows)
        assert main(["survey", "fit", str(path), "--out", str(fits)]) == EXIT_OK
        doc = json.loads(fits.read_text())
        doc["families"] = {"no_such_family": doc["families"]["hypercube"]}
        fits.write_text(json.dumps(doc))
        write_records_csv(path, [row._replace(family="no_such_family") for row in rows])
        capsys.readouterr()
        for argv in (["survey", "fit", str(path)], ["survey", "classify", str(fits)]):
            assert main(argv) == EXIT_CONFIG
            assert "error: unknown family 'no_such_family'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "crossover"])
    def test_unknown_solver_is_config_error(self, tmp_path, command, capsys):
        fits = tmp_path / "fits.json"
        fits.write_text(json.dumps({"schema": 1, "families": {}}))
        assert main(["survey", command, str(fits), "--solver", "nope"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: unknown solver 'nope'")

    def test_classify_unknown_family_filter(self, tmp_path, capsys):
        fits = tmp_path / "fits.json"
        fits.write_text(json.dumps({"schema": 1, "families": {}}))
        assert (
            main(["survey", "classify", str(fits), "--family", "ghost"]) == EXIT_CONFIG
        )

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_run_rejects_fewer_than_one_worker(self, config_file, workers, capsys):
        assert main(["survey", "run", str(config_file), "--workers", workers]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: max_workers must be a positive integer")

    @pytest.mark.parametrize("max_n", ["2", "nan"])
    def test_crossover_rejects_a_scan_bound_below_its_start(self, tmp_path, max_n, capsys):
        fits = tmp_path / "fits.json"
        fits.write_text(json.dumps({"schema": 1, "families": {}}))
        argv = ["survey", "crossover", str(fits), "--solver", "HHL", "--max-N", max_n]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: bad --max-N")

    @pytest.mark.parametrize("command", ["classify", "crossover"])
    @pytest.mark.parametrize(
        "families, message",
        [
            ([1, 2], "fits file needs a 'families' object"),
            ({"hypercube": "fits"}, "family 'hypercube': fits block must be an object"),
            (
                {"hypercube": {
                    "kappa_fit": {"model": "polylog", "degree": 1, "sse": 0.0, "score": 0.0,
                                  "n_points": 4, "kind": "kappa"},
                    "s_fit": {},
                }},
                "family 'hypercube': fit lacks field 'coefficients'",
            ),
            (
                {"gnp": {
                    "kappa_fit": {"model": "quartic", "degree": 4, "coefficients": [1.0, 0.5, 0.1],
                                  "sse": 0.0, "score": 0.0, "n_points": 4, "kind": "kappa"},
                    "s_fit": {"model": "constant", "degree": 0, "coefficients": [3.0],
                              "sse": 0.0, "score": 0.0, "n_points": 4, "kind": "sparsity"},
                }},
                "family 'gnp': malformed fit: unknown model 'quartic'; "
                "choices: constant, polylog, polynomial, exponential",
            ),
        ],
        ids=["families-list", "block-text", "no-coefficients", "unknown-model"],
    )
    def test_malformed_fits_file(self, tmp_path, command, families, message, capsys):
        fits = tmp_path / "fits.json"
        fits.write_text(json.dumps({"schema": 1, "families": families}))
        assert main(["survey", command, str(fits), "--solver", "HHL"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSuperfamilyCommands:
    def test_tableau_stdout_and_csv(self, tmp_path, capsys):
        assert main(["superfamily", "tableau", "--a-max", "3", "--m-max", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("a,m,N")
        assert "3,2,9,2" in out
        target = tmp_path / "tab.csv"
        code = main(
            ["superfamily", "tableau", "--a-max", "3", "--m-max", "2", "--csv", str(target)]
        )
        assert code == EXIT_OK and target.exists()

    def test_slice_row_better(self, capsys):
        code = main(["superfamily", "slice", "--kind", "row", "--m", "2", "--a-max", "6"])
        assert code == EXIT_OK
        doc = read_json(capsys)
        assert doc["category"] == "better"
        assert doc["cells"][0] == [2, 2]

    @pytest.mark.parametrize(
        "flags, sl",
        [
            (["--kind", "row", "--m", "2", "--a-max", "6"], row_slice(2, 6)),
            (["--kind", "column", "--a", "3", "--m-max", "5"], column_slice(3, 5)),
            (["--kind", "main_diagonal", "--a-max", "6"], main_diagonal_slice(6)),
            (["--kind", "super_diagonal", "--d", "1", "--a-max", "6"], super_diagonal_slice(1, 6)),
            (["--kind", "sub_diagonal", "--d", "2", "--a-max", "6"], sub_diagonal_slice(2, 6)),
            (["--kind", "iso_s", "--s", "7"], iso_s_slice(7)),
        ],
        ids=lambda x: x[1] if isinstance(x, list) else None,
    )
    def test_slice_each_kind_matches_the_library(self, flags, sl, capsys):
        assert main(["superfamily", "slice", *flags, "--solver", "DREAM"]) == EXIT_OK
        verdict = slice_verdict(sl, "DREAM")
        assert read_json(capsys) == {
            "kind": sl.kind,
            "parameter": sl.parameter,
            "cells": [[c.a, c.m] for c in sl.cells],
            "solver": "DREAM",
            "category": verdict.category,
            "ratio_class": str(verdict.ratio_class),
            "futile": verdict.futile,
        }

    def test_slice_missing_parameter(self, capsys):
        assert main(["superfamily", "slice", "--kind", "row", "--a-max", "6"]) == EXIT_CONFIG
        assert "requires --m" in capsys.readouterr().err

    def test_slice_unknown_solver(self, capsys):
        argv = ["superfamily", "slice", "--kind", "row", "--m", "4", "--a-max", "4"]
        assert main(argv + ["--solver", "nope"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: unknown solver 'nope'")

    def test_slice_first_row_excluded(self, capsys):
        code = main(["superfamily", "slice", "--kind", "row", "--m", "1", "--a-max", "6"])
        assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["survey fit", "superfamily tableau"])
def test_output_into_a_missing_directory_is_an_input_error(tmp_path, command, capsys):
    rows = [
        RecordRow("hypercube", n, 2**n, "laplacian", float(n), 2.0, 2.0 * n, n + 1, 1e-6, None)
        for n in (3, 4, 5, 6)
    ]
    write_records_csv(tmp_path / "records.csv", rows)
    target = tmp_path / "missing" / "out"
    argv = {
        "survey fit": ["survey", "fit", str(tmp_path / "records.csv"), "--out", str(target)],
        "superfamily tableau": [
            "superfamily", "tableau", "--a-max", "3", "--m-max", "2", "--csv", str(target)
        ],
    }[command]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


class TestHhlCommands:
    def test_solve_problem_file(self, tmp_path, c4_file, capsys):
        problem = {
            "matrix": {"edge_list": c4_file},
            "b": [1.0, -1.0, 0.0, 0.0],
            "config": {"n_r": 6, "t": math.pi / 4.0, "C": 0.2},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["oracle_delta"] < 1e-8
        assert doc["clock_zero_weight"] == pytest.approx(1.0)

    def test_solve_default_config_from_bound(self, tmp_path, c4_file, capsys):
        problem = {
            "matrix": {"edge_list": c4_file},
            "b": [1.0, -1.0, 0.0, 0.0],
            "config": {"n_r": 10},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_OK
        assert read_json(capsys)["oracle_delta"] < 1e-2

    def test_solve_null_b_is_config_error(self, tmp_path, c4_file, capsys):
        problem = {
            "matrix": {"edge_list": c4_file},
            "b": [1.0, 1.0, 1.0, 1.0],
            "config": {"n_r": 6, "t": math.pi / 4.0, "C": 0.2},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_CONFIG
        assert "null space" in capsys.readouterr().err

    def test_solve_dense_matrix(self, tmp_path, capsys):
        problem = {
            "matrix": {"dense": [[2.0, 0.0], [0.0, 4.0]]},
            "b": [1.0, 1.0],
            "config": {"n_r": 3, "t": 2.0 * math.pi / 8.0, "C": 0.25},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_OK
        assert read_json(capsys)["oracle_delta"] < 1e-10

    @pytest.mark.parametrize("lower, code", [(-1.00001, EXIT_CONFIG), (-1.0 - 2e-15, EXIT_OK)])
    def test_solve_dense_symmetry_is_relative_to_the_largest_entry(
        self, tmp_path, lower, code, capsys
    ):
        # a relative gap of 1e-5 is an asymmetric matrix; one of 1e-15 is
        # rounding, and the upper triangle is solved
        dense = [[2.0, -1.0, 0.0, 0.0], [lower, 2.0, -1.0, 0.0],
                 [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 2.0]]
        problem = {"matrix": {"dense": dense}, "b": [1.0, 0.0, 0.0, -1.0], "config": {"n_r": 8}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == code
        out = capsys.readouterr()
        if code == EXIT_CONFIG:
            assert out.err.startswith("error: dense matrix must be symmetric")
            return
        upper = np.triu(np.array(dense))
        matrix = SymmetricMatrix(upper + np.triu(upper, 1).T)
        want = hhl_solve(matrix, [1.0, 0.0, 0.0, -1.0], default_config(8, abs_row_bound(matrix)))
        assert json.loads(out.out)["p_success"] == want.p_success

    @pytest.mark.parametrize(
        "matrix, b, config, message",
        [
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 6, "shots": "100"},
             "bad solver config"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 6, "lambda_min": "2"},
             "bad solver config"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 4, "shots": 100, "seed": "3"},
             "seed must be a non-negative int"),
            ({"dense": [[2.0, 0.0], [0.0]]}, [1.0, 1.0], {"n_r": 3}, "dense matrix"),
            (C4, [1.0, "x", 0.0, 0.0], {"n_r": 6}, "b must be"),
            (C4, [1.0, math.nan, 0.0, -1.0], {"n_r": 6}, "b must be finite"),
            ({"dense": [[math.nan, 0.0], [0.0, 1.0]]}, [1.0, 1.0], {"n_r": 3},
             "dense matrix must be finite"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 2.5, "t": 0.5, "C": 0.1},
             "n_r must be a positive integer"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 2.5}, "n_r must be a positive integer"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 2000}, "bad solver config"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 6, "t": math.nan, "C": 0.1},
             "t must be a finite number > 0"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 6, "t": 0.5, "C": math.nan},
             "C must be a finite number > 0"),
            ({**C4, "dense": [[1.0]]}, [1.0, -1.0, 0.0, 0.0], {"n_r": 6},
             "matrix needs exactly one of 'dense' and 'edge_list'"),
            ({**C4, "matrix_kind": "laplacian"}, [1.0, -1.0, 0.0, 0.0], {"n_r": 6},
             "unknown key 'matrix_kind' in matrix"),
            ({**C4, "signed": False}, [1.0, -1.0, 0.0, 0.0], {"n_r": 6},
             "unknown key 'signed' in matrix"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 10, "lamda_min": 2.0},
             "unknown key 'lamda_min' in config"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 6, "t": 0.5}, "config.C is missing"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 6, "C": 0.1}, "config.t is missing"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 8, "t": 0.5, "C": 0.01, "lambda_min": 1},
             "config.lambda_min sets the default clock"),
            (C4, [1.0, -1.0, 0.0, 0.0], {"n_r": 8, "t": 0.5, "C": 0.01, "signed": True},
             "config.signed sets the default clock"),
        ],
        ids=[
            "shots-text", "lambda_min-text", "seed-text", "ragged-dense", "b-text", "b-nan",
            "dense-nan", "n_r-fraction", "n_r-fraction-default",
            "n_r-overflow", "t-nan", "C-nan", "two-matrices", "matrix_kind", "matrix-signed",
            "config-misspelt", "t-without-C", "C-without-t", "clock-and-lambda_min",
            "clock-and-signed",
        ],
    )
    def test_solve_malformed_problem(self, tmp_path, c4_file, matrix, b, config, message, capsys):
        matrix = {k: c4_file if v == C4["edge_list"] else v for k, v in matrix.items()}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"matrix": matrix, "b": b, "config": config}))
        assert main(["hhl", "solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_solve_padded_incidence_is_the_traffic_flow_solve(self, tmp_path, capsys):
        # the padded dilation of a problem file and traffic_flow's hhl path
        # are one solve: the edge block of the reconstruction is the flow
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=True)
        edges = tmp_path / "dp4.edges"
        with open(edges, "w") as f:
            write_edge_list(g, f)
        problem = {
            "matrix": {"edge_list": str(edges)},
            "b": [-1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            "config": {"n_r": 9},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_OK
        doc = read_json(capsys)
        flow = traffic_flow(g, [-1.0, 0.0, 0.0, 1.0], "hhl", graph_config(g, 9)).flow
        assert doc["reconstruction"][4:7] == flow.tolist()
        assert doc["oracle_delta"] <= 2e-2 * max(abs(x) for x in doc["oracle_solution"])

    def test_solve_pads_to_a_power_of_two(self, tmp_path, capsys):
        # P_3 has order 3: the command solves its Laplacian padded with the
        # row bound, with b zero-extended, as hhl_solve does when called so
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        edges = tmp_path / "p3.edges"
        with open(edges, "w") as f:
            write_edge_list(g, f)
        problem = {"matrix": {"edge_list": str(edges)}, "b": [1.0, 0.0, -1.0],
                   "config": {"n_r": 8}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_OK
        doc = read_json(capsys)
        lap = laplacian(g)
        bound = abs_row_bound(lap)
        padded = pad_to_power_of_two(lap, bound)
        b = np.array([1.0, 0.0, -1.0, 0.0])
        want = hhl_solve(padded, b, default_config(8, bound)).solution
        if float(want @ (np.linalg.pinv(padded.to_dense()) @ b)) < 0:
            want = -want
        assert doc["reconstruction"] == want.tolist()

    @pytest.mark.parametrize("signed, code", [(None, EXIT_OK), (True, EXIT_OK), (False, EXIT_CONFIG)])
    def test_solve_digraph_defaults_to_the_signed_window(
        self, tmp_path, dc4_file, signed, code, capsys
    ):
        # the dilation of a digraph has eigenvalues of both signs: without
        # config.signed the clock takes the signed window, as with
        # "signed": true, while "signed": false puts the top eigenvalue
        # past the half window
        config = {"n_r": 9} if signed is None else {"n_r": 9, "signed": signed}
        problem = {"matrix": {"edge_list": dc4_file}, "b": [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                   "config": config}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == code
        out = capsys.readouterr()
        if code == EXIT_OK:
            g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
            cfg = graph_config(g, 9)
            assert json.loads(out.out)["scale"] == cfg.t / (2.0 * math.pi * cfg.C)
        else:
            assert out.err.startswith("error: scaled-eigenvalue bound violated")

    def test_solve_rejects_the_pad_key(self, tmp_path, c4_file, capsys):
        # every problem is padded, so the retired key fails by name
        problem = {"matrix": {"edge_list": c4_file}, "b": [1.0, -1.0, 0.0, 0.0], "pad": True,
                   "config": {"n_r": 6}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: unknown key 'pad' in the problem file")

    def test_short_edge_list_line(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("undirected 3\n0 1\n2\n")
        assert main(["hhl", "reff", str(path), "--i", "0", "--j", "1"]) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_edge_weight(self, tmp_path, weight):
        path = tmp_path / "bad.edges"
        path.write_text(f"undirected 3\n0 1 {weight}\n1 2 1\n")
        # An unchecked infinite weight made the classical pseudo-inverse
        # hang, so the command runs in a child process under a timeout.
        done = subprocess.run(
            [sys.executable, "-m", "nlsp", "hhl", "reff", str(path), "--i", "0", "--j", "2",
             "--oracle"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(nlsp.__file__).parents[1])},
        )
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.startswith("error:") and "non-finite weight" in done.stderr

    def test_graph_of_the_wrong_direction(self, c4_file, dc4_file, capsys):
        assert main(["hhl", "reff", dc4_file, "--i", "0", "--j", "1"]) == EXIT_CONFIG
        assert "undirected graphs" in capsys.readouterr().err
        assert main(["hhl", "traffic", c4_file, "--", "-1,1,0,0"]) == EXIT_CONFIG
        assert "directed graphs" in capsys.readouterr().err

    def test_reff_oracle_and_hhl(self, c4_file, capsys):
        assert main(["hhl", "reff", c4_file, "--i", "0", "--j", "1", "--oracle"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["effective_resistance"] == pytest.approx(0.75, abs=1e-12)
        assert main(["hhl", "reff", c4_file, "--i", "0", "--j", "1", "--n-r", "8"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["effective_resistance"] == pytest.approx(0.75, rel=1e-2)
        assert doc["oracle_delta"] < 1e-2

    def test_reff_matches_the_library_on_the_row_bound_clock(self, c4_file, capsys):
        # p_success ≈ 7e-5 at this clock: 10⁶ shots post-select about 70
        argv = ["hhl", "reff", c4_file, "--i", "0", "--j", "2"]
        assert main(argv + ["--n-r", "8", "--shots", "1000000", "--seed", "3"]) == EXIT_OK
        with open(c4_file) as f:
            g = read_edge_list(f)
        # the 4-cycle Laplacian's largest absolute row sum is 2 + 1 + 1
        cfg = default_config(8, 4.0, shots=1000000, seed=3)
        want = effective_resistance(g, 0, 2, "hhl", cfg)
        assert read_json(capsys)["effective_resistance"] == want

    def test_reff_reports_the_success_count(self, c4_file, capsys):
        argv = ["hhl", "reff", c4_file, "--i", "0", "--j", "2", "--n-r", "8"]
        assert main(argv + ["--shots", "1000000", "--seed", "3"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["shots"] == 1000000 and 0 < doc["successes"] < 1000
        assert main(argv) == EXIT_OK
        doc = read_json(capsys)
        assert (doc["shots"], doc["successes"]) == (None, None)

    def test_reff_with_no_success_is_an_error(self, tmp_path, capsys):
        # Q_8 at the default clock: p_success ≈ 7e-6, so 1000 shots
        # post-select nothing and no resistance can be read off them
        g = Graph.from_edges(
            256, [(u, u | 1 << k) for u in range(256) for k in range(8) if not u >> k & 1]
        )
        path = tmp_path / "q8.edges"
        with open(path, "w") as f:
            write_edge_list(g, f)
        argv = ["hhl", "reff", str(path), "--i", "0", "--j", "77", "--n-r", "10"]
        assert main(argv + ["--shots", "1000", "--seed", "1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: post-selection succeeded in none of 1000 shots")

    def test_reff_same_vertex_rejected(self, c4_file, capsys):
        assert main(["hhl", "reff", c4_file, "--i", "1", "--j", "1", "--oracle"]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["1 2 1 7", "1", "1 x", "1.5 2", "1 2 heavy"])
    def test_reff_rejects_an_edge_line_of_the_wrong_width(self, tmp_path, line, capsys):
        # the weight is the third field; a fourth is an error, not ignored;
        # a field that does not parse is named by its line too
        path = tmp_path / "bad.edges"
        path.write_text(f"undirected 4\n0 1\n{line}\n2 3\n")
        assert main(["hhl", "reff", str(path), "--i", "0", "--j", "1", "--oracle"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load graph: edge-list line 3:")
        assert repr(line) in err

    def test_traffic_oracle(self, dc4_file, capsys):
        code = main(["hhl", "traffic", dc4_file, "--oracle", "--", "-1,1,0,0"])
        assert code == EXIT_OK
        doc = read_json(capsys)
        assert doc["flow"] == pytest.approx([0.75, -0.25, -0.25, -0.25], abs=1e-12)
        assert doc["negative_lanes"] == [1, 2, 3]

    def test_traffic_hhl_close_to_oracle(self, dc4_file, capsys):
        code = main(["hhl", "traffic", dc4_file, "--n-r", "10", "--", "-1,1,0,0"])
        assert code == EXIT_OK
        assert read_json(capsys)["oracle_delta"] < 2e-3

    def test_traffic_matches_the_library_on_the_row_bound_clock(self, dc4_file, capsys):
        assert main(["hhl", "traffic", dc4_file, "--n-r", "9", "--", "-1,1,0,0"]) == EXIT_OK
        with open(dc4_file) as f:
            g = read_edge_list(f)
        # every row of the directed 4-cycle's dilation holds two entries of size 1
        cfg = default_config(9, 2.0, signed=True)
        want = traffic_flow(g, [-1.0, 1.0, 0.0, 0.0], "hhl", cfg).flow
        assert read_json(capsys)["flow"] == [float(x) for x in want]

    @pytest.mark.parametrize("flag", ["--oracle", "--n-r=6"])
    def test_traffic_non_finite_injections(self, dc4_file, flag, capsys):
        assert main(["hhl", "traffic", dc4_file, flag, "--", "nan,0,0,0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: injections must be finite\n"

    def test_traffic_injection_file_and_imbalance(self, tmp_path, dc4_file, capsys):
        inj = tmp_path / "inj.json"
        inj.write_text("[1.0, 0.0, 0.0, 0.0]")
        assert main(["hhl", "traffic", dc4_file, "--oracle", str(inj)]) == EXIT_CONFIG
        assert "imbalanced" in capsys.readouterr().err
        inj.write_text('[1.0, "x", 0.0, 0.0]')
        assert main(["hhl", "traffic", dc4_file, "--oracle", str(inj)]) == EXIT_CONFIG
        assert "comma-separated reals" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("reff", "--n-r", "0"), ("reff", "--shots", "5"), ("reff", "--seed", "3"),
        ("traffic", "--n-r", "8"),
    ])
    def test_oracle_refuses_a_clock_flag(self, c4_file, dc4_file, command, flag, value, capsys):
        if command == "reff":
            argv = ["hhl", "reff", c4_file, "--i", "0", "--j", "1"]
        else:
            argv = ["hhl", "traffic", dc4_file, "1,-1,0,0"]
        assert main(argv + ["--oracle", flag, value]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --oracle runs no clock; drop {flag}\n"

    @pytest.mark.parametrize("command", ["reff", "traffic"])
    def test_omitted_n_r_is_the_default_clock(self, c4_file, dc4_file, command, capsys):
        if command == "reff":
            argv, tail = ["hhl", "reff", c4_file, "--i", "0", "--j", "2"], []
        else:
            argv, tail = ["hhl", "traffic", dc4_file], ["--", "-1,1,0,0"]
        assert main(argv + tail) == EXIT_OK
        implicit = capsys.readouterr().out
        assert main(argv + ["--n-r", str(DEFAULT_CLOCK_QUBITS)] + tail) == EXIT_OK
        assert capsys.readouterr().out == implicit

    @pytest.mark.parametrize("command", ["reff", "traffic"])
    def test_the_simulated_system_is_built_once(
        self, c4_file, dc4_file, command, monkeypatch, capsys
    ):
        # the default clock reads its bound off the system matrix, so only
        # the solve pads
        calls = []

        def counted(m, fill):
            calls.append(m.order)
            return pad_to_power_of_two(m, fill)

        monkeypatch.setattr(nlsp.hhl, "pad_to_power_of_two", counted)
        if command == "reff":
            argv = ["hhl", "reff", c4_file, "--i", "0", "--j", "2"]
        else:
            argv = ["hhl", "traffic", dc4_file, "--", "-1,1,0,0"]
        assert main(argv) == EXIT_OK
        assert calls == [4 if command == "reff" else 8]

    def test_vertex_count_outside_int64_is_refused(self, tmp_path, capsys):
        path = tmp_path / "huge.edges"
        path.write_text("undirected 1180591620717411303424\n0 1\n")
        assert main(["hhl", "reff", str(path), "--i", "0", "--j", "1", "--oracle"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: cannot load graph: vertex count 1180591620717411303424 lies outside int64\n"
        )

    def test_weighted_digraph_is_refused(self, tmp_path, capsys):
        # a digraph's arcs carry unit weight: B would leave 5 and 0.25 unread
        path = tmp_path / "weighted.edges"
        path.write_text("directed 4\n0 1 5\n1 2\n2 3\n3 0 0.25\n")
        assert main(["hhl", "traffic", str(path), "--oracle", "--", "-1,1,0,0"]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "",
            "error: cannot load graph: edge (0,1) has weight 5.0, but a digraph's arcs carry "
            "unit weight\n",
        )
