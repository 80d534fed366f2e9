"""Command-line interface: command wiring, outputs, exit codes."""

import json
import math

import pytest

from nlsp.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from nlsp.graphs import Graph, write_edge_list
from nlsp.survey import write_records_csv, read_records_csv, RecordRow


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with open(path, "w") as f:
        write_edge_list(g, f)
    return str(path)


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
        # deterministic, weighted, random Laplacian (flagged envelope) and
        # random incidence (envelope drops points) families
        doc = {
            "schema": 1,
            "output_dir": str(tmp_path / "out"),
            "families": [
                {"family": "ladder", "schedule": [5, 10, 15, 20, 25, 30]},
                {"family": "hypercube", "schedule": [3, 4, 5, 6, 7, 8], "weight_rule": "log_rule"},
                {"family": "gnp", "schedule": list(range(20, 101, 10)), "seed": 3},
                {"family": "gn", "schedule": list(range(20, 101, 10)), "seed": 19},
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

        assert list(fitted) == list(report) == ["ladder", "hypercube:log_rule", "gnp", "gn"]
        assert report["gnp"]["envelope_flagged"]
        assert report["gn"]["kappa_fit"]["n_points"] < 9
        for key, block in report.items():
            for field in ("kappa_fit", "s_fit", "envelope_flagged"):
                assert fitted[key][field] == block[field]
            categories = {name: v["category"] for name, v in block["verdicts"].items()}
            assert {n: v["category"] for n, v in classified[key]["verdicts"].items()} == categories
            assert crossed[key]["crossover_N"] == block["verdicts"]["HHL"]["crossover_N"]

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

    def test_run_missing_and_invalid_config(self, tmp_path, capsys):
        assert main(["survey", "run", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        assert main(["survey", "run", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_fit_with_too_few_records(self, tmp_path, capsys):
        rows = [
            RecordRow("hypercube", n, 2**n, "laplacian", float(n), 2.0, 2.0 * n, n + 1, 1e-6, None)
            for n in (2, 3)
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, rows)
        assert main(["survey", "fit", str(path)]) == EXIT_PARTIAL
        doc = read_json(capsys)
        assert "error" in doc["families"]["hypercube"]

    def test_classify_unknown_family_filter(self, tmp_path, capsys):
        fits = tmp_path / "fits.json"
        fits.write_text(json.dumps({"schema": 1, "families": {}}))
        assert (
            main(["survey", "classify", str(fits), "--family", "ghost"]) == EXIT_CONFIG
        )


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

    def test_slice_missing_parameter(self, capsys):
        assert main(["superfamily", "slice", "--kind", "row", "--a-max", "6"]) == EXIT_CONFIG
        assert "requires --m" in capsys.readouterr().err

    def test_slice_first_row_excluded(self, capsys):
        code = main(["superfamily", "slice", "--kind", "row", "--m", "1", "--a-max", "6"])
        assert code == EXIT_CONFIG


class TestHhlCommands:
    def test_solve_problem_file(self, tmp_path, c4_file, capsys):
        problem = {
            "matrix": {"edge_list": c4_file, "matrix_kind": "laplacian"},
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
            "matrix": {"edge_list": c4_file, "matrix_kind": "laplacian"},
            "b": [1.0, -1.0, 0.0, 0.0],
            "config": {"n_r": 10},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["hhl", "solve", str(path)]) == EXIT_OK
        assert read_json(capsys)["oracle_delta"] < 1e-2

    def test_solve_null_b_is_config_error(self, tmp_path, c4_file, capsys):
        problem = {
            "matrix": {"edge_list": c4_file, "matrix_kind": "laplacian"},
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

    def test_reff_oracle_and_hhl(self, c4_file, capsys):
        assert main(["hhl", "reff", c4_file, "--i", "0", "--j", "1", "--oracle"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["effective_resistance"] == pytest.approx(0.75, abs=1e-12)
        assert main(["hhl", "reff", c4_file, "--i", "0", "--j", "1", "--n-r", "8"]) == EXIT_OK
        doc = read_json(capsys)
        assert doc["effective_resistance"] == pytest.approx(0.75, rel=1e-2)
        assert doc["oracle_delta"] < 1e-2

    def test_reff_same_vertex_rejected(self, c4_file, capsys):
        assert main(["hhl", "reff", c4_file, "--i", "1", "--j", "1", "--oracle"]) == EXIT_CONFIG

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

    def test_traffic_injection_file_and_imbalance(self, tmp_path, dc4_file, capsys):
        inj = tmp_path / "inj.json"
        inj.write_text("[1.0, 0.0, 0.0, 0.0]")
        assert main(["hhl", "traffic", dc4_file, "--oracle", str(inj)]) == EXIT_CONFIG
        assert "imbalanced" in capsys.readouterr().err
