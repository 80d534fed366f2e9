"""Survey orchestration: config plumbing, pipeline verdicts, persistence."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from nlsp.families import derive_seed, make_spec
from nlsp.graphs import Graph
from nlsp.survey import (
    CSV_COLUMNS,
    SurveyConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    fit_from_dict,
    fit_to_dict,
    geometric_scan,
    read_records_csv,
    run_survey,
    seed_sensitivity,
    write_records_csv,
)


@pytest.fixture(scope="module")
def survey_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("survey")
    config = SurveyConfig(
        families=(
            make_spec("hypercube", schedule=range(2, 9)),
            make_spec("ladder", schedule=range(5, 40, 5)),
            make_spec("sudoku", schedule=range(2, 8)),
        ),
        solvers=("HHL", "CKS(1)", "DREAM"),
        output_dir=str(out),
    )
    return run_survey(config)


def faint_weights(monkeypatch):
    """Scale every generated edge weight by 1e-8: λmin drops to 1e-8 of its
    unit-weight value while κ stays the same."""
    import nlsp.survey as survey_mod

    real_generate = survey_mod.generate

    def faint(spec, n):
        inst = real_generate(spec, n)
        g = inst.graph
        return dataclasses.replace(inst, graph=Graph(g.n_vertices, g.u, g.v, g.w * 1e-8))

    monkeypatch.setattr(survey_mod, "generate", faint)


def fail_at_n4(monkeypatch):
    """Make generation raise for every instance with n = 4."""
    import nlsp.survey as survey_mod

    real_generate = survey_mod.generate

    def flaky(spec, n):
        if n == 4:
            raise RuntimeError("synthetic failure")
        return real_generate(spec, n)

    monkeypatch.setattr(survey_mod, "generate", flaky)


def outcome_of(result, key):
    return next(o for o in result.outcomes if o.key == key)


class TestConfig:
    def test_validation(self):
        spec = make_spec("hypercube", schedule=(2, 3, 4, 5))
        with pytest.raises(ValueError, match="nonempty"):
            SurveyConfig(families=())
        with pytest.raises(KeyError, match="unknown solver"):
            SurveyConfig(families=(spec,), solvers=("GROVER",))
        with pytest.raises(ValueError, match="scan_range"):
            SurveyConfig(families=(spec,), scan_range=(10.0, 5.0))
        with pytest.raises(ValueError, match="cutoff"):
            SurveyConfig(families=(spec,), cutoff=0.0)
        with pytest.raises(ValueError, match="dense_limit"):
            SurveyConfig(families=(spec,), dense_limit=0)

    def test_family_keys_disambiguate(self):
        config = SurveyConfig(
            families=(
                make_spec("hypercube", schedule=(2, 3, 4, 5)),
                make_spec("hypercube", schedule=(2, 3, 4, 5), weight_rule="log_rule"),
                make_spec("hypercube", schedule=(2, 3, 4, 5)),
            )
        )
        assert config.family_keys() == (
            "hypercube",
            "hypercube:log_rule",
            "hypercube#2",
        )

    def test_round_trip_and_hash(self):
        config = SurveyConfig(
            families=(
                make_spec("hypercube", schedule=(2, 3, 4, 5)),
                make_spec("barabasi_albert", schedule=(10, 20, 30, 40), seed=7),
            ),
            cutoff=1e-7,
            solvers=("HHL",),
        )
        doc = json.loads(json.dumps(config_to_dict(config)))
        rebuilt = config_from_dict(doc)
        assert rebuilt.families == config.families
        assert config_hash(rebuilt) == config_hash(config)

    def test_hash_ignores_output_dir(self, tmp_path):
        spec = make_spec("hypercube", schedule=(2, 3, 4, 5))
        a = SurveyConfig(families=(spec,))
        b = SurveyConfig(families=(spec,), output_dir=str(tmp_path / "x"))
        assert config_hash(a) == config_hash(b)

    def test_base_seed_fills_missing_seeds(self):
        doc = {
            "schema": 1,
            "base_seed": 99,
            "families": [
                {"family": "barabasi_albert", "schedule": [10, 20, 30, 40]},
                {"family": "barabasi_albert", "schedule": [10, 20, 30, 40], "seed": 5},
                {"family": "hypercube", "schedule": [2, 3, 4, 5]},
            ],
        }
        config = config_from_dict(doc)
        assert config.families[0].seed == 99
        assert config.families[1].seed == 5
        assert config.base_seed == 99

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            config_from_dict({"schema": 99, "families": []})


class TestGeometricScan:
    def test_default_grid(self):
        scan = geometric_scan()
        assert scan[0] == 4.0
        assert scan[-1] <= 1e12
        assert all(b == 2 * a for a, b in zip(scan, scan[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_scan(0.0, 10.0)
        with pytest.raises(ValueError):
            geometric_scan(4.0, 10.0, factor=1.0)


class TestPipelineVerdicts:
    def test_hypercube_best_under_hhl(self, survey_result):
        outcome = outcome_of(survey_result, "hypercube")
        assert outcome.verdicts["HHL"].category == "best"
        assert str(outcome.kappa_fit.growth) == "log(n)"
        assert outcome.verdicts["HHL"].crossover_N is not None

    def test_ladder_bad_under_hhl_and_dream(self, survey_result):
        outcome = outcome_of(survey_result, "ladder")
        assert outcome.verdicts["HHL"].category == "bad"
        assert outcome.verdicts["DREAM"].category == "bad"
        assert outcome.verdicts["HHL"].crossover_N is None

    def test_sudoku_better_with_polylog_fits(self, survey_result):
        # the kappa series saturates toward a constant, so the selected
        # polylog degree depends on the window; the category does not
        outcome = outcome_of(survey_result, "sudoku")
        assert outcome.verdicts["HHL"].category == "better"
        assert outcome.kappa_fit.model == "polylog"
        assert outcome.s_fit.model == "polylog"


class TestPersistence:
    def test_row_count_matches_schedules(self, survey_result):
        rows = read_records_csv(Path(survey_result.config.output_dir) / "records.csv")
        expected = sum(len(s.schedule) for s in survey_result.config.families)
        assert len(rows) == expected
        assert len(survey_result.manifest_dict()["skipped"]) == 0

    def test_csv_round_trip(self, survey_result):
        path = Path(survey_result.config.output_dir) / "records.csv"
        assert read_records_csv(path) == survey_result.record_rows()

    def test_csv_schema(self, survey_result):
        header = (
            (Path(survey_result.config.output_dir) / "records.csv")
            .read_text()
            .splitlines()[0]
        )
        assert header == ",".join(CSV_COLUMNS)

    def test_every_row_traceable_to_manifest(self, survey_result):
        provenance = {(e["family"], e["n"]) for e in survey_result.manifest_dict()["entries"]}
        for row in survey_result.record_rows():
            assert (row.family, row.n) in provenance

    def test_deterministic_rows_have_no_seed(self, survey_result):
        for row in survey_result.record_rows():
            assert row.seed is None  # all three families are deterministic

    def test_report_structure(self, survey_result):
        report = json.loads(
            (Path(survey_result.config.output_dir) / "report.json").read_text()
        )
        assert report["config_hash"] == survey_result.manifest.config_hash
        for block in report["families"].values():
            if "verdicts" in block:
                assert "kappa_fit" in block and "s_fit" in block
                assert block["records"]
        hhl = report["families"]["hypercube"]["verdicts"]["HHL"]
        assert hhl["category"] == "best"
        assert hhl["crossover_N"] > 0

    def test_plot_series_emitted(self, survey_result):
        plots = Path(survey_result.config.output_dir) / "plots"
        for key in ("hypercube", "ladder", "sudoku"):
            assert (plots / f"{key}_kappa_s.csv").exists()
            assert (plots / f"{key}_ratio.csv").exists()
            lines = (plots / f"{key}_ratio_class.csv").read_text().splitlines()
            header = lines[0].split(",")
            assert header[:2] == ["n", "reference"]
            first = lines[1].split(",")
            assert first[0] == first[1]  # reference series is Rtilde = n

    def test_bitwise_reproduction(self, survey_result, tmp_path):
        config = dataclasses.replace(
            survey_result.config, output_dir=str(tmp_path / "again")
        )
        run_survey(config)
        first = (Path(survey_result.config.output_dir) / "records.csv").read_bytes()
        second = (tmp_path / "again" / "records.csv").read_bytes()
        assert first == second


def test_bitwise_reproduction_iterative_path(tmp_path):
    # Orders above dense_limit take shift-invert Lanczos; its start vector is
    # fixed, so a second run writes the same bytes.
    config = SurveyConfig(
        families=(
            make_spec("hypercube", schedule=range(2, 12)),
            make_spec("gn", schedule=range(100, 900, 100), seed=19),
        ),
        dense_limit=300,
        solvers=("HHL",),
        output_dir=str(tmp_path / "first"),
    )
    first = run_survey(config)
    assert len(first.record_rows()) == 18
    assert any(row.system_size > 300 for row in first.record_rows())
    run_survey(dataclasses.replace(config, output_dir=str(tmp_path / "second")))
    assert (tmp_path / "first" / "records.csv").read_bytes() == (
        tmp_path / "second" / "records.csv"
    ).read_bytes()


def test_environment_does_not_change_records(tmp_path, monkeypatch):
    # Every setting comes from the config: no NLSP_<KEY> variable reaches a
    # measurement.  With a dense limit of 50, gn would take Lanczos.
    config = SurveyConfig(
        families=(
            make_spec("gn", schedule=(100, 200, 300), seed=3),
            make_spec("grid_2d", schedule=range(3, 8)),
        ),
        solvers=("HHL",),
        output_dir=str(tmp_path / "plain"),
    )
    run_survey(config)
    for key, value in (("dense_limit", "50"), ("cutoff", "0.5")):
        monkeypatch.setenv(f"NLSP_{key.upper()}", value)
    run_survey(dataclasses.replace(config, output_dir=str(tmp_path / "env")))
    assert (tmp_path / "plain" / "records.csv").read_bytes() == (
        tmp_path / "env" / "records.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "family, schedule, params",
    [
        ("complete", range(2, 8), None),  # N = 2 at n = 2
        ("generalized_hypercube", None, None),  # default schedule: N = 2 at m = 1
        ("generalized_hypercube", range(1, 7), {"a": 3}),  # κ fit 1 - 8e-16 at N = 3
    ],
    ids=["complete", "generalized-hypercube", "generalized-hypercube-a3"],
)
def test_ratio_series_of_small_systems(tmp_path, family, schedule, params):
    spec = make_spec(family, schedule=schedule, params=params)
    result = run_survey(SurveyConfig(families=(spec,), output_dir=str(tmp_path)))
    outcome = result.outcomes[0]
    assert set(outcome.verdicts) == set(result.config.solvers)
    lines = (tmp_path / "plots" / f"{outcome.key}_ratio.csv").read_text().splitlines()
    sizes = [rec.system_size for _, rec in outcome.records]
    assert [int(line.split(",")[0]) for line in lines[1:]] == [N for N in sizes if N >= 3]


class TestRandomFamilyRows:
    def test_derived_seed_recorded(self, tmp_path):
        config = SurveyConfig(
            families=(make_spec("barabasi_albert", schedule=(10, 20, 30, 40), seed=7),),
            solvers=("HHL",),
            output_dir=str(tmp_path),
        )
        result = run_survey(config)
        rows = result.record_rows()
        assert [r.seed for r in rows] == [
            derive_seed(7, "barabasi_albert", n) for n in (10, 20, 30, 40)
        ]
        for entry in result.manifest_dict()["entries"]:
            assert entry["seed"] is not None


class TestSkips:
    def test_failed_instances_recorded_and_run_continues(self, tmp_path, monkeypatch):
        fail_at_n4(monkeypatch)
        config = SurveyConfig(
            families=(make_spec("hypercube", schedule=range(2, 9)),),
            solvers=("HHL",),
            output_dir=str(tmp_path),
        )
        result = run_survey(config)
        rows = read_records_csv(tmp_path / "records.csv")
        assert len(rows) == 7 - 1
        skipped = result.manifest_dict()["skipped"]
        assert [s["n"] for s in skipped] == [4]
        assert "synthetic failure" in skipped[0]["error"]
        # six points remain: fits and verdicts still come out
        assert result.outcomes[0].verdicts["HHL"].category == "best"

    def test_written_manifest_has_one_entry_per_row_and_one_skip(self, tmp_path, monkeypatch):
        fail_at_n4(monkeypatch)
        config = SurveyConfig(
            families=(
                make_spec("hypercube", schedule=range(2, 9)),
                make_spec("gnp", schedule=(5, 6, 7, 8), seed=3),
            ),
            solvers=("HHL",),
            output_dir=str(tmp_path),
        )
        run_survey(config)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        rows = read_records_csv(tmp_path / "records.csv")
        assert [(e["family"], e["n"], e["seed"], e["system_size"]) for e in manifest["entries"]] == [
            (r.family, r.n, r.seed, r.system_size) for r in rows
        ]
        assert len(rows) == 6 + 4
        assert manifest["skipped"] == [
            {"family": "hypercube", "n": 4, "error": "RuntimeError: synthetic failure"}
        ]

    def test_eigenvalue_at_or_below_cutoff_is_flagged_not_dropped(self, monkeypatch):
        faint_weights(monkeypatch)
        config = SurveyConfig(
            families=(make_spec("hypercube", schedule=(2, 3, 4, 5)),), solvers=("HHL",)
        )
        result = run_survey(config)
        outcome = result.outcomes[0]
        assert outcome.errors == ()
        for n, rec in outcome.records:
            # hypercube Q_n: λ = 2k·1e-8, so κ = n as at unit weight
            assert rec.kappa == pytest.approx(n, rel=1e-9)
            assert rec.lambda_min_nz == pytest.approx(2e-8, rel=1e-9)
        flagged = [note for note in outcome.notes if "at or below the cutoff" in note]
        assert len(flagged) == 4
        assert result.report_dict()["families"]["hypercube"]["notes"][:4] == flagged

    def test_config_cutoff_fills_the_records_and_the_flags(self, tmp_path, monkeypatch):
        faint_weights(monkeypatch)  # λmin = 2e-8, below the cutoff
        config = SurveyConfig(
            families=(make_spec("hypercube", schedule=(2, 3, 4, 5)),),
            cutoff=1e-7,
            solvers=("HHL",),
            output_dir=str(tmp_path),
        )
        result = run_survey(config)
        with open(tmp_path / "records.csv", newline="") as f:
            assert [row["cutoff"] for row in csv.DictReader(f)] == ["1e-07"] * 4
        notes = result.outcomes[0].notes
        assert len([n for n in notes if "at or below the cutoff 1e-07" in n]) == 4

    def test_too_few_records_yields_no_verdict(self, monkeypatch):
        import nlsp.survey as survey_mod

        monkeypatch.setattr(
            survey_mod,
            "generate",
            lambda spec, n: (_ for _ in ()).throw(RuntimeError("down")),
        )
        config = SurveyConfig(
            families=(make_spec("hypercube", schedule=(2, 3, 4, 5)),),
            solvers=("HHL",),
        )
        result = run_survey(config)
        outcome = result.outcomes[0]
        assert outcome.verdicts == {}
        assert outcome.kappa_fit is None
        assert any("fits need" in note for note in outcome.notes)
        report = result.report_dict()
        assert "verdicts" not in report["families"]["hypercube"]


class TestSeedSensitivity:
    def test_directed_gaussian_all_better_and_stable(self):
        config = SurveyConfig(
            families=(
                make_spec(
                    "gaussian_random_partition_directed", schedule=range(20, 96, 15)
                ),
            ),
            solvers=("HHL",),
        )
        report = seed_sensitivity(config, (10, 19, 50))
        key = "gaussian_random_partition_directed"
        for seed in (10, 19, 50):
            assert report.families[key][seed]["HHL"] == "better"
        assert report.stable(key)

    def test_barabasi_albert_stable_across_seeds(self):
        # at desk scale the BA kappa series tracks the max degree and the
        # selected model is window-dependent; stability across seeds is the
        # asserted property
        config = SurveyConfig(
            families=(make_spec("barabasi_albert", schedule=range(50, 451, 50)),),
            solvers=("HHL",),
        )
        report = seed_sensitivity(config, (10, 23, 50))
        assert report.stable("barabasi_albert")

    def test_config_dense_limit_reaches_the_eigensolver(self, monkeypatch):
        import nlsp.spectral as spectral_mod

        calls = []
        real_eigsh = spectral_mod.spla.eigsh

        def counting(*args, **kwargs):
            calls.append(kwargs.get("k"))
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral_mod.spla, "eigsh", counting)
        config = SurveyConfig(
            families=(make_spec("gnp", schedule=(20, 30, 40, 50)),),
            dense_limit=10,
            solvers=("HHL",),
        )
        seed_sensitivity(config, (1, 2))
        # each of the 2 x 4 connected instances: k=1 for λmax, k=c+1=2 for λmin
        assert calls == [1, 2] * 8

    def test_deterministic_family_rejected(self):
        config = SurveyConfig(families=(make_spec("hypercube", schedule=(2, 3, 4, 5)),))
        with pytest.raises(ValueError, match="deterministic"):
            seed_sensitivity(config, (1, 2))

    def test_seed_list_validation(self):
        config = SurveyConfig(
            families=(make_spec("barabasi_albert", schedule=(10, 20, 30, 40), seed=1),)
        )
        with pytest.raises(ValueError, match="at least 2"):
            seed_sensitivity(config, (7,))
        with pytest.raises(ValueError, match="distinct"):
            seed_sensitivity(config, (7, 7))


class TestFitSerialization:
    def test_round_trip(self, survey_result):
        fit = outcome_of(survey_result, "hypercube").kappa_fit
        rebuilt = fit_from_dict(json.loads(json.dumps(fit_to_dict(fit))))
        assert rebuilt == fit
        assert rebuilt.predict(64.0) == fit.predict(64.0)


class TestRecordsCsvIO:
    def test_reject_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)

    def test_write_then_read(self, tmp_path, survey_result):
        rows = survey_result.record_rows()[:3]
        path = tmp_path / "sub.csv"
        write_records_csv(path, rows)
        assert read_records_csv(path) == rows
