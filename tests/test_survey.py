"""Survey orchestration: config plumbing, pipeline verdicts, persistence."""

import collections
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp.families import WEIGHT_RULES, FamilySpec, catalog_entry, derive_seed, make_spec
from nlsp.graphs import Graph
from nlsp.survey import (
    CSV_COLUMNS,
    DEFAULT_SOLVERS,
    SurveyConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    fit_from_dict,
    fit_growth,
    fit_series,
    fit_to_dict,
    geometric_scan,
    read_records_csv,
    run_survey,
    seed_sensitivity,
    upper_envelope,
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
        for limit in (0, 2.5, True, "10"):
            with pytest.raises(ValueError, match="dense_limit must be a positive integer"):
                SurveyConfig(families=(spec,), dense_limit=limit)
        assert SurveyConfig(families=(spec,), dense_limit=np.int64(10)).dense_limit == 10

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

    @pytest.mark.parametrize("key", ["cutoff", "scan_range"])
    def test_retired_setting_rejected(self, key):
        doc = {"schema": 1, "families": [{"family": "hypercube"}], key: 1e-6}
        with pytest.raises(ValueError, match=f"unknown key '{key}' in the config; allowed: schema"):
            config_from_dict(doc)

    def test_misspelt_family_key_rejected(self):
        # read leniently, gnp would run its whole catalog schedule
        doc = {"schema": 1, "families": [{"family": "gnp", "shedule": [10, 20, 30, 40]}]}
        with pytest.raises(ValueError, match="unknown key 'shedule' in a family entry; allowed"):
            config_from_dict(doc)

    @pytest.mark.parametrize("entry", ["hypercube", 3, ["family", "hypercube"]])
    def test_family_entry_must_be_an_object(self, entry):
        with pytest.raises(ValueError, match="a family entry must be an object"):
            config_from_dict({"schema": 1, "families": [entry]})

    def test_reader_allows_exactly_the_written_keys(self):
        doc = config_to_dict(SurveyConfig(families=(make_spec("hypercube"),)))
        assert set(doc) == set(_CONFIG_KEYS)
        assert set(doc["families"][0]) == set(_FAMILY_KEYS)


_FAMILIES = ("hypercube", "ladder", "generalized_hypercube", "barabasi_albert", "gnp", "gn")
_CONFIG_KEYS = ("schema", "dense_limit", "solvers", "output_dir", "base_seed", "families")
_FAMILY_KEYS = ("family", "schedule", "seed", "params", "weight_rule")
_seeds = st.integers(0, 2**32)


@st.composite
def family_specs(draw):
    family = draw(st.sampled_from(_FAMILIES))
    entry = catalog_entry(family)
    params = {}
    if family == "generalized_hypercube":
        params["a"] = draw(st.integers(2, 5))
    if entry.directed and draw(st.booleans()):
        params["repair"] = True
    return make_spec(
        family,
        schedule=sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=8))),
        seed=draw(_seeds) if entry.random else draw(st.none() | _seeds),
        params=params,
        weight_rule=draw(st.sampled_from(WEIGHT_RULES)) if entry.weightable else "unit",
    )


survey_configs = st.builds(
    SurveyConfig,
    families=st.lists(family_specs(), min_size=1, max_size=4),
    dense_limit=st.none() | st.integers(1, 10_000),
    solvers=st.lists(st.sampled_from(DEFAULT_SOLVERS), min_size=1, unique=True),
    base_seed=st.none() | _seeds,
)
unknown_keys = st.text(min_size=1, max_size=12).filter(
    lambda key: key not in _CONFIG_KEYS + _FAMILY_KEYS
)


@settings(max_examples=150, deadline=None)
@given(survey_configs, unknown_keys, st.integers(-1, 3))
def test_config_document_round_trips_and_admits_no_other_key(config, key, where):
    doc = json.loads(json.dumps(config_to_dict(config)))
    rebuilt = config_from_dict(doc)
    assert rebuilt == config
    assert config_hash(rebuilt) == config_hash(config)
    # one extra key, at the top level (where = -1) or in a family entry
    target = doc if where < 0 else doc["families"][where % len(doc["families"])]
    target[key] = 1
    with pytest.raises(ValueError, match="unknown key"):
        config_from_dict(doc)


class TestGeometricScan:
    def test_default_grid(self):
        scan = geometric_scan()
        assert scan[0] == 4.0
        assert scan[-1] <= 1e12
        assert all(b == 2 * a for a, b in zip(scan, scan[1:]))

    def test_validation(self):
        assert geometric_scan(4.0) == (4.0,)
        for stop in (3.9, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite stop >= 4"):
                geometric_scan(stop)


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


Point = collections.namedtuple("Point", "system_size kappa sparsity")


class TestFitGrowth:
    # the series as a fit sees it: increasing N, one point per N
    SIZES = (16, 24, 40, 64, 96, 150, 230, 360)
    KAPPAS = (3.0, 4.5, 4.0, 9.0, 12.5, 11.0, 30.0, 41.0)
    SPARSITIES = (3, 4, 4, 5, 7, 6, 9, 12)

    def shuffled_records(self):
        """The series as instances in no order, where the instances at
        N = 40 and 150 each hold the largest κ or the largest s, not both."""
        ties = {40: [Point(40, 4.0, 2), Point(40, 1.5, 4)],
                150: [Point(150, 7.0, 6), Point(150, 11.0, 3), Point(150, 10.0, 1)]}
        records = [
            point
            for size, kappa, s in zip(self.SIZES, self.KAPPAS, self.SPARSITIES)
            for point in ties.get(size, [Point(size, kappa, s)])
        ]
        random.Random(5).shuffle(records)
        assert [r.system_size for r in records] != sorted(r.system_size for r in records)
        return records

    def test_shuffled_ties_fit_as_the_sorted_merged_series(self):
        want = fit_series(self.SIZES, self.KAPPAS, "kappa"), fit_series(
            self.SIZES, self.SPARSITIES, "sparsity"
        )
        assert fit_growth(False, self.shuffled_records()) == (*want, False)

    def test_random_family_takes_the_envelope_of_the_merged_series(self):
        k_env = upper_envelope(self.SIZES, self.KAPPAS)
        s_env = upper_envelope(self.SIZES, self.SPARSITIES)
        assert len(k_env.xs) < len(self.SIZES)  # the envelope drops points here
        want = (
            fit_series(k_env.xs, k_env.ys, "kappa"),
            fit_series(s_env.xs, s_env.ys, "sparsity"),
            k_env.flagged or s_env.flagged,
        )
        assert fit_growth(True, self.shuffled_records()) == want

    @pytest.mark.parametrize("random_family", [False, True])
    def test_too_few_distinct_sizes(self, random_family):
        records = [Point(10, 2.0, 3), Point(20, 3.0, 3), Point(20, 3.5, 4), Point(30, 4.0, 5)]
        with pytest.raises(ValueError, match="fits need 4 points, got 3"):
            fit_growth(random_family, records)

    def test_random_family_whose_size_is_not_monotone_in_n(self):
        # N of random_lobster jumps about with n (27, 16, 45, ... at the
        # default seed), so its fits must order the records by N
        config = SurveyConfig(families=(make_spec("random_lobster", schedule=range(10, 80, 5)),))
        outcome = run_survey(config).outcomes[0]
        sizes = [rec.system_size for _, rec in outcome.records]
        assert sizes != sorted(sizes)
        assert outcome.fit_notes == ()
        assert outcome.kappa_fit is not None and outcome.s_fit is not None
        assert set(outcome.verdicts) == set(config.solvers)


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
    # Orders above dense_limit take Lanczos; its start vector is
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

    def test_cutoff_fills_the_records_and_the_flags(self, tmp_path, monkeypatch):
        faint_weights(monkeypatch)  # λmin = 2e-8, below the cutoff
        config = SurveyConfig(
            families=(make_spec("hypercube", schedule=(2, 3, 4, 5)),),
            solvers=("HHL",),
            output_dir=str(tmp_path),
        )
        result = run_survey(config)
        with open(tmp_path / "records.csv", newline="") as f:
            assert [row["cutoff"] for row in csv.DictReader(f)] == ["1e-06"] * 4
        notes = result.outcomes[0].notes
        assert len([n for n in notes if "at or below the cutoff 1e-06" in n]) == 4

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

    def test_fewer_than_one_worker_rejected(self):
        config = SurveyConfig(families=(make_spec("hypercube", schedule=(2, 3)),))
        for workers in (0, -1):
            with pytest.raises(ValueError, match="max_workers must be at least 1"):
                run_survey(config, max_workers=workers)


FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")


def exit_at_n(monkeypatch, dying_n):
    """Make the process that generates n = dying_n exit at once, as a worker
    killed mid-instance would."""
    import nlsp.survey as survey_mod

    real_generate = survey_mod.generate

    def fatal(spec, n):
        if n == dying_n:
            os._exit(1)
        return real_generate(spec, n)

    monkeypatch.setattr(survey_mod, "generate", fatal)


class TestWorkers:
    # every eigensolver path and both matrix kinds, deterministic and random
    CONFIG = dict(
        families=(
            make_spec("hypercube", schedule=range(2, 10)),
            make_spec("gn", schedule=(20, 40, 60, 80), seed=3),
            make_spec("random_lobster", schedule=(30, 60, 90, 120, 150)),
            make_spec("directed_hypercube", schedule=range(2, 7)),
        ),
        dense_limit=40,
        solvers=("HHL", "DREAM"),
    )

    @FORK
    @pytest.mark.parametrize("workers", [None, 3])
    def test_pool_writes_the_one_worker_outputs(self, tmp_path, workers):
        outputs, paths = {}, {}
        for count in (1, workers):
            out = tmp_path / str(count)
            result = run_survey(SurveyConfig(**self.CONFIG, output_dir=str(out)), max_workers=count)
            outputs[count] = [(out / name).read_bytes() for name in ("records.csv", "report.json")]
            paths[count] = [e["eigensolver"] for e in result.manifest_dict()["entries"]]
        assert outputs[workers] == outputs[1]
        assert paths[workers] == paths[1]
        assert set(paths[1]) == {"dense", "factor-free", "grounded"}
        assert multiprocessing.active_children() == []

    @FORK
    def test_a_dead_worker_fails_instances_not_the_run(self, tmp_path, monkeypatch):
        exit_at_n(monkeypatch, 60)
        config = SurveyConfig(**self.CONFIG, output_dir=str(tmp_path))
        result = run_survey(config, max_workers=2)
        assert multiprocessing.active_children() == []
        for outcome, spec in zip(result.outcomes, config.families):
            assert [i.n for i in outcome.instances] == list(spec.schedule)
            for i in outcome.instances:
                assert (i.record is None) != (i.error is None)
        lost = dict(outcome_of(result, "gn").errors)[60]
        assert lost.startswith("BrokenProcessPool: worker process ")
        assert "exited with code 1 before this instance was measured" in lost
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["entries"]) + len(manifest["skipped"]) == sum(
            len(spec.schedule) for spec in config.families
        )
        assert {"family": "gn", "n": 60, "error": lost} in manifest["skipped"]

    @FORK
    def test_specs_are_not_pickled_per_job(self, monkeypatch):
        def unpicklable(self, protocol):
            raise TypeError("a FamilySpec was pickled")

        monkeypatch.setattr(FamilySpec, "__reduce_ex__", unpicklable)
        result = run_survey(SurveyConfig(**self.CONFIG), max_workers=2)
        assert not any(o.errors for o in result.outcomes)

    @pytest.mark.parametrize("platform", ["one worker", "no fork"])
    def test_runs_in_process_without_a_pool(self, monkeypatch, platform):
        def no_fork():
            raise AssertionError("a worker process was forked")

        workers = 1
        if platform == "no fork":
            monkeypatch.delattr(os, "fork", raising=False)
            workers = 2
        else:
            monkeypatch.setattr(os, "fork", no_fork)
        config = SurveyConfig(families=(make_spec("hypercube", schedule=range(2, 6)),))
        result = run_survey(config, max_workers=workers)
        assert len(result.outcomes[0].records) == 4


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
        import nlsp.survey as survey_mod

        runs = []
        real_run = survey_mod.run_survey

        def recording(config):
            runs.append(real_run(config))
            return runs[-1]

        monkeypatch.setattr(survey_mod, "run_survey", recording)
        config = SurveyConfig(
            families=(make_spec("gnp", schedule=(20, 30, 40, 50)),),
            dense_limit=10,
            solvers=("HHL",),
        )
        seed_sensitivity(config, (1, 2))
        # orders 20..50 take eigvalsh under the default limit; under 10, each
        # of the 2 x 4 instances takes Lanczos, and factor-free Lanczos finds
        # λmin on these well-conditioned graphs
        paths = [i.record.eigensolver for r in runs for o in r.outcomes for i in o.instances]
        assert paths == ["factor-free"] * 8

    def test_report_matches_one_worker_runs(self):
        config = SurveyConfig(
            families=(
                make_spec("gnp", schedule=(20, 30, 40, 50, 60)),
                make_spec("barabasi_albert", schedule=range(50, 301, 50)),
            ),
        )
        seeds = (4, 9)
        report = seed_sensitivity(config, seeds)
        want = {key: {} for key in config.family_keys()}
        for seed in seeds:
            reseeded = tuple(dataclasses.replace(s, seed=seed) for s in config.families)
            result = run_survey(dataclasses.replace(config, families=reseeded), max_workers=1)
            for outcome in result.outcomes:
                want[outcome.key][seed] = {
                    name: outcome.verdicts[name].category for name in config.solvers
                }
        assert report.families == want

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
