"""networkx is imported only by a build of a family that networkx generates.

Each check runs in a fresh interpreter, since this test process has loaded
networkx already.  Before ``import nlsp`` the script installs a meta-path
finder that records the pid of every process importing networkx, forked
survey workers included.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nlsp
from nlsp.families import CATALOG

NATIVE = {
    "hypercube", "generalized_hypercube", "modified_mgg", "grid_2d", "grid_2d_square",
    "complete", "turan", "gnp", "barabasi_albert", "paley", "directed_hypercube", "gn",
    "gnr", "gnc",
}

PRELUDE = '''
import json, os, sys

class Importers:
    def __init__(self, path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name == "networkx":
            with open(self.path, "a") as f:
                f.write(f"{os.getpid()}\\n")
        return None

sys.meta_path.insert(0, Importers(sys.argv[1]))
import nlsp
'''

forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")


def run_fresh(script: str, tmp_path: Path) -> tuple[str, list[int]]:
    """stdout of ``script`` after the prelude, and the pids that imported networkx."""
    marker = tmp_path / "importers"
    marker.touch()
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script), str(marker)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(nlsp.__file__).parents[1])},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, [int(pid) for pid in marker.read_text().split()]


def test_catalog_flags_exactly_the_networkx_families():
    assert {f for f, e in CATALOG.items() if not e.needs_networkx} == NATIVE


def test_import_nlsp_leaves_networkx_out(tmp_path):
    _, importers = run_fresh('assert "networkx" not in sys.modules', tmp_path)
    assert importers == []


def test_tables_and_superfamily_commands_leave_networkx_out(tmp_path):
    _, importers = run_fresh('''
        import nlsp.cli
        assert nlsp.cli.main(["repro", "tables"]) == 0
        assert nlsp.cli.main(["superfamily", "slice", "--kind", "column", "--a", "3",
                              "--m-max", "5"]) == 0
    ''', tmp_path)
    assert importers == []


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=forking)])
def test_native_survey_leaves_networkx_out(tmp_path, workers):
    _, importers = run_fresh(f'''
        specs = tuple(nlsp.make_spec(f, schedule=range(5, 13))
                      for f in ("complete", "turan", "gnp"))
        result = nlsp.run_survey(nlsp.SurveyConfig(families=specs), max_workers={workers})
        assert all(i.record is not None for o in result.outcomes for i in o.instances)
    ''', tmp_path)
    assert importers == []


@forking
def test_sparse_bench_survey_leaves_networkx_out(tmp_path):
    # the families of the benchmark's survey-sparse workload, on small
    # schedules, measured by two forked workers
    _, importers = run_fresh('''
        specs = (
            nlsp.make_spec("hypercube", schedule=range(2, 7)),
            nlsp.make_spec("hypercube", schedule=(5, 6, 7), weight_rule="quadratic_rule"),
            nlsp.make_spec("grid_2d", schedule=(3, 4, 5)),
            nlsp.make_spec("modified_mgg", schedule=(10, 14, 18)),
            nlsp.make_spec("barabasi_albert", schedule=(100, 200, 300), seed=1),
            nlsp.make_spec("gn", schedule=(50, 100, 150), seed=1),
            nlsp.make_spec("gnr", schedule=(50, 100, 150), seed=1),
            nlsp.make_spec("gnr", schedule=(50, 100, 150), seed=19, params={"repair": True}),
            nlsp.make_spec("gnc", schedule=(20, 40, 60), seed=1),
            nlsp.make_spec("directed_hypercube", schedule=range(2, 6)),
        )
        config = nlsp.SurveyConfig(families=specs, dense_limit=256)
        result = nlsp.run_survey(config, max_workers=2)
        assert all(i.record is not None for o in result.outcomes for i in o.instances)
    ''', tmp_path)
    assert importers == []


def test_hhl_bench_graphs_leave_networkx_out(tmp_path):
    # the graphs of the benchmark's hhl-sim workload
    _, importers = run_fresh('''
        def gen(family, n, **kw):
            return nlsp.generate(nlsp.make_spec(family, schedule=(n,), **kw), n).graph

        graphs = [gen("hypercube", d) for d in (8, 9, 10)]
        graphs += [gen("complete", 200), gen("turan", 300),
                   gen("barabasi_albert", 300, seed=1), gen("gnp", 200, seed=1)]
        graphs += [gen("directed_hypercube", d) for d in (6, 7)]
        assert all(g.n_edges for g in graphs)
    ''', tmp_path)
    assert importers == []


@forking
def test_networkx_survey_imports_it_before_the_pool_forks(tmp_path):
    out, importers = run_fresh('''
        loaded_at_fork, fork = [], os.fork

        def recording_fork():
            loaded_at_fork.append("networkx" in sys.modules)
            return fork()

        os.fork = recording_fork
        specs = (nlsp.make_spec("complete", schedule=range(5, 9)),
                 nlsp.make_spec("ladder", schedule=range(5, 9)))
        result = nlsp.run_survey(nlsp.SurveyConfig(families=specs), max_workers=2)
        assert all(i.record is not None for o in result.outcomes for i in o.instances)
        print(json.dumps({"pid": os.getpid(), "loaded_at_fork": loaded_at_fork}))
    ''', tmp_path)
    seen = json.loads(out.splitlines()[-1])
    assert seen["loaded_at_fork"] and all(seen["loaded_at_fork"])
    # the workers inherit networkx; none imports it again
    assert importers == [seen["pid"]]


def test_in_process_survey_imports_it_before_any_instance_is_timed(tmp_path):
    # one worker measures in this process: its first generate_s must not
    # carry the import
    out, importers = run_fresh('''
        import nlsp.survey as survey

        loaded_at_generate, generate = [], survey.generate

        def recording_generate(spec, n):
            loaded_at_generate.append("networkx" in sys.modules)
            return generate(spec, n)

        survey.generate = recording_generate
        spec = nlsp.make_spec("random_lobster", schedule=(10, 15, 20))
        nlsp.run_survey(nlsp.SurveyConfig(families=(spec,)), max_workers=1)
        print(json.dumps({"pid": os.getpid(), "loaded_at_generate": loaded_at_generate}))
    ''', tmp_path)
    seen = json.loads(out.splitlines()[-1])
    assert seen["loaded_at_generate"] == [True, True, True]
    assert importers == [seen["pid"]]


@forking
def test_each_entry_flag_matches_what_its_first_build_loads(tmp_path):
    # every build runs in a fresh worker forked from a process without networkx
    out, importers = run_fresh('''
        import multiprocessing
        from nlsp.families import CATALOG

        def loads_networkx(family_id):
            entry = CATALOG[family_id]
            nlsp.generate(nlsp.make_spec(family_id), entry.default_schedule[0])
            return family_id, "networkx" in sys.modules

        with multiprocessing.get_context("fork").Pool(2, maxtasksperchild=1) as pool:
            loaded = dict(pool.imap_unordered(loads_networkx, list(CATALOG), chunksize=1))
        print(json.dumps(loaded))
    ''', tmp_path)
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == {f: e.needs_networkx for f, e in CATALOG.items()}
    assert len(importers) == sum(e.needs_networkx for e in CATALOG.values())
