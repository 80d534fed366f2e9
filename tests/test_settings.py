"""Settings: each kind (whole number, real, flag) is read by one rule.

A setting of the wrong kind or out of range is refused with a ValueError
that names it, wherever it enters: a constructor, a library call, a survey
config or a problem file.  Nothing is truncated or coerced first.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp.cli import EXIT_CONFIG, main
from nlsp.families import make_spec
from nlsp.graphs import Graph
from nlsp.hhl import HhlConfig, default_config
from nlsp.superfamily import TableauCell
from nlsp.survey import SurveyConfig, config_hash, run_survey, seed_sensitivity

_SPEC = make_spec("hypercube", schedule=(2, 3))

# (setting, build with the setting set to a value, least admitted value)
WHOLE = [
    ("n_r", lambda v: HhlConfig(n_r=v, t=1.0, C=0.1), 1),
    ("n_r", lambda v: default_config(v, 8.0), 1),
    ("shots", lambda v: HhlConfig(n_r=4, t=1.0, C=0.1, shots=v), 1),
    ("seed", lambda v: HhlConfig(n_r=4, t=1.0, C=0.1, shots=10, seed=v), 0),
    ("schedule entry", lambda v: make_spec("hypercube", schedule=(v,)), None),
    ("seed", lambda v: make_spec("gnp", schedule=(5, 6), seed=v), 0),
    ("dense_limit", lambda v: SurveyConfig(families=(_SPEC,), dense_limit=v), 1),
    ("base_seed", lambda v: SurveyConfig(families=(_SPEC,), base_seed=v), 0),
    ("max_workers", lambda v: run_survey(SurveyConfig(families=(_SPEC,)), max_workers=v), 1),
    ("a", lambda v: TableauCell(v, 1), 2),
    ("m", lambda v: TableauCell(2, v), 1),
    ("a", lambda v: make_spec("generalized_hypercube", params={"a": v}, schedule=(1,)), 2),
]
# (setting, build, largest admitted value); every real lies in (0, largest]
REAL = [
    ("t", lambda v: HhlConfig(n_r=4, t=v, C=0.1), math.inf),
    ("C", lambda v: HhlConfig(n_r=4, t=1.0, C=v), math.inf),
    ("lambda_max", lambda v: default_config(4, v), math.inf),
    ("lambda_min", lambda v: default_config(4, 8.0, v), 8.0),
]
FLAG = [
    ("directed", lambda v: Graph.from_edges(3, [(0, 1), (1, 2)], directed=v)),
    ("repair", lambda v: make_spec("gn", schedule=(5, 6), params={"repair": v})),
    ("signed", lambda v: default_config(4, 8.0, signed=v)),
]

WRONG_KIND = [True, False, 2.0, 2.5, "2", np.float64(3.0), np.bool_(True)]
# settings that None does not leave at a default
REQUIRED = {"n_r", "schedule entry", "a", "m"}


def _refused(name: str, build, value) -> None:
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        build(value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_whole_number_of_the_wrong_kind_or_out_of_range_is_refused(data):
    name, build, least = data.draw(st.sampled_from(WHOLE))
    wrong = st.sampled_from(WRONG_KIND + ([None] if name in REQUIRED else []))
    if least is not None:
        below = st.integers(-(2**63), least - 1)
        wrong = wrong | below | below.map(np.int64) | st.integers(max_value=-(2**64))
    _refused(name, build, data.draw(wrong))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_whole_number_of_the_right_kind_in_range_is_accepted(data):
    name, build, least = data.draw(st.sampled_from(WHOLE))
    low = 0 if least is None else least
    # two jobs take at most two workers, so a larger count forks no more
    value = data.draw(st.integers(low, low + (2 if name == "max_workers" else 40)))
    build(data.draw(st.sampled_from([int, np.int64, np.uint32, np.int16]))(value))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_real_of_the_wrong_kind_or_out_of_range_is_refused(data):
    name, build, largest = data.draw(st.sampled_from(REAL))
    wrong = st.sampled_from([True, False, "2", "0.5", np.bool_(True), math.nan, math.inf,
                             -math.inf, np.float32("nan"), np.float64("inf"), [1.0]])
    wrong |= st.floats(max_value=0.0) | st.integers(max_value=0) | st.integers(min_value=2**1024)
    if largest < math.inf:
        wrong |= st.floats(min_value=largest, exclude_min=True)
    _refused(name, build, data.draw(wrong))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_real_of_the_right_kind_in_range_is_accepted(data):
    name, build, largest = data.draw(st.sampled_from(REAL))
    cap = min(largest, 1e6)
    # a float32 below the cap rounds to at most the cap, which is a float32
    build(data.draw(
        st.floats(1e-6, cap).flatmap(lambda x: st.sampled_from([x, np.float64(x), np.float32(x)]))
        | st.integers(1, int(cap)).flatmap(lambda k: st.sampled_from([k, np.int64(k)]))
    ))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_flag_is_a_bool(data):
    name, build = data.draw(st.sampled_from(FLAG))
    _refused(name, build, data.draw(st.sampled_from(
        [0, 1, 1.0, "true", "false", "no", None, np.int64(1), math.nan])))
    build(data.draw(st.sampled_from([True, False, np.True_, np.False_])))


def test_seed_sensitivity_refuses_a_seed_it_would_truncate():
    config = SurveyConfig(families=(make_spec("gnp", schedule=(5, 6)),))
    for seeds in ([2.5, 3], [True, 3], ["1", 3], [-1, 3]):
        _refused("seed", lambda v: seed_sensitivity(config, v), seeds)


# ---------------------------------------------------------------------------
# inputs that were read as some other value, each now refused

def test_a_true_time_or_bound_is_no_one():
    with pytest.raises(ValueError, match="^t must be a finite number > 0, got True$"):
        HhlConfig(n_r=4, t=True, C=0.1)
    with pytest.raises(ValueError, match=r"^lambda_min must be a finite number in \(0, 4.0\], "
                                         "got True$"):
        default_config(4, 4.0, True)


def test_a_fractional_worker_count_is_refused_before_the_pool():
    config = SurveyConfig(families=(_SPEC,))
    with pytest.raises(ValueError, match="^max_workers must be a positive integer, got 1.5$"):
        run_survey(config, max_workers=1.5)


def test_a_truthy_string_makes_no_digraph():
    with pytest.raises(ValueError, match="^directed must be a bool, got 'no'$"):
        Graph.from_edges(3, [(0, 1), (1, 2)], directed="no")


@pytest.mark.parametrize(
    "family, message",
    [
        ({"family": "generalized_hypercube", "schedule": [1, 2, 3, 4, 5], "params": {"a": 2.5}},
         "a must be an integer >= 2, got 2.5"),
        ({"family": "generalized_hypercube", "schedule": [1, 2, 3, 4, 5], "params": {"a": "3"}},
         "a must be an integer >= 2, got '3'"),
        ({"family": "gn", "schedule": [20, 30], "seed": 3, "params": {"repair": "false"}},
         "repair must be a bool, got 'false'"),
    ],
    ids=["a-fraction", "a-text", "repair-text"],
)
def test_survey_run_refuses_a_misread_param(tmp_path, family, message, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "families": [family]}))
    assert main(["survey", "run", str(path)]) == EXIT_CONFIG
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: bad config: {message}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n_r": 6, "signed": "false"}, "signed must be a bool, got 'false'"),
        ({"n_r": 6, "shots": 2.5}, "shots must be a positive integer, got 2.5"),
        ({"n_r": 6, "t": "0.5235987755982988", "C": 0.1},
         "t must be a finite number > 0, got '0.5235987755982988'"),
    ],
    ids=["signed-text", "shots-fraction", "t-text"],
)
def test_hhl_solve_refuses_a_misread_setting(tmp_path, config, message, capsys):
    problem = {"matrix": {"dense": [[2.0, -1.0], [-1.0, 2.0]]}, "b": [1.0, -1.0],
               "config": config}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["hhl", "solve", str(path)]) == EXIT_CONFIG
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: bad solver config: {message}\n"


def test_hhl_solve_reads_a_false_signed_as_unsigned(tmp_path, capsys):
    # [[2, -1], [-1, 2]] has eigenvalues 1 and 3: PSD, so the unsigned clock
    # lands both on bins and the solve is exact
    problem = {"matrix": {"dense": [[2.0, -1.0], [-1.0, 2.0]]}, "b": [1.0, -1.0],
               "config": {"n_r": 6, "signed": False}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["hhl", "solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_delta"] < 1e-12


def test_a_numpy_setting_reads_as_the_python_one():
    # stored as Python ints, numpy integers hash alike and fit the JSON
    # config document; a numpy n_r no longer wraps at 2 ** n_r
    as_numpy = SurveyConfig(
        families=(make_spec("gnp", schedule=np.arange(5, 8), seed=np.int64(3)),),
        dense_limit=np.int32(100), base_seed=np.uint8(1),
    )
    as_python = SurveyConfig(families=(make_spec("gnp", schedule=(5, 6, 7), seed=3),),
                             dense_limit=100, base_seed=1)
    assert config_hash(as_numpy) == config_hash(as_python)
    assert default_config(np.int16(15), np.float32(8.0)) == default_config(15, 8.0)
    assert HhlConfig(n_r=np.int16(15), t=1.0, C=0.1).n_bins == 2**15


def test_a_numpy_param_reads_as_the_python_one(tmp_path):
    # a spec keeps its params as the rules read them, so a numpy a or repair
    # hashes as the Python value and a survey writes its documents
    def config(a, repair, output_dir=None):
        return SurveyConfig(families=(
            make_spec("generalized_hypercube", schedule=(1, 2, 3), params={"a": a}),
            make_spec("gn", schedule=(20, 30, 40), seed=3, params={"repair": repair}),
        ), output_dir=output_dir)

    as_numpy, as_python = config(np.int64(3), np.True_), config(3, True)
    assert as_numpy.families[0].params["a"] == 3
    assert type(as_numpy.families[0].params["a"]) is int
    assert as_numpy.families[1].params["repair"] is True
    assert config_hash(as_numpy) == config_hash(as_python)
    for name, a, repair in (("numpy", np.int64(3), np.True_), ("python", 3, True)):
        run_survey(config(a, repair, str(tmp_path / name)), max_workers=1)
    for document in ("records.csv", "report.json"):
        numpy_bytes = (tmp_path / "numpy" / document).read_bytes()
        assert numpy_bytes == (tmp_path / "python" / document).read_bytes()
