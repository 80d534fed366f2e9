"""Tests of the benchmark's own code: reference helpers and failure counting.

    python3 -m pytest bench
"""

import math
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def arrays(edges):
    return reference.edge_arrays((u, v, 1.0) for u, v in edges)


def hypercube_edges(d):
    return [(x, x | 1 << b) for x in range(2**d) for b in range(d) if not x >> b & 1]


def grid_edges(rows, cols):
    label = lambda r, c: r * cols + c  # noqa: E731
    right = [(label(r, c), label(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    down = [(label(r, c), label(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return right + down


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_complete_graph_matches_closed_form(n):
    got = reference.laplacian_reference(n, *arrays(combinations(range(n), 2)))
    assert got.kappa == pytest.approx(reference.complete(n).kappa, rel=1e-12)
    assert got[::2] == reference.complete(n)[::2]


@pytest.mark.parametrize("n", [4, 5, 7, 10])
def test_turan_graph_matches_closed_form(n):
    a = n // 2
    edges = [(i, j) for i in range(a) for j in range(a, n)]
    got = reference.laplacian_reference(n, *arrays(edges))
    assert got.kappa == pytest.approx(reference.turan(n).kappa, rel=1e-12)
    assert got.sparsity == reference.turan(n).sparsity


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hypercube_matches_closed_form(d):
    got = reference.laplacian_reference(2**d, *arrays(hypercube_edges(d)))
    assert got.kappa == pytest.approx(d, rel=1e-12)
    assert got[::2] == reference.hypercube(d)[::2]


@pytest.mark.parametrize("rows, cols", [(4, 3), (5, 5), (3, 2), (6, 1)])
def test_grid_matches_two_cosine_spectrum(rows, cols):
    got = reference.laplacian_reference(rows * cols, *arrays(grid_edges(rows, cols)))
    want = reference.grid_2d(cols, rows=rows)
    assert got.kappa == pytest.approx(want.kappa, rel=1e-10)
    assert got[::2] == want[::2]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_directed_hypercube_matches_closed_form(d):
    u, v, _ = arrays(hypercube_edges(d))
    got = reference.incidence_reference(2**d, u, v)
    assert got.kappa == pytest.approx(math.sqrt(d), rel=1e-12)
    assert got[::2] == reference.directed_hypercube(d)[::2]


def test_kernel_dimension_comes_from_components():
    # Two disjoint triangles: spectrum {0, 0, 3, 3, 3, 3}, so κ = 1, not 3 / 0.
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert reference.laplacian_reference(6, *arrays(triangles)).kappa == pytest.approx(1.0)
    # Directed path 0 -> 1 -> 2 plus an isolated vertex: B B^T is the path
    # Laplacian {0, 1, 3} and an isolated zero, so σ = (1, sqrt 3) and κ = sqrt 3.
    u, v, _ = arrays([(0, 1), (1, 2)])
    got = reference.incidence_reference(4, u, v)
    assert got.kappa == pytest.approx(math.sqrt(3), rel=1e-12)
    assert got.system_size == 6 and got.sparsity == 2


def test_resistance_and_min_norm_flow_closed_forms():
    path = arrays([(0, 1), (1, 2)])
    assert reference.resistance(3, *path, 0, 2) == pytest.approx(2.0)
    k5 = arrays(combinations(range(5), 2))
    assert reference.resistance(5, *k5, 1, 3) == pytest.approx(2 / 5)
    # Directed 3-cycle, one unit from 0 to 1: 2/3 on the direct edge, -1/3
    # on the other two (the circulation (1, 1, 1) is projected out).
    u, v, _ = arrays([(0, 1), (1, 2), (2, 0)])
    flow = reference.min_norm_flow(3, u, v, [-1.0, 1.0, 0.0])
    assert flow == pytest.approx([2 / 3, -1 / 3, -1 / 3])


def test_exact_bin_config_puts_integer_spectra_on_bins():
    cfg = workloads.exact_bin_config(2.0, 20.0, signed=False)
    assert cfg.t == pytest.approx(2 * math.pi / 32) and cfg.C == 2 / 32
    for lam in range(0, 21, 2):
        assert (lam * cfg.t / (2 * math.pi) * cfg.n_bins) == pytest.approx(round(lam * 32))
    signed = workloads.exact_bin_config(1.0, 120.0, signed=True)
    assert 120 * signed.t / (2 * math.pi) < 0.5


# ---------------------------------------------------------------------------
# failure counting

def survey_check(records, fixed_label="gn#fixed"):
    """Run SurveyWorkload.check on hand-made outputs of three operations."""
    ops = [
        workloads.SurveyOp(0, 4, "hypercube:n=4"),
        workloads.SurveyOp(1, 30, "complete:n=30"),
        workloads.SurveyOp(2, 1100, f"{fixed_label}:n=1100"),
    ]
    refs = {
        "hypercube:n=4": reference.hypercube(4),
        "complete:n=30": reference.complete(30),
        f"{fixed_label}:n=1100": reference.Reference(2199, 203.2, 42),
    }
    summary = {"records": records, "facts": {}, "problems": []}
    workload = workloads.SurveyWorkload(lambda seed: [], None, lambda summary: [])
    outcome = workloads.Outcome()
    workload.check({"ops": ops}, refs, [{"summary": summary}] * 2, outcome)
    return outcome


GOOD = {
    "hypercube:n=4": (16, 4.0 * (1 + 1e-9), 5),
    "complete:n=30": (30, 1.0, 30),
    "gn#fixed:n=1100": (2199, 203.2, 42),
}


def test_matching_outputs_count_no_failure():
    outcome = survey_check(dict(GOOD))
    assert (outcome.attempted, outcome.failed, outcome.correct) == (6, [], True)


def test_wrong_kappa_is_a_failure_and_makes_the_run_incorrect():
    outcome = survey_check({**GOOD, "hypercube:n=4": (16, 4.0 * 1.001, 5)})
    assert outcome.attempted == 6 and len(outcome.failed) == 2
    assert all(f.startswith("hypercube:n=4") for f in outcome.failed)
    assert not outcome.correct


def test_wrong_sparsity_or_missing_record_is_a_failure():
    outcome = survey_check({**GOOD, "complete:n=30": (30, 1.0, 29)})
    assert len(outcome.failed) == 2 and not outcome.correct
    outcome = survey_check({**GOOD, "complete:n=30": "no record (ValueError: x)"})
    assert len(outcome.failed) == 2 and not outcome.correct


def test_known_fault_counts_as_failed_but_run_stays_correct():
    assert "gn#fixed:n=1100" in workloads.KNOWN_FAULTS
    outcome = survey_check({**GOOD, "gn#fixed:n=1100": (2199, 108.3, 42)})
    assert len(outcome.failed) == 2 and outcome.correct
    # the same wrong κ on an operation that is not a named fault is not excused
    outcome = survey_check({**GOOD, "gn:n=1100": (2199, 108.3, 42)}, fixed_label="gn")
    assert len(outcome.failed) == 2 and not outcome.correct


def test_hhl_check_flags_a_wrong_resistance():
    call = workloads.HhlCall("reff-exact:k5", "reff", None, (0, 1), cfg=object())
    outcome = workloads.Outcome()
    workloads.HhlWorkload().check(
        {"calls": [call]}, {"reff-exact:k5": 0.4}, [{"results": {"reff-exact:k5": 0.4 + 1e-6}}], outcome
    )
    assert outcome.failed and not outcome.correct
    outcome = workloads.Outcome()
    workloads.HhlWorkload().check(
        {"calls": [call]}, {"reff-exact:k5": 0.4}, [{"results": {"reff-exact:k5": 0.4 * (1 + 1e-12)}}],
        outcome,
    )
    assert outcome.attempted == 1 and not outcome.failed and outcome.correct


def test_hhl_call_that_raises_is_one_failed_operation():
    good = workloads.HhlCall("reff-exact:k2", "reff", None, (0, 1), cfg=object())
    broken = workloads.HhlCall("reff-exact:none", "reff", None, (0, 1), cfg=object())
    workload = workloads.HhlWorkload()
    rnd = workload.run_round({"calls": [broken]}, Path("."))
    assert rnd["results"]["reff-exact:none"].startswith("raised ")
    rnd["results"]["reff-exact:k2"] = 1.0
    outcome = workloads.Outcome()
    workload.check({"calls": [good, broken]}, {"reff-exact:k2": 1.0, "reff-exact:none": 1.0},
                   [rnd], outcome)
    assert outcome.attempted == 2 and len(outcome.failed) == 1 and not outcome.correct
