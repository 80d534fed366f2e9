import time
from fractions import Fraction

from nlsp.families import catalog_entry
from nlsp.growth import GrowthClass
from nlsp.solvers import SOLVERS, evaluate_advantage, ratio_class
from nlsp.tables import (
    ALL_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    computed_labels,
    reproduce_tables,
)


def test_row_counts():
    assert len(TABLE2_ROWS) == 30
    assert len(TABLE3_ROWS) == 20
    assert len(ALL_ROWS) == 50
    ids = [(r.table, r.row_id) for r in ALL_ROWS]
    assert len(set(ids)) == 50


def test_reproduce_all_labels():
    start = time.perf_counter()
    report = reproduce_tables()
    elapsed = time.perf_counter() - start
    mismatches = [r for r in report.results if not r.matches]
    assert not mismatches, [
        (r.row.row_id, r.expected, r.computed) for r in mismatches
    ]
    assert report.matched == report.total == 50
    assert elapsed < 1.0


def test_aqc_matches_cks_everywhere():
    for row in ALL_ROWS:
        for k in (1, 2, 3):
            cks = evaluate_advantage(f"CKS({k})", row.size, row.kappa, row.s)
            aqc = evaluate_advantage(f"AQC({k})", row.size, row.kappa, row.s)
            assert cks.category == aqc.category
            assert cks.ratio_class == aqc.ratio_class


def test_best_under_hhl_is_best_everywhere():
    for row in ALL_ROWS:
        if row.hhl_label != "exp":
            continue
        for name in SOLVERS:
            verdict = evaluate_advantage(name, row.size, row.kappa, row.s)
            assert verdict.category == "best", (row.row_id, name, verdict.category)


def test_printed_ratio_strings_spot_checks():
    # A few rows where the published ratio expression is pinned exactly.
    cases = {
        "hypercube": GrowthClass.exponential(2)
        * GrowthClass.log_power(1)
        * GrowthClass.poly(Fraction(-11, 2)),
        "harary_kn": GrowthClass.loglog_power(1)
        * GrowthClass.poly(-4)
        * GrowthClass.log_power(-2),
        "random_lobster": GrowthClass.loglog_power(1)
        * GrowthClass.poly(-6)
        * GrowthClass.log_power(-2),
        "sudoku": GrowthClass.poly(4)
        * GrowthClass.loglog_power(1)
        * GrowthClass.log_power(-10),
    }
    by_family = {r.family: r for r in TABLE2_ROWS}
    for family, expected in cases.items():
        row = by_family[family]
        assert ratio_class("HHL", row.size, row.kappa, row.s) == expected
    # Directed hypercube: 2^n log(n)/n^7.
    d_hyp = TABLE3_ROWS[0]
    assert ratio_class("HHL", d_hyp.size, d_hyp.kappa, d_hyp.s) == (
        GrowthClass.exponential(2) * GrowthClass.log_power(1) * GrowthClass.poly(-7)
    )


def test_futile_rows():
    # Tree families and the square grid show exponential CKS advantage only
    # because the solver runtime itself is exponential.
    futile_families = {
        "balanced_binary_tree",
        "balanced_ternary_tree",
        "binomial_tree",
        "grid_2d_square",
    }
    for row in TABLE2_ROWS:
        verdict = evaluate_advantage("CKS(1)", row.size, row.kappa, row.s)
        if row.family in futile_families:
            assert verdict.category == "best" and verdict.futile
        else:
            assert not verdict.futile
    # The directed hypercube's exponential advantage is genuine.
    v = evaluate_advantage("CKS(1)", TABLE3_ROWS[0].size, TABLE3_ROWS[0].kappa, TABLE3_ROWS[0].s)
    assert v.category == "best" and not v.futile


def test_report_serialization():
    report = reproduce_tables()
    d = report.as_dict()
    assert d["matched"] == 50 and d["total"] == 50
    assert len(d["rows"]) == 50
    text = report.to_text()
    assert "50/50 rows reproduced" in text
    assert "gnr[yes]" in text


def test_each_row_states_its_catalog_family_size_growth():
    # N(n) is written twice: in each published row and in the family's
    # catalog entry, which the survey's verdicts read
    for row in ALL_ROWS:
        entry = catalog_entry(row.family)
        assert row.size == entry.resolved_size_growth(entry.default_params), row.row_id
