"""Published survey rows: declared growths and advantage labels for all 50 families.

Each row carries the declared condition-number, sparsity and system-size
growth in the family index n, together with the printed advantage labels for
HHL, CKS/AQC and the dream solver.  ``reproduce_tables`` re-derives every
label through the symbolic runtime-ratio machinery and reports matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .growth import GrowthClass
from .solvers import evaluate_advantage

_C = GrowthClass.constant()
_N = GrowthClass.poly(1)
_N2 = GrowthClass.poly(2)


def _log(k: int) -> GrowthClass:
    return GrowthClass.log_power(k)


def _exp(base: int) -> GrowthClass:
    return GrowthClass.exponential(base)


CATEGORY_LABEL = {"best": "exp", "better": "poly", "good": "sub-linear", "bad": "none"}
# The printed label columns and the solver each is derived from, in the order
# of a row's hhl_label, cks_label and dream_label.
COLUMNS = (("HHL", "HHL"), ("CKS/AQC", "CKS(1)"), ("DREAM", "DREAM"))


@dataclass(frozen=True)
class TableRow:
    """One published row: declared growths plus printed advantage labels."""

    table: int
    family: str
    kappa: GrowthClass
    s: GrowthClass
    size: GrowthClass
    hhl_label: str
    cks_label: str
    dream_label: str
    has_sources_sinks: Optional[bool] = None

    @property
    def row_id(self) -> str:
        if self.has_sources_sinks is None:
            return self.family
        return f"{self.family}[{'yes' if self.has_sources_sinks else 'no'}]"


TABLE2_ROWS: tuple[TableRow, ...] = (
    TableRow(2, "hypercube", _N, _N, _exp(2), "exp", "exp", "exp"),
    TableRow(2, "modified_mgg", _log(2), _C, _N2, "poly", "poly", "poly"),
    TableRow(2, "sudoku", _log(2), _log(3), GrowthClass.poly(4), "poly", "poly", "poly"),
    TableRow(2, "grid_2d", _log(3), _C, _N, "sub-linear", "sub-linear", "sub-linear"),
    TableRow(2, "hexagonal", _log(3), _C, _N, "sub-linear", "sub-linear", "sub-linear"),
    TableRow(2, "random_regular_expander", _log(3), _C, _N, "sub-linear", "sub-linear", "sub-linear"),
    TableRow(2, "barabasi_albert", _log(3), _log(3), _N, "sub-linear", "sub-linear", "sub-linear"),
    TableRow(2, "newman_watts_strogatz", _log(3), _log(3), _N, "sub-linear", "sub-linear", "sub-linear"),
    TableRow(2, "random_regular", _log(2), _C, _N, "sub-linear", "sub-linear", "sub-linear"),
    TableRow(2, "triangular", _N, _C, _N, "none", "sub-linear", "sub-linear"),
    TableRow(2, "complete", _C, _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "turan", _log(2), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "gaussian_random_partition", _log(3), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "geographical_threshold", _log(3), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "soft_random_geometric", _log(3), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "thresholded_random_geometric", _log(3), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "planted_partition", _log(3), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "random_geometric", _log(3), _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "uniform_random_intersection", _C, _N, _N, "none", "sub-linear", "poly"),
    TableRow(2, "harary_kn", _N2, _C, _N, "none", "none", "none"),
    TableRow(2, "harary_mn", _N2, _C, _N, "none", "none", "none"),
    TableRow(2, "circular_ladder", _N2, _C, _N, "none", "none", "none"),
    TableRow(2, "ladder", _N2, _C, _N, "none", "none", "none"),
    TableRow(2, "ring_of_cliques", _N2, _C, _N, "none", "none", "none"),
    TableRow(2, "balanced_binary_tree", _exp(2), _C, _exp(2), "none", "exp", "exp"),
    TableRow(2, "balanced_ternary_tree", _exp(3), _C, _exp(3), "none", "exp", "exp"),
    TableRow(2, "binomial_tree", _exp(2), _N, _exp(2), "none", "exp", "exp"),
    TableRow(2, "grid_2d_square", _exp(4), _C, _exp(4), "none", "exp", "exp"),
    TableRow(2, "random_lobster", _N2, _N2, _N, "none", "none", "sub-linear"),
    TableRow(2, "gnp", _log(2), _N, _N, "none", "sub-linear", "poly"),
)

TABLE3_ROWS: tuple[TableRow, ...] = (
    TableRow(3, "directed_hypercube", _N2, _N, _exp(2) * _N, "exp", "exp", "exp", True),
    TableRow(3, "gaussian_random_partition_directed", _log(3), _log(3), _N2, "poly", "poly", "poly", False),
    TableRow(3, "gaussian_random_partition_directed", _log(3), _log(3), _N2, "poly", "poly", "poly", True),
    TableRow(3, "planted_partition_directed", _log(3), _log(3), _N2, "poly", "poly", "poly", False),
    TableRow(3, "planted_partition_directed", _log(3), _log(3), _N2, "poly", "poly", "poly", True),
    TableRow(3, "navigable_small_world", _log(3), _log(1), _N2, "poly", "poly", "poly", False),
    TableRow(3, "navigable_small_world", _log(3), _log(1), _N2, "poly", "poly", "poly", True),
    TableRow(3, "gnp_directed", _log(1), _log(3), _N2, "poly", "poly", "poly", False),
    TableRow(3, "gnp_directed", _log(1), _log(3), _N2, "poly", "poly", "poly", True),
    TableRow(3, "paley", _C, _log(3), GrowthClass.poly(3), "poly", "poly", "poly", False),
    TableRow(3, "random_uniform_kout", _log(3), _log(3), _N, "sub-linear", "sub-linear", "sub-linear", False),
    TableRow(3, "random_uniform_kout", _log(3), _log(3), _N, "sub-linear", "sub-linear", "sub-linear", True),
    TableRow(3, "scale_free", _log(3), _log(3), _N, "sub-linear", "sub-linear", "sub-linear", False),
    TableRow(3, "scale_free", _log(3), _log(3), _N, "sub-linear", "sub-linear", "sub-linear", True),
    TableRow(3, "gn", _N2, _N, _N, "none", "none", "sub-linear", False),
    TableRow(3, "gn", _N2, _log(3), _N, "none", "none", "sub-linear", True),
    TableRow(3, "gnc", _log(3), GrowthClass.poly(4), _N2, "none", "poly", "poly", False),
    TableRow(3, "gnc", _log(3), GrowthClass.poly(4), _N2, "none", "poly", "poly", True),
    TableRow(3, "gnr", _log(3), _N, _N, "none", "sub-linear", "poly", False),
    TableRow(3, "gnr", _N2, _log(3), _N, "none", "none", "sub-linear", True),
)

ALL_ROWS: tuple[TableRow, ...] = TABLE2_ROWS + TABLE3_ROWS


def computed_labels(row: TableRow) -> dict[str, str]:
    """Labels the symbolic machinery derives for the three printed columns."""
    return {
        column: CATEGORY_LABEL[evaluate_advantage(solver, row.size, row.kappa, row.s).category]
        for column, solver in COLUMNS
    }


@dataclass(frozen=True)
class RowResult:
    row: TableRow
    computed: dict[str, str]

    @property
    def expected(self) -> dict[str, str]:
        labels = (self.row.hhl_label, self.row.cks_label, self.row.dream_label)
        return {column: label for (column, _), label in zip(COLUMNS, labels)}

    @property
    def matches(self) -> bool:
        return self.computed == self.expected


@dataclass(frozen=True)
class TableReport:
    results: tuple[RowResult, ...]

    @property
    def matched(self) -> int:
        return sum(1 for r in self.results if r.matches)

    @property
    def total(self) -> int:
        return len(self.results)

    def as_dict(self) -> dict:
        return {
            "matched": self.matched,
            "total": self.total,
            "rows": [
                {
                    "table": r.row.table,
                    "family": r.row.row_id,
                    "expected": r.expected,
                    "computed": r.computed,
                    "match": r.matches,
                }
                for r in self.results
            ],
        }

    def to_text(self) -> str:
        lines = []
        header = f"{'family':34} {'kappa':10} {'s':10} {'size':10} " + "".join(
            f"{column:12} " for column, _ in COLUMNS
        ) + "match"
        for table in (2, 3):
            lines.append(f"-- matrix table {table} --")
            lines.append(header)
            for r in self.results:
                if r.row.table != table:
                    continue
                lines.append(
                    f"{r.row.row_id:34} {str(r.row.kappa):10} {str(r.row.s):10} "
                    f"{str(r.row.size):10} "
                    + "".join(f"{r.computed[column]:12} " for column, _ in COLUMNS)
                    + ("ok" if r.matches else "MISMATCH")
                )
        lines.append(f"{self.matched}/{self.total} rows reproduced")
        return "\n".join(lines)


def reproduce_tables() -> TableReport:
    """Re-derive every printed advantage label from the declared growths."""
    return TableReport(tuple(RowResult(row, computed_labels(row)) for row in ALL_ROWS))
