"""Generalized hypercube tableau: exact cell predictions and slice verdicts.

The two-parameter family G_a^m (vertices {1..a}^m, edges at Hamming distance
one) forms a tableau with a on the horizontal axis and m on the vertical.
Each cell has closed-form condition number and sparsity (kappa = m,
s = a*m - m + 1), verified by eigensolving the cell's Laplacian.  Rows,
columns, diagonals, and iso-s curves of the tableau are graph families in
their own right, classified through the runtime-ratio machinery.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, TextIO

from .families import generate, make_spec
from .graphs import system_matrix
from .growth import GrowthClass
from .solvers import AdvantageVerdict, evaluate_advantage
from .spectral import measure

KAPPA_TOL = 1e-9


@dataclass(frozen=True)
class TableauCell:
    a: int
    m: int

    def __post_init__(self) -> None:
        if self.a < 2:
            raise ValueError(f"a must be >= 2, got {self.a}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    @property
    def n_vertices(self) -> int:
        return self.a**self.m

    @property
    def kappa_predicted(self) -> int:
        return self.m

    @property
    def sparsity_predicted(self) -> int:
        return self.a * self.m - self.m + 1


class CellMeasurements(NamedTuple):
    """Measured kappa and sparsity of one cell, with its vertex count."""

    kappa: float
    sparsity: int
    n_vertices: int


def cell_measurements(a: int, m: int) -> CellMeasurements:
    """Measure kappa and s of the G_a^m Laplacian, asserting the predictions.

    Every cell is eigensolved: G_a^m is well conditioned, so cells beyond
    the dense limit take factor-free Lanczos (G_3^8, 6561 vertices, in
    hundredths of a second).
    """
    cell = TableauCell(a, m)
    spec = make_spec("generalized_hypercube", params={"a": a}, schedule=(m,))
    inst = generate(spec, m)
    rec = measure(system_matrix(inst.graph))
    if rec.sparsity != cell.sparsity_predicted:
        raise ValueError(
            f"G_{a}^{m}: measured sparsity {rec.sparsity} != {cell.sparsity_predicted}"
        )
    if not math.isclose(rec.kappa, cell.kappa_predicted, rel_tol=KAPPA_TOL):
        raise ValueError(f"G_{a}^{m}: measured kappa {rec.kappa} != {cell.kappa_predicted}")
    return CellMeasurements(rec.kappa, rec.sparsity, cell.n_vertices)


# ---------------------------------------------------------------------------
# slices

@dataclass(frozen=True)
class TableauSlice:
    """An ordered selection of tableau cells forming one graph family.

    kind is one of row (m fixed), column (a fixed), main_diagonal (a = m),
    super_diagonal / sub_diagonal (m = a -/+ D, constrained to D <= a), or
    iso_s (constant sparsity).  parameter holds m, a, D, or s respectively
    (absent for the main diagonal).
    """

    kind: str
    parameter: Optional[int]
    cells: tuple[TableauCell, ...]

    def __post_init__(self) -> None:
        if self.kind not in SLICE_KINDS:
            raise ValueError(f"unknown slice kind {self.kind!r}")
        if not self.cells:
            raise ValueError("slice has no cells")
        p = self.parameter
        for c in self.cells:
            if self.kind == "row" and c.m != p:
                raise ValueError("row cells must share m")
            if self.kind == "column" and c.a != p:
                raise ValueError("column cells must share a")
            if self.kind == "main_diagonal" and c.a != c.m:
                raise ValueError("main diagonal cells need a = m")
            if self.kind == "super_diagonal":
                if c.m != c.a - p:
                    raise ValueError("super-diagonal cells need m = a - D")
                if p > c.a:
                    raise ValueError(f"offset D={p} exceeds a={c.a}")
            if self.kind == "sub_diagonal":
                if c.m != c.a + p:
                    raise ValueError("sub-diagonal cells need m = a + D")
                if p > c.a:
                    raise ValueError(f"offset D={p} exceeds a={c.a}")
            if self.kind == "iso_s" and c.sparsity_predicted != p:
                raise ValueError("iso-s cells must share a*m - m + 1")


def row_slice(m: int, a_max: int) -> TableauSlice:
    return TableauSlice("row", m, tuple(TableauCell(a, m) for a in range(2, a_max + 1)))


def column_slice(a: int, m_max: int) -> TableauSlice:
    return TableauSlice("column", a, tuple(TableauCell(a, m) for m in range(1, m_max + 1)))


def main_diagonal_slice(a_max: int) -> TableauSlice:
    return TableauSlice(
        "main_diagonal", None, tuple(TableauCell(a, a) for a in range(2, a_max + 1))
    )


def super_diagonal_slice(d: int, a_max: int) -> TableauSlice:
    """Cells (a, a - D).  The first tableau row is discarded, so the slice
    starts at a = D + 2; slices with no admissible cell are rejected."""
    if d < 1:
        raise ValueError("offset D must be >= 1")
    cells = tuple(TableauCell(a, a - d) for a in range(d + 2, a_max + 1))
    return TableauSlice("super_diagonal", d, cells)


def sub_diagonal_slice(d: int, a_max: int) -> TableauSlice:
    if d < 1:
        raise ValueError("offset D must be >= 1")
    cells = tuple(TableauCell(a, a + d) for a in range(max(2, d), a_max + 1))
    return TableauSlice("sub_diagonal", d, cells)


def iso_s_slice(s: int) -> TableauSlice:
    """Cells of constant sparsity s: a = d + 1, m = (s-1)/d over divisors d
    of s - 1, kept only when d / log(d+1) < s - 1.  s = 1 is the trivial
    curve (a = 1 or m = 0) and is excluded."""
    if s < 2:
        raise ValueError("iso-s curves need s >= 2")
    cells = []
    for d in range(1, s):
        if (s - 1) % d == 0 and d / math.log(d + 1) < s - 1:
            cells.append(TableauCell(d + 1, (s - 1) // d))
    return TableauSlice("iso_s", s, tuple(cells))


# Each slice kind's constructor; its parameter names are the CLI flags.
SLICES = {
    "row": row_slice,
    "column": column_slice,
    "main_diagonal": main_diagonal_slice,
    "super_diagonal": super_diagonal_slice,
    "sub_diagonal": sub_diagonal_slice,
    "iso_s": iso_s_slice,
}
SLICE_KINDS = tuple(SLICES)


def slice_verdict(sl: TableauSlice, solver: str = "HHL") -> AdvantageVerdict:
    """Classify one tableau slice as a graph family under a quantum solver.

    Growth descriptors run along the slice parameter (a for rows and
    diagonals, m for columns).  Rows use the constant-kappa, constant-s
    simplification under which the published ratio a^m loglog(a)/log^2(a)
    arises.  Diagonal system sizes a^(a -/+ D) outgrow every fixed-base
    exponential; 2^a is a certified lower bound, and as each quantum solver
    is polylogarithmic in system size, the substitution cannot change the
    category.  Iso-s families are finite, so every descriptor is bounded.
    """
    if sl.kind == "row":
        if sl.parameter == 1:
            raise ValueError("first row is the complete graph family, excluded")
        growths = (GrowthClass.poly(sl.parameter), GrowthClass.constant(), GrowthClass.constant())
    elif sl.kind == "column":
        growths = (
            GrowthClass.exponential(sl.parameter),
            GrowthClass.poly(1),
            GrowthClass.poly(1),
        )
    elif sl.kind in ("main_diagonal", "super_diagonal", "sub_diagonal"):
        growths = (GrowthClass.exponential(2), GrowthClass.poly(1), GrowthClass.poly(2))
    else:
        growths = (GrowthClass.constant(), GrowthClass.constant(), GrowthClass.constant())
    return evaluate_advantage(solver, *growths)


# ---------------------------------------------------------------------------
# export

def tableau(a_max: int, m_max: int) -> list[tuple[TableauCell, CellMeasurements]]:
    """Measure every cell with a in 2..a_max, m in 1..m_max (row-major)."""
    if a_max < 2 or m_max < 1:
        raise ValueError("tableau needs a_max >= 2 and m_max >= 1")
    out = []
    for m in range(1, m_max + 1):
        for a in range(2, a_max + 1):
            out.append((TableauCell(a, m), cell_measurements(a, m)))
    return out


def write_tableau_csv(f: TextIO, cells: list[tuple[TableauCell, CellMeasurements]]) -> None:
    writer = csv.writer(f)
    writer.writerow(["a", "m", "N", "kappa_pred", "kappa_meas", "s_pred", "s_meas"])
    for cell, meas in cells:
        writer.writerow([
            cell.a,
            cell.m,
            cell.n_vertices,
            cell.kappa_predicted,
            repr(meas.kappa),
            cell.sparsity_predicted,
            meas.sparsity,
        ])
