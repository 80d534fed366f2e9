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
from typing import Optional, TextIO

from .families import generate, make_spec
from .graphs import system_matrix, whole_number
from .growth import GrowthClass
from .solvers import AdvantageVerdict, evaluate_advantage
from .spectral import SpectralRecord, measure

KAPPA_TOL = 1e-9


@dataclass(frozen=True)
class TableauCell:
    a: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", whole_number(self.a, "a", 2))
        object.__setattr__(self, "m", whole_number(self.m, "m", 1))

    @property
    def n_vertices(self) -> int:
        return self.a**self.m

    @property
    def kappa_predicted(self) -> int:
        return self.m

    @property
    def sparsity_predicted(self) -> int:
        return self.a * self.m - self.m + 1


def cell_measurements(a: int, m: int) -> SpectralRecord:
    """Measure the G_a^m Laplacian, asserting kappa = m and s = a*m - m + 1.

    Every cell is eigensolved: G_a^m is well conditioned, so cells beyond
    the dense limit take factor-free Lanczos (G_3^8, 6561 vertices, in
    hundredths of a second).
    """
    cell = TableauCell(a, m)
    spec = make_spec("generalized_hypercube", params={"a": a}, schedule=(m,))
    rec = measure(system_matrix(generate(spec, m).graph))
    if rec.sparsity != cell.sparsity_predicted:
        raise ValueError(
            f"G_{a}^{m}: measured sparsity {rec.sparsity} != {cell.sparsity_predicted}"
        )
    if not math.isclose(rec.kappa, cell.kappa_predicted, rel_tol=KAPPA_TOL):
        raise ValueError(f"G_{a}^{m}: measured kappa {rec.kappa} != {cell.kappa_predicted}")
    return rec


# ---------------------------------------------------------------------------
# slices

@dataclass(frozen=True)
class TableauSlice:
    """An ordered selection of tableau cells forming one graph family, with
    the (N, kappa, s) growth classes along its parameter that classify it.

    Each kind is written once, in its constructor in SLICES, which gives
    the cells, the parameter (m, a, D or s; absent for the main diagonal)
    and the growths.  A slice needs at least one cell, so a constructor's
    empty range is refused here.
    """

    kind: str
    parameter: Optional[int]
    cells: tuple[TableauCell, ...]
    growths: tuple[GrowthClass, GrowthClass, GrowthClass]

    def __post_init__(self) -> None:
        if self.kind not in SLICES:
            raise ValueError(f"unknown slice kind {self.kind!r}")
        if not self.cells:
            raise ValueError("slice has no cells")


# A diagonal's system size a^(a -/+ D) outgrows every fixed-base exponential;
# 2^a is a certified lower bound, and as each quantum solver is
# polylogarithmic in system size, the substitution cannot change the
# category.  kappa = m grows as a, and s = a*m - m + 1 as a^2.
_DIAGONAL_GROWTHS = (GrowthClass.exponential(2), GrowthClass.poly(1), GrowthClass.poly(2))


def row_slice(m: int, a_max: int) -> TableauSlice:
    """Cells (a, m) for a = 2..a_max.  Along a, N = a^m is a degree-m
    polynomial, kappa = m is constant and s is taken constant: the
    simplification under which the published ratio a^m loglog(a) / log^2(a)
    arises.  The first row (m = 1) is the complete graph family, excluded."""
    if m == 1:
        raise ValueError("first row is the complete graph family, excluded")
    cells = tuple(TableauCell(a, m) for a in range(2, a_max + 1))
    return TableauSlice("row", m, cells,
                        (GrowthClass.poly(m), GrowthClass.constant(), GrowthClass.constant()))


def column_slice(a: int, m_max: int) -> TableauSlice:
    """Cells (a, m) for m = 1..m_max.  Along m, N = a^m, kappa = m and
    s = (a - 1) m + 1 grow as a^m, m and m."""
    cells = tuple(TableauCell(a, m) for m in range(1, m_max + 1))
    return TableauSlice("column", a, cells,
                        (GrowthClass.exponential(a), GrowthClass.poly(1), GrowthClass.poly(1)))


def main_diagonal_slice(a_max: int) -> TableauSlice:
    """Cells (a, a) for a = 2..a_max, with the _DIAGONAL_GROWTHS."""
    cells = tuple(TableauCell(a, a) for a in range(2, a_max + 1))
    return TableauSlice("main_diagonal", None, cells, _DIAGONAL_GROWTHS)


def super_diagonal_slice(d: int, a_max: int) -> TableauSlice:
    """Cells (a, a - D), with the _DIAGONAL_GROWTHS.  The first tableau row
    is discarded, so the slice starts at a = D + 2; slices with no
    admissible cell are rejected."""
    whole_number(d, "offset D", 1)
    cells = tuple(TableauCell(a, a - d) for a in range(d + 2, a_max + 1))
    return TableauSlice("super_diagonal", d, cells, _DIAGONAL_GROWTHS)


def sub_diagonal_slice(d: int, a_max: int) -> TableauSlice:
    """Cells (a, a + D) for a = max(2, D)..a_max, with the _DIAGONAL_GROWTHS."""
    whole_number(d, "offset D", 1)
    cells = tuple(TableauCell(a, a + d) for a in range(max(2, d), a_max + 1))
    return TableauSlice("sub_diagonal", d, cells, _DIAGONAL_GROWTHS)


def iso_s_slice(s: int) -> TableauSlice:
    """Cells of constant sparsity s: a = d + 1, m = (s-1)/d over divisors d
    of s - 1, kept only when d / log(d+1) < s - 1.  s = 1 is the trivial
    curve (a = 1 or m = 0) and is excluded.  The curve is finite, so N,
    kappa and s are all bounded: constant growths."""
    whole_number(s, "iso-s curve s", 2)
    cells = tuple(TableauCell(d + 1, (s - 1) // d) for d in range(1, s)
                  if (s - 1) % d == 0 and d / math.log(d + 1) < s - 1)
    return TableauSlice("iso_s", s, cells, (GrowthClass.constant(),) * 3)


# Each slice kind's constructor; its parameter names are the CLI flags.
SLICES = {
    "row": row_slice,
    "column": column_slice,
    "main_diagonal": main_diagonal_slice,
    "super_diagonal": super_diagonal_slice,
    "sub_diagonal": sub_diagonal_slice,
    "iso_s": iso_s_slice,
}


def slice_verdict(sl: TableauSlice, solver: str = "HHL") -> AdvantageVerdict:
    """Classify one tableau slice as a graph family under a quantum solver,
    from the growths its constructor gives."""
    return evaluate_advantage(solver, *sl.growths)


# ---------------------------------------------------------------------------
# export

def tableau(a_max: int, m_max: int) -> list[tuple[TableauCell, SpectralRecord]]:
    """Measure every cell with a in 2..a_max, m in 1..m_max (row-major)."""
    whole_number(a_max, "a_max", 2)
    whole_number(m_max, "m_max", 1)
    return [(TableauCell(a, m), cell_measurements(a, m))
            for m in range(1, m_max + 1) for a in range(2, a_max + 1)]


def write_tableau_csv(f: TextIO, cells: list[tuple[TableauCell, SpectralRecord]]) -> None:
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
