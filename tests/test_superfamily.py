import io
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp.growth import GrowthClass
from nlsp.spectral import SpectralRecord
from nlsp.superfamily import (
    SLICES,
    TableauCell,
    cell_measurements,
    column_slice,
    iso_s_slice,
    main_diagonal_slice,
    row_slice,
    slice_verdict,
    sub_diagonal_slice,
    super_diagonal_slice,
    tableau,
    write_tableau_csv,
)


def test_cell_field_validation():
    with pytest.raises(ValueError):
        TableauCell(1, 3)
    with pytest.raises(ValueError):
        TableauCell(4, 0)
    c = TableauCell(3, 2)
    assert (c.n_vertices, c.kappa_predicted, c.sparsity_predicted) == (9, 2, 5)


def test_hypercube_column_cells():
    for m in range(1, 7):
        meas = cell_measurements(2, m)
        assert meas.system_size == 2**m
        assert meas.kappa == pytest.approx(m, rel=1e-12)
        assert meas.sparsity == m + 1


def test_complete_graph_row_cells():
    for a in (2, 3, 5, 8):
        meas = cell_measurements(a, 1)
        assert meas.kappa == pytest.approx(1.0, rel=1e-12)
        assert meas.sparsity == a


def test_cell_3_2_against_dense_oracle():
    # G_3^2 is the Cartesian product K_3 x K_3
    ref = nx.cartesian_product(nx.complete_graph(3), nx.complete_graph(3))
    lap = nx.laplacian_matrix(ref).toarray().astype(float)
    vals = np.linalg.eigvalsh(lap)
    nz = vals[vals > 1e-6]
    kappa_oracle = nz[-1] / nz[0]
    s_oracle = int(max(np.count_nonzero(row) for row in lap))
    meas = cell_measurements(3, 2)
    assert meas.system_size == 9
    assert meas.kappa == pytest.approx(kappa_oracle, rel=1e-12)
    assert meas.kappa == pytest.approx(2.0, rel=1e-9)
    assert meas.sparsity == s_oracle == 5


def test_g2m_spectrum_binomial_multiplicities():
    from nlsp.families import generate, make_spec
    from nlsp.graphs import laplacian

    m = 5
    g = generate(make_spec("hypercube"), m).graph
    vals = np.linalg.eigvalsh(laplacian(g).to_dense())
    expected = np.sort(np.repeat([2 * k for k in range(m + 1)],
                                 [math.comb(m, k) for k in range(m + 1)]))
    assert np.allclose(vals, expected, atol=1e-9)


def test_over_limit_cell_is_measured():
    # G_2^12 has 4096 vertices, above the dense limit of 3000: Lanczos
    # measures it, and cell_measurements checks the closed forms
    meas = cell_measurements(2, 12)
    assert meas.kappa == pytest.approx(12.0, rel=1e-12)
    assert (meas.sparsity, meas.system_size) == (13, 4096)
    assert isinstance(meas, SpectralRecord)


def test_slice_constructors():
    r = row_slice(3, 6)
    assert [c.a for c in r.cells] == [2, 3, 4, 5, 6]
    assert all(c.m == 3 for c in r.cells)
    c = column_slice(2, 5)
    assert [cell.m for cell in c.cells] == [1, 2, 3, 4, 5]
    d = main_diagonal_slice(5)
    assert [(cell.a, cell.m) for cell in d.cells] == [(2, 2), (3, 3), (4, 4), (5, 5)]
    sup = super_diagonal_slice(1, 6)
    assert [(cell.a, cell.m) for cell in sup.cells] == [(3, 2), (4, 3), (5, 4), (6, 5)]
    sub = sub_diagonal_slice(2, 5)
    assert [(cell.a, cell.m) for cell in sub.cells] == [(2, 4), (3, 5), (4, 6), (5, 7)]


def test_diagonal_offset_constraint():
    with pytest.raises(ValueError):
        sub_diagonal_slice(7, 5)  # no cell has a >= D
    with pytest.raises(ValueError):
        super_diagonal_slice(4, 5)  # only the discarded first row qualifies


def _offset_params(first_a):
    """D and an a_max that leaves the offset diagonal at least one cell."""
    return st.integers(1, 6).flatmap(lambda d: st.fixed_dictionaries(
        {"d": st.just(d), "a_max": st.integers(first_a(d), first_a(d) + 10)}))


DIAGONAL = (GrowthClass.exponential(2), GrowthClass.poly(1), GrowthClass.poly(2))
CONSTANT = (GrowthClass.constant(),) * 3
# kind: (valid constructor arguments, the rule every cell obeys with the
# slice parameter p, and the (N, kappa, s) growths its docstring states)
SLICE_RULES = {
    "row": (
        st.fixed_dictionaries({"m": st.integers(2, 12), "a_max": st.integers(2, 12)}),
        lambda c, p: c.m == p,
        lambda p: (GrowthClass.poly(p), GrowthClass.constant(), GrowthClass.constant()),
    ),
    "column": (
        st.fixed_dictionaries({"a": st.integers(2, 12), "m_max": st.integers(1, 12)}),
        lambda c, p: c.a == p,
        lambda p: (GrowthClass.exponential(p), GrowthClass.poly(1), GrowthClass.poly(1)),
    ),
    "main_diagonal": (
        st.fixed_dictionaries({"a_max": st.integers(2, 12)}),
        lambda c, p: c.a == c.m,
        lambda p: DIAGONAL,
    ),
    "super_diagonal": (_offset_params(lambda d: d + 2), lambda c, p: c.m == c.a - p,
                       lambda p: DIAGONAL),
    "sub_diagonal": (_offset_params(lambda d: max(2, d)), lambda c, p: c.m == c.a + p,
                     lambda p: DIAGONAL),
    "iso_s": (
        st.fixed_dictionaries({"s": st.integers(3, 400)}),
        lambda c, p: c.a * c.m - c.m + 1 == p,
        lambda p: CONSTANT,
    ),
}


@pytest.mark.parametrize("kind", SLICES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slice_constructor_cells_obey_the_kind_rule(kind, data):
    params, rule, growths = SLICE_RULES[kind]
    sl = SLICES[kind](**data.draw(params))
    assert sl.kind == kind and sl.cells
    assert all(rule(c, sl.parameter) for c in sl.cells), sl
    assert len(set(sl.cells)) == len(sl.cells)
    assert sl.growths == growths(sl.parameter)


def test_iso_s_enumeration():
    sl = iso_s_slice(7)
    assert [(c.a, c.m) for c in sl.cells] == [(2, 6), (3, 3), (4, 2), (7, 1)]
    sl13 = iso_s_slice(13)
    assert [(c.a, c.m) for c in sl13.cells] == [
        (2, 12), (3, 6), (4, 4), (5, 3), (7, 2), (13, 1)]
    # s = 2 leaves no cell: 1/log(2) > 1 fails the positivity constraint
    with pytest.raises(ValueError):
        iso_s_slice(2)
    with pytest.raises(ValueError):
        iso_s_slice(1)


def test_row_verdicts():
    with pytest.raises(ValueError):
        slice_verdict(row_slice(1, 6))
    v2 = slice_verdict(row_slice(2, 6))
    assert v2.category == "better"
    assert v2.ratio_class == GrowthClass(poly_deg=2, log_deg=-2, loglog_deg=1)
    assert not v2.futile
    v5 = slice_verdict(row_slice(5, 8))
    assert v5.category == "better"
    assert v5.ratio_class.poly_deg == 5


def test_column_verdicts():
    v = slice_verdict(column_slice(2, 8))
    assert v.category == "best"
    assert v.ratio_class == GrowthClass(
        exp_factors=((2, Fraction(1)),), poly_deg=Fraction(-11, 2), log_deg=1)
    assert slice_verdict(column_slice(3, 8)).category == "best"
    assert slice_verdict(column_slice(6, 5)).category == "best"


def test_diagonal_verdicts():
    assert slice_verdict(main_diagonal_slice(6)).category == "best"
    assert slice_verdict(super_diagonal_slice(1, 6)).category == "best"
    assert slice_verdict(super_diagonal_slice(2, 7)).category == "best"
    assert slice_verdict(sub_diagonal_slice(1, 6)).category == "best"
    assert slice_verdict(sub_diagonal_slice(3, 6)).category == "best"


def test_iso_s_verdict_bad():
    v = slice_verdict(iso_s_slice(7))
    assert v.category == "bad"
    assert v.ratio_class.compare(GrowthClass.constant()) == 0


def test_tableau_csv_roundtrip():
    cells = tableau(3, 2)
    assert len(cells) == 4
    buf = io.StringIO()
    write_tableau_csv(buf, cells)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "a,m,N,kappa_pred,kappa_meas,s_pred,s_meas"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[:4] == ["2", "1", "2", "1"]
    assert float(first[4]) == pytest.approx(1.0)


def test_tableau_csv_measures_the_largest_cell():
    # G_3^8 has 6561 vertices, above the dense limit of 3000
    cells = tableau(3, 8)
    buf = io.StringIO()
    write_tableau_csv(buf, cells)
    rows = [r.split(",") for r in buf.getvalue().strip().splitlines()[1:]]
    assert all("" not in r for r in rows)
    a, m, n, kappa_pred, kappa_meas, s_pred, s_meas = rows[-1]
    assert (a, m, n, kappa_pred, s_pred, s_meas) == ("3", "8", "6561", "8", "17", "17")
    assert float(kappa_meas) == pytest.approx(8.0, rel=1e-12)
