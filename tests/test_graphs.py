import io
import math

import numpy as np
import pytest

from nlsp.graphs import (
    Graph,
    RectMatrix,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    next_power_of_two,
    pad_to_power_of_two,
    read_edge_list,
    write_edge_list,
)


def cycle(n: int, directed: bool = False) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], directed)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1, -2.0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    # Directed graphs may hold both orientations.
    g = Graph.from_edges(3, [(0, 1), (1, 0)], directed=True)
    assert g.n_edges == 2


def test_laplacian_off_diagonal_is_minus_weight():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    q = laplacian(k3)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert q.entry(i, j) == -1.0
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    qp = laplacian(p3)
    assert qp.entry(0, 1) == -1.0 and qp.entry(1, 2) == -1.0 and qp.entry(0, 2) == 0.0
    assert qp.entry(2, 0) == 0.0 and qp.entry(1, 0) == -1.0
    w = Graph.from_edges(2, [(0, 1, 2.5)])
    assert laplacian(w).entry(0, 1) == -2.5
    with pytest.raises(ValueError):
        laplacian(cycle(4, directed=True))


def test_laplacian_diagonal_is_weighted_degree():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    d = laplacian(k4)
    assert [d.entry(i, i) for i in range(4)] == [3.0] * 4
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert [laplacian(p3).entry(i, i) for i in range(3)] == [1.0, 2.0, 1.0]
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert laplacian(star).entry(0, 0) == 4.0
    weighted = Graph.from_edges(3, [(0, 1, 0.5), (0, 2, 2.25)])
    lw = laplacian(weighted)
    assert [lw.entry(i, i) for i in range(3)] == [2.75, 0.5, 2.25]
    for g in (k4, p3, star, weighted):
        assert np.array_equal(laplacian(g).to_dense().sum(axis=1), np.zeros(g.n_vertices))


def test_laplacian_examples():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(laplacian(p3).to_dense(), expected)
    k2 = Graph.from_edges(2, [(0, 1)])
    assert np.array_equal(laplacian(k2).to_dense(), np.array([[1, -1], [-1, 1.0]]))
    c4 = laplacian(cycle(4)).to_dense()
    assert np.array_equal(np.diag(c4), np.full(4, 2.0))
    for i in range(4):
        assert c4[i, (i + 1) % 4] == -1.0


def test_laplacian_row_sums_and_psd():
    samples = [
        cycle(5),
        Graph.from_edges(4, [(0, 1, 0.3), (1, 2, 2.0), (2, 3, 5.5), (0, 3, 1.1), (0, 2, 0.7)]),
        Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    ]
    for g in samples:
        dense = laplacian(g).to_dense()
        assert np.max(np.abs(dense.sum(axis=1))) < 1e-12
        assert np.linalg.eigvalsh(dense).min() > -1e-9


def test_incidence_examples():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
    b = incidence_matrix(g).to_dense()
    expected = np.array(
        [
            [-1, 0, 0, 1],
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, -1],
        ],
        dtype=float,
    )
    assert np.array_equal(b, expected)
    single = Graph.from_edges(2, [(0, 1)], directed=True)
    assert np.array_equal(incidence_matrix(single).to_dense(), np.array([[-1.0], [1.0]]))
    path = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    bp = incidence_matrix(path).to_dense()
    assert bp.shape == (3, 2)
    assert np.array_equal(bp.sum(axis=0), np.zeros(2))
    with pytest.raises(ValueError):
        incidence_matrix(cycle(3))


def test_incidence_column_sums_exactly_zero():
    g = cycle(7, directed=True)
    b = incidence_matrix(g)
    assert np.array_equal(b.to_dense().sum(axis=0), np.zeros(b.cols))
    assert b.csr.nnz == 2 * b.cols


def test_dilation_trivial_and_zero():
    one = RectMatrix([[1.0]])
    h = hermitian_dilation(one)
    assert np.array_equal(h.to_dense(), np.array([[0, 1], [1, 0.0]]))
    assert sorted(np.linalg.eigvalsh(h.to_dense())) == pytest.approx([-1.0, 1.0])
    zero = RectMatrix(np.zeros((2, 3)))
    hz = hermitian_dilation(zero)
    assert hz.order == 5
    assert np.array_equal(hz.to_dense(), np.zeros((5, 5)))


def test_dilation_of_directed_cycle_matches_svd_oracle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
    b = incidence_matrix(g)
    h = hermitian_dilation(b).to_dense()
    sigma = np.linalg.svd(b.to_dense(), compute_uv=False)
    nonzero = sorted(s for s in sigma if s > 1e-9)
    assert nonzero == pytest.approx([math.sqrt(2), math.sqrt(2), 2.0], abs=1e-9)
    eigs = np.linalg.eigvalsh(h)
    # Dilation spectrum is {+sigma} U {-sigma} U {0}.
    top = sorted(e for e in eigs if e > 1e-9)
    assert top == pytest.approx(nonzero, abs=1e-9)


def test_dilation_spectrum_symmetry():
    rng = np.random.default_rng(5)
    for rows, cols in [(3, 5), (8, 8), (20, 12)]:
        dense = rng.normal(size=(rows, cols))
        b = RectMatrix(dense)
        eigs = np.sort(np.linalg.eigvalsh(hermitian_dilation(b).to_dense()))
        assert np.allclose(eigs, -eigs[::-1], atol=1e-9)


def test_pad_to_power_of_two():
    l3 = laplacian(Graph.from_edges(3, [(0, 1), (1, 2)]))
    p = pad_to_power_of_two(l3, 1.0)
    assert p.order == 4
    assert p.entry(3, 3) == 1.0
    assert p.entry(2, 3) == 0.0
    l4 = laplacian(cycle(4))
    assert pad_to_power_of_two(l4, 1.0) is l4
    m5 = SymmetricMatrix(np.diag(np.full(5, 3.0)))
    p8 = pad_to_power_of_two(m5, 2.0)
    assert p8.order == 8
    assert [p8.entry(k, k) for k in range(5, 8)] == [2.0, 2.0, 2.0]
    for fill in (0.0, float("nan")):
        with pytest.raises(ValueError, match="fill must be positive"):
            pad_to_power_of_two(m5, fill)
    assert [next_power_of_two(k) for k in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


def test_weight_scaling_preserves_kappa_and_sparsity():
    def kappa_s(g: Graph) -> tuple[float, int]:
        m = laplacian(g)
        eigs = np.linalg.eigvalsh(m.to_dense())
        nz = [abs(e) for e in eigs if abs(e) > 1e-6]
        return max(nz) / min(nz), int((m.to_dense() != 0).sum(axis=1).max())

    samples = [
        cycle(4),
        cycle(7),
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph.from_edges(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 0.5)]),
        Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    ]
    for g in samples:
        base_kappa, base_s = kappa_s(g)
        for c in (0.5, 3.0):
            scaled = Graph.from_edges(
                g.n_vertices, [(u, v, w * c) for u, v, w in g.edges], g.directed
            )
            k, s = kappa_s(scaled)
            assert k == pytest.approx(base_kappa, rel=1e-9)
            assert s == base_s


def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 1, 1.5), (2, 4), (1, 3, 0.25)], directed=True)
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    back = read_edge_list(buf)
    assert back == g
    text = buf.getvalue().splitlines()
    assert text[0] == "directed 5"
    assert text[1] == "0 1 1.5"
    bad = io.StringIO("mixed 4\n0 1 1\n")
    with pytest.raises(ValueError):
        read_edge_list(bad)
    with pytest.raises(ValueError, match="line 3"):
        read_edge_list(io.StringIO("undirected 3\n0 1\n2\n"))


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("undirected 4\n0 1\n1 x\n", 3),
        ("undirected 4\n1.5 2\n", 2),
        ("undirected 4\n0 1\n\n2 3 heavy\n", 4),
        ("undirected four\n0 1\n", 1),
    ],
)
def test_edge_list_unparseable_field_names_its_line(text, lineno):
    with pytest.raises(ValueError, match=f"^edge-list line {lineno}: expected"):
        read_edge_list(io.StringIO(text))


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_edge_list_non_finite_weight(weight):
    with pytest.raises(ValueError, match=f"non-finite weight {weight} on edge \\(0,1\\)"):
        read_edge_list(io.StringIO(f"undirected 3\n0 1 {weight}\n1 2 1\n"))
