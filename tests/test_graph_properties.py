"""Randomized properties of the array graph core and its CSR matrices.

Every assembled matrix is compared bit for bit with a plain numpy build made
entry by entry from the edge list, and must be in canonical CSR form.  The
measured κ is compared with a numpy eigensolve or SVD of that build.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from nlsp.graphs import (
    Graph,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    next_power_of_two,
    pad_to_power_of_two,
)
from nlsp.spectral import measure, sparsity

weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
tiny_weights = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, directed=None, weights=weights):
    """Random simple graph; undirected input rows come in either orientation."""
    if directed is None:
        directed = draw(st.booleans())
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and (directed or a < b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = []
    for a, b in chosen:
        if not directed and draw(st.booleans()):
            a, b = b, a
        rows.append((a, b, draw(weights)))
    return Graph.from_edges(n, rows, directed)


def assert_canonical(m):
    csr = m.csr
    assert csr.has_canonical_format
    assert np.all(csr.data != 0.0)


def laplacian_by_hand(g: Graph) -> np.ndarray:
    lap = np.zeros((g.n_vertices, g.n_vertices))
    deg = [0.0] * g.n_vertices
    for u, v, w in g.edges:
        lap[u, v] = lap[v, u] = -w
        deg[u] += w
        deg[v] += w
    lap[np.diag_indices(g.n_vertices)] = deg
    return lap


def incidence_by_hand(g: Graph) -> np.ndarray:
    b = np.zeros((g.n_vertices, max(g.n_edges, 1)))
    for k, (u, v, _) in enumerate(g.edges):
        b[u, k] = -1.0
        b[v, k] = 1.0
    return b


@settings(max_examples=150, deadline=None)
@given(graphs(directed=False))
def test_laplacian_equals_entrywise_build(g):
    lap = laplacian(g)
    assert lap.order == g.n_vertices
    assert_canonical(lap)
    assert np.array_equal(lap.to_dense(), laplacian_by_hand(g))


@settings(max_examples=150, deadline=None)
@given(graphs(directed=True))
def test_incidence_and_dilation_equal_entrywise_build(g):
    inc = incidence_matrix(g)
    dense_b = incidence_by_hand(g)
    assert_canonical(inc)
    assert np.array_equal(inc.to_dense(), dense_b)
    dil = hermitian_dilation(inc)
    rows, cols = dense_b.shape
    expected = np.block([[np.zeros((rows, rows)), dense_b], [dense_b.T, np.zeros((cols, cols))]])
    assert dil.order == rows + cols
    assert_canonical(dil)
    assert np.array_equal(dil.to_dense(), expected)


@settings(max_examples=150, deadline=None)
@given(graphs(directed=False), weights)
def test_pad_equals_block_build(g, fill):
    lap = laplacian(g)
    padded = pad_to_power_of_two(lap, fill)
    extra = next_power_of_two(g.n_vertices) - g.n_vertices
    expected = np.block([
        [laplacian_by_hand(g), np.zeros((g.n_vertices, extra))],
        [np.zeros((extra, g.n_vertices)), fill * np.eye(extra)],
    ])
    assert padded.order == g.n_vertices + extra
    assert_canonical(padded)
    assert np.array_equal(padded.to_dense(), expected)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_sparsity_is_max_row_nnz(g):
    m = laplacian(g) if not g.directed else hermitian_dilation(incidence_matrix(g))
    assert sparsity(m) == int((m.to_dense() != 0).sum(axis=1).max())
    if g.directed:
        assert sparsity(incidence_matrix(g)) == sparsity(m)


@settings(max_examples=300, deadline=None)
@given(graphs(weights=tiny_weights), st.booleans())
def test_measured_kappa_equals_numpy_reference(g, iterative):
    # Reference: the smallest nonzero eigenvalue of L, or singular value of
    # B, sits just past the c zero modes that connected_components counts.
    n = g.n_vertices
    adjacency = sp.coo_array((np.ones(g.n_edges), (g.u, g.v)), shape=(n, n))
    c = connected_components(adjacency, directed=False)[0]
    if g.directed:
        m, kind = incidence_matrix(g), "incidence"
    else:
        m, kind = laplacian(g), "laplacian"
    if c == n:
        with pytest.raises(ValueError, match="effectively zero"):
            measure(m, kind)
        return
    if g.directed:
        s = np.linalg.svd(incidence_by_hand(g), compute_uv=False)
        want = s[0] / s[n - c - 1]
    else:
        e = np.linalg.eigvalsh(laplacian_by_hand(g))
        want = e[-1] / e[c]
    # eigsh needs c + 1 < n eigenvalues below the order
    limit = 1 if iterative and c + 1 < n else None
    rec = measure(m, kind, dense_limit=limit)
    # Backward-stable eigensolvers fix λmin only to O(ε·λmax), a relative
    # O(ε·κ); measuring σmin through B·Bᵀ squares that.
    scale = want**2 if g.directed else want
    assert abs(rec.kappa - want) <= 1e3 * np.finfo(float).eps * scale * want
    assert rec.system_size == n + (m.cols if g.directed else 0)


entries = st.sampled_from([0.0, 1.0, -2.5, 3.0, np.nan])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(entries, min_size=n * n, max_size=n * n)))
def test_symmetric_matrix_accepts_exactly_the_symmetric(values):
    n = int(round(len(values) ** 0.5))
    a = np.array(values).reshape(n, n)
    # elementwise equality makes a NaN entry unequal to its mirror
    if np.array_equal(a, a.T):
        assert np.array_equal(SymmetricMatrix(sp.coo_array(a)).to_dense(), a)
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix(a)
    finite = np.nan_to_num(a, nan=0.0)
    sym = finite + finite.T
    assert np.array_equal(SymmetricMatrix(sym).to_dense(), sym)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_graph_rejects_invalid_edges(g, data):
    n = g.n_vertices
    u, v, w = list(g.u), list(g.v), list(g.w)

    def build(uu, vv, ww):
        return Graph(n, uu, vv, ww, g.directed)

    a = data.draw(st.integers(0, n - 1))
    with pytest.raises(ValueError, match="self-loop"):
        build(u + [a], v + [a], w + [1.0])
    far = data.draw(st.integers(n, n + 5))
    with pytest.raises(ValueError, match="out of range"):
        build(u + [min(a, far)], v + [far], w + [1.0])
    with pytest.raises(ValueError, match="out of range"):
        build(u + [-1], v + [a], w + [1.0])
    if g.n_edges:
        k = data.draw(st.integers(0, g.n_edges - 1))
        bad = data.draw(st.sampled_from([0.0, -1.0, -1e-300]))
        with pytest.raises(ValueError, match="non-positive"):
            build(u, v, w[:k] + [bad] + w[k + 1:])
        with pytest.raises(ValueError, match="duplicate"):
            build(u + [u[k]], v + [v[k]], w + [1.0])
        if not g.directed:
            # the reverse of a stored undirected edge is the same edge
            with pytest.raises(ValueError, match="duplicate"):
                build(u + [v[k]], v + [u[k]], w + [1.0])
            with pytest.raises(ValueError, match="u < v"):
                build(u[:k] + [v[k]] + u[k + 1:], v[:k] + [u[k]] + v[k + 1:], w)
    assert build(u, v, w) == g
