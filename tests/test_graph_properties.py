"""Randomized properties of the array graph core and its CSR matrices.

Every assembled matrix is compared bit for bit with a plain numpy build made
entry by entry from the edge list, and must be in canonical CSR form.  The
measured κ is compared with a numpy eigensolve or SVD of that build.
"""

import io
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from nlsp import spectral
from nlsp.graphs import (
    Graph,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    next_power_of_two,
    pad_to_power_of_two,
    read_edge_list,
    system_matrix,
    write_edge_list,
)
from nlsp.spectral import measure, sparsity

weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
tiny_weights = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, directed=None, weights=weights):
    """Random simple graph; undirected input rows come in either orientation
    and carry drawn weights, a digraph's arcs carry unit weight."""
    if directed is None:
        directed = draw(st.booleans())
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and (directed or a < b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = []
    for a, b in chosen:
        if not directed and draw(st.booleans()):
            a, b = b, a
        rows.append((a, b, 1.0 if directed else draw(weights)))
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
@given(graphs())
def test_built_laplacian_and_dilation_equal_their_sorted_transpose(g):
    # laplacian and hermitian_dilation skip SymmetricMatrix's check, which
    # compares the canonical CSR arrays with those of the sorted transpose
    m = hermitian_dilation(incidence_matrix(g)) if g.directed else laplacian(g)
    t = m.csr.T.tocsr()
    t.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(m.csr, name), getattr(t, name)), name


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
    m = system_matrix(g)
    if c == n:
        with pytest.raises(ValueError, match="effectively zero"):
            measure(m)
        return
    if g.directed:
        s = np.linalg.svd(incidence_by_hand(g), compute_uv=False)
        want = s[0] / s[n - c - 1]
    else:
        e = np.linalg.eigvalsh(laplacian_by_hand(g))
        want = e[-1] / e[c]
    # with c + 1 = n, λmax is the only nonzero eigenvalue: no λmin for Lanczos
    limit = 1 if iterative and c + 1 < n else None
    rec = measure(m, dense_limit=limit)
    # Backward-stable eigensolvers fix λmin only to O(ε·λmax), a relative
    # O(ε·κ); measuring σmin through B·Bᵀ squares that.
    scale = want**2 if g.directed else want
    assert abs(rec.kappa - want) <= 1e3 * np.finfo(float).eps * scale * want
    assert rec.system_size == n + (m.cols if g.directed else 0)


def system_and_kappa(g: Graph, c: int):
    """g's system matrix and κ from a numpy eigensolve or SVD of the build
    by hand, for g with c components and some edge."""
    n = g.n_vertices
    if g.directed:
        s = np.linalg.svd(incidence_by_hand(g), compute_uv=False)
        kappa = s[0] / s[n - c - 1]
    else:
        e = np.linalg.eigvalsh(laplacian_by_hand(g))
        kappa = e[-1] / e[c]
    return system_matrix(g), kappa


@st.composite
def sparse_multicomponent_graphs(draw):
    """Disjoint union of 2 to 4 connected graphs, each a random tree plus a
    few chords, the first with at least 3 vertices, and 1 to 3 isolated
    vertices; undirected with drawn weights, or with each edge randomly
    oriented."""
    directed = draw(st.booleans())
    sizes = [draw(st.integers(3, 40))] + draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    sizes += [1] * draw(st.integers(1, 3))
    pairs, base = set(), 0
    for size in sizes:
        for v in range(1, size):
            pairs.add((base + draw(st.integers(0, v - 1)), base + v))
        for _ in range(draw(st.integers(0, size // 2))):
            u, v = sorted(draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2)))
            if u < v:
                pairs.add((base + u, base + v))
        base += size
    rows = []
    for u, v in sorted(pairs):
        if directed and draw(st.booleans()):
            u, v = v, u
        rows.append((u, v, 1.0 if directed else draw(st.floats(0.5, 2.0))))
    return Graph.from_edges(base, rows, directed), len(sizes)


# Each iterative λmin route, forced with the factored route closed: an
# infinite _WIDE calls every diagonal narrow and a zero one every diagonal
# wide, a budget of 10⁴ products lets either run finish, and a budget of 0
# makes it give up.
FORCED_ROUTES = {
    "factor-free": {"_FACTOR_FREE_MATVECS": 10**4, "_WIDE": math.inf},
    "preconditioned": {"_FACTOR_FREE_MATVECS": 10**4, "_WIDE": 0.0},
    "grounded": {"_FACTOR_FREE_MATVECS": 0},
}


@settings(max_examples=100, deadline=None)
@given(sparse_multicomponent_graphs())
def test_factor_free_and_grounded_lanczos_match_eigvalsh(case):
    # Lanczos as routed (factored on nearly all of these, whose envelope is
    # small), then each route of FORCED_ROUTES in turn
    g, c = case
    m, want = system_and_kappa(g, c)
    # as in test_measured_kappa_equals_numpy_reference; the factor-free
    # path also meets 1e-12 relative on these well-conditioned graphs
    rtol = 1e3 * np.finfo(float).eps * (want**2 if g.directed else want)
    lus = {"factor-free": 0, "preconditioned": 0, "grounded": 1, "factored": 2}
    factors = []
    with pytest.MonkeyPatch.context() as mp:
        real_splu = spectral.spla.splu
        mp.setattr(spectral.spla, "splu", lambda *a, **k: factors.append(1) or real_splu(*a, **k))
        routed = measure(m, dense_limit=1)
        records = {routed.eigensolver: routed}
        assert len(factors) == lus[routed.eigensolver]
        # the vertex pairs are distinct, so G's pattern is a forest exactly
        # when edges = order - components
        if g.n_edges == g.n_vertices - c:
            assert routed.eigensolver == "factored"
        mp.setattr(spectral, "_factors_cheaply", lambda a, components: False)
        for route, patches in FORCED_ROUTES.items():
            with pytest.MonkeyPatch.context() as forced:
                for name, value in patches.items():
                    forced.setattr(spectral, name, value)
                factors.clear()
                records[route] = measure(m, dense_limit=1)
                assert records[route].eigensolver == route
                assert len(factors) == lus[route]
                assert measure(m, dense_limit=1) == records[route]
    for route, rec in records.items():
        tol = min(rtol, 1e-12) if route == "factor-free" else rtol
        assert abs(rec.kappa - want) <= tol * want, route


@st.composite
def forests_and_banded_graphs(draw):
    """A random forest with a component of at least 3 vertices, or a
    graph whose edges join vertices at most 3 apart in a random labelling
    (a banded graph, possibly several bands); undirected or with each edge
    randomly oriented."""
    directed = draw(st.booleans())
    n = draw(st.integers(4, 120))
    if draw(st.booleans()):
        # vertex v > 2 hangs from an earlier vertex, or roots a new tree (-1)
        parents = [0, 1] + [draw(st.integers(-1, v - 1)) for v in range(3, n)]
        pairs = {(p, v) for v, p in enumerate(parents, 1) if p >= 0}
    else:
        pairs = {(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))
                 if draw(st.booleans())} | {(0, 1), (1, 2)}
    labels = draw(st.permutations(range(n)))
    rows = []
    for u, v in sorted(pairs):
        u, v = labels[u], labels[v]
        if directed and draw(st.booleans()):
            u, v = v, u
        rows.append((u, v, 1.0 if directed else draw(st.floats(0.5, 2.0))))
    return Graph.from_edges(n, rows, directed)


@settings(max_examples=100, deadline=None)
@given(forests_and_banded_graphs())
def test_factored_route_matches_eigvalsh(g):
    # both factor cheaply whatever their labelling: a forest fills nothing,
    # and reverse Cuthill–McKee recovers a small envelope
    n = g.n_vertices
    c = connected_components(sp.coo_array((np.ones(g.n_edges), (g.u, g.v)), shape=(n, n)),
                             directed=False)[0]
    m, want = system_and_kappa(g, c)
    rec = measure(m, dense_limit=1)
    assert rec.eigensolver == "factored"
    # as in test_measured_kappa_equals_numpy_reference
    rtol = 1e3 * np.finfo(float).eps * (want**2 if g.directed else want)
    assert abs(rec.kappa - want) <= rtol * want


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
        bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            build(u, v, w[:k] + [bad] + w[k + 1:])
        with pytest.raises(ValueError, match="duplicate"):
            build(u + [u[k]], v + [v[k]], w + [1.0])
        if not g.directed:
            # the reverse of a stored undirected edge is the same edge
            with pytest.raises(ValueError, match="duplicate"):
                build(u + [v[k]], v + [u[k]], w + [1.0])
            with pytest.raises(ValueError, match="u < v"):
                build(u[:k] + [v[k]] + u[k + 1:], v[:k] + [u[k]] + v[k + 1:], w)
        else:
            heavy = data.draw(weights.filter(lambda x: x != 1.0))
            with pytest.raises(ValueError, match=rf"edge \({u[k]},{v[k]}\) has weight"):
                build(u, v, w[:k] + [heavy] + w[k + 1:])
    assert build(u, v, w) == g


@settings(max_examples=100, deadline=None)
@given(graphs(directed=True).filter(lambda g: g.n_edges), st.data())
def test_digraph_with_a_weighted_arc_is_refused(g, data):
    # every way in: the arrays, the rows and the edge-list file
    k = data.draw(st.integers(0, g.n_edges - 1))
    heavy = data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                      .filter(lambda x: x != 1.0))
    w = g.w.tolist()
    w[k] = heavy
    rows = list(zip(g.u.tolist(), g.v.tolist(), w))
    text = f"directed {g.n_vertices}\n" + "".join(f"{a} {b} {x!r}\n" for a, b, x in rows)
    named = re.escape(f"edge ({g.u[k]},{g.v[k]}) has weight {heavy!r}, "
                      "but a digraph's arcs carry unit weight")
    for build in (
        lambda: Graph(g.n_vertices, g.u, g.v, w, directed=True),
        lambda: Graph.from_edges(g.n_vertices, rows, directed=True),
        lambda: read_edge_list(io.StringIO(text)),
    ):
        with pytest.raises(ValueError, match=named):
            build()


@settings(max_examples=100, deadline=None)
@given(graphs(directed=True))
def test_unit_digraph_edge_list_round_trips(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"directed {g.n_vertices}"
    assert [line.split()[2] for line in lines[1:]] == ["1.0"] * g.n_edges
    buf.seek(0)
    assert read_edge_list(buf) == g
