import math
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from nlsp import spectral
from nlsp.families import generate, make_spec
from nlsp.graphs import (
    Graph,
    RectMatrix,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    pad_to_power_of_two,
    system_matrix,
)
from nlsp.hhl import zero_tolerance
from nlsp.spectral import extreme_eigs, measure, sparsity


def complete(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def hypercube(n: int) -> Graph:
    edges = []
    for u in range(2**n):
        for b in range(n):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
    return Graph.from_edges(2**n, edges)


def ladder(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n + i, n + i + 1) for i in range(n - 1)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def directed_c4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)


def directed_path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], directed=True)


def two_ladders() -> Graph:
    """ladder(5) and ladder(7) side by side plus an isolated vertex: 3 components."""
    a, b = ladder(5), ladder(7)
    edges = list(zip(a.u, a.v)) + [(10 + u, 10 + v) for u, v in zip(b.u, b.v)]
    return Graph.from_edges(25, edges)


def path_cycle_point() -> Graph:
    """Directed path on 0..9, directed cycle on 10..15, isolated 16: 3 components."""
    edges = [(i, i + 1) for i in range(9)] + [(10 + i, 10 + (i + 1) % 6) for i in range(6)]
    return Graph.from_edges(17, edges, directed=True)


def dense_kappa(m: SymmetricMatrix) -> float:
    """max|λ| / min nonzero |λ| of any symmetric m, from eigvalsh, with |λ|
    at or below numpy's rank tolerance counted as zero."""
    eigs = np.abs(np.linalg.eigvalsh(m.to_dense()))
    return float(eigs.max() / eigs[eigs > zero_tolerance(eigs, eigs.size)].min())


def test_full_spectrum_k4():
    eigs = np.linalg.eigvalsh(laplacian(complete(4)).to_dense())
    assert eigs == pytest.approx([0, 4, 4, 4], abs=1e-9)


def test_full_spectrum_hypercube3():
    # Eigenvalues 2k with multiplicity C(3, k).
    eigs = np.linalg.eigvalsh(laplacian(hypercube(3)).to_dense())
    assert eigs == pytest.approx([0, 2, 2, 2, 4, 4, 4, 6], abs=1e-9)


def test_extreme_eigs_examples():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    out = extreme_eigs(laplacian(c4))
    assert (out.lam_min, out.lam_max) == pytest.approx((2.0, 4.0), abs=1e-9)
    assert (out.eigensolver, out.kernel) == ("dense", 1)
    assert measure(laplacian(c4)).kappa == pytest.approx(2.0, abs=1e-9)
    # the dilation is indefinite: its |λ| extremes are those measure reads off B·Bᵀ
    h = hermitian_dilation(incidence_matrix(directed_c4()))
    rec = measure(incidence_matrix(directed_c4()))
    assert (rec.lambda_min_nz, rec.lambda_max) == pytest.approx((math.sqrt(2), 2.0), abs=1e-9)
    assert dense_kappa(h) == pytest.approx(rec.kappa, abs=1e-9)
    k2 = laplacian(Graph.from_edges(2, [(0, 1)]))
    assert extreme_eigs(k2)[:2] == pytest.approx((2.0, 2.0))
    assert measure(k2).kappa == pytest.approx(1.0)


def test_measure_records_the_kernel_and_the_path(monkeypatch):
    # measure looks extreme_eigs up by its module name, so a wrapper put
    # there sees every route, and each record carries what it returned
    seen = []
    real = spectral.extreme_eigs

    def counted(g, **kwargs):
        seen.append(real(g, **kwargs))
        return seen[-1]

    monkeypatch.setattr(spectral, "extreme_eigs", counted)
    cases = [
        (lambda: laplacian(two_ladders()), "laplacian", None, "dense", 3),
        (lambda: incidence_matrix(path_cycle_point()), "incidence", None, "dense", 3),
        (lambda: laplacian(two_ladders()), "laplacian", 1, "factored", 3),
        (lambda: incidence_matrix(path_cycle_point()), "incidence", 1, "factored", 3),
        (lambda: laplacian(family_graph("modified_mgg", 20)), "laplacian", 1, "factor-free", 1),
        (
            lambda: laplacian(family_graph("barabasi_albert", 600, seed=3)),
            "laplacian", 1, "preconditioned", 1,
        ),
        (
            lambda: laplacian(family_graph("newman_watts_strogatz", 1672)),
            "laplacian", 1, "factor-free", 1,
        ),
    ]
    for system, kind, limit, path, kernel in cases:
        rec = measure(system(), dense_limit=limit)
        (out,) = seen
        seen.clear()
        assert rec.matrix_kind == kind
        assert (rec.eigensolver, rec.kernel) == (out.eigensolver, out.kernel) == (path, kernel)
        lam = (out.lam_min, out.lam_max)
        if kind == "incidence":
            lam = tuple(map(math.sqrt, lam))
        assert (rec.lambda_min_nz, rec.lambda_max) == lam


def test_extreme_eigs_zero_matrix():
    zero = SymmetricMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="effectively zero"):
        extreme_eigs(zero)
    # every vertex is its own component exactly when the graph has no edges
    edge_free = (
        laplacian(Graph.from_edges(3, [])),
        incidence_matrix(Graph.from_edges(3, [], directed=True)),
        laplacian(Graph.from_edges(1, [])),
    )
    for m in edge_free:
        with pytest.raises(ValueError) as err:
            measure(m)
        assert str(err.value) == (
            "effectively zero matrix: no nonzero eigenvalue, as the graph has no edges"
        )


def test_extreme_eigs_refuses_nonzero_row_sums():
    # L + I of P₄ is positive definite: a kernel counted from its one
    # component would skip λmin and report κ = 2.78 for the true 4.41
    p4 = laplacian(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    shifted = SymmetricMatrix(p4.to_dense() + np.eye(4))
    dilation = hermitian_dilation(incidence_matrix(directed_path(4)))
    for m, row_sum in ((shifted, "1"), (dilation, "-1")):
        with pytest.raises(ValueError, match=f"^row 0 sums to {row_sum}, not 0"):
            measure(m)
    # every vertex of the directed C₄ has in- and out-degree 1: the rows of
    # its dilation sum to 0, and its +1 entries lie off the diagonal
    balanced = hermitian_dilation(incidence_matrix(directed_c4()))
    with pytest.raises(ValueError, match="^positive off-diagonal entry: a Laplacian"):
        measure(balanced)


def test_lanczos_path_counts_the_components():
    # a sparse Laplacian of order 401 takes Lanczos, whose pseudo-inverse
    # needs the kernel spanned by the component indicators: extreme_eigs
    # counts them, here a ladder and an isolated vertex
    rungs = ladder(200)
    lap = laplacian(Graph.from_edges(401, list(zip(rungs.u, rungs.v))))
    out = extreme_eigs(lap)
    assert (out.eigensolver, out.kernel) == ("factored", 2)
    assert out[:2] == pytest.approx(dense_extremes(lap, "laplacian"), rel=1e-9)


def test_condition_number_families():
    def kappa(g: Graph) -> float:
        return measure(laplacian(g)).kappa

    for n in (4, 6, 9):
        assert kappa(complete(n)) == pytest.approx(1.0, abs=1e-9)
    for n in (2, 3, 4, 5, 6):
        assert kappa(hypercube(n)) == pytest.approx(n, rel=1e-9)
    # Ladder kappa grows like n^2: doubling n roughly quadruples kappa.
    assert 3.0 < kappa(ladder(40)) / kappa(ladder(20)) < 5.0


def test_sparsity_examples():
    assert sparsity(laplacian(complete(4))) == 4
    side = 5
    idx = lambda r, c: r * side + c
    edges = []
    for r in range(side):
        for c in range(side):
            if r + 1 < side:
                edges.append((idx(r, c), idx(r + 1, c)))
            if c + 1 < side:
                edges.append((idx(r, c), idx(r, c + 1)))
    grid = Graph.from_edges(side * side, edges)
    assert sparsity(laplacian(grid)) == 5
    b = incidence_matrix(directed_c4())
    assert sparsity(hermitian_dilation(b)) == 2
    nonzero = b.to_dense() != 0
    row_nnz, col_nnz = nonzero.sum(axis=1), nonzero.sum(axis=0)
    assert sparsity(hermitian_dilation(b)) == max(row_nnz.max(), col_nnz.max())


def test_sparsity_invariant_under_padding():
    m = laplacian(complete(5))
    assert sparsity(pad_to_power_of_two(m, 2.0)) == sparsity(m)


def test_kappa_invariant_under_rescaling():
    systems = [
        laplacian(complete(5)),
        laplacian(hypercube(3)),
        laplacian(ladder(7)),
        incidence_matrix(directed_c4()),
        laplacian(Graph.from_edges(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 3.0)])),
    ]
    for m in systems:
        scaled = type(m)(10.0 * m.csr)
        kappa = measure(m).kappa
        assert measure(scaled).kappa == pytest.approx(kappa, rel=1e-12)


def test_connected_laplacians_single_zero_mode():
    for g in [complete(12), hypercube(5), ladder(30)]:
        eigs = np.abs(np.linalg.eigvalsh(laplacian(g).to_dense()))
        assert int((eigs <= zero_tolerance(eigs, eigs.size)).sum()) == 1


def test_dilation_kappa_vs_svd_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rows = int(rng.integers(2, 33))
        cols = int(rng.integers(2, 33))
        dense = rng.normal(size=(rows, cols))
        b = RectMatrix(dense)
        kappa = dense_kappa(hermitian_dilation(b))
        sigma = np.linalg.svd(dense, compute_uv=False)
        nz = sigma[sigma > 1e-9]
        assert kappa == pytest.approx(nz.max() / nz.min(), rel=1e-8)


def test_measure_record_fields():
    rec = measure(laplacian(hypercube(3)))
    assert rec.system_size == 8
    assert rec.kappa == pytest.approx(3.0, rel=1e-9)
    assert rec.sparsity == 4
    assert rec.matrix_kind == "laplacian"
    assert not hasattr(rec, "cutoff")
    assert rec.kappa == pytest.approx(rec.lambda_max / rec.lambda_min_nz)


def test_iterative_path_matches_dense():
    g = ladder(40)
    dense = measure(laplacian(g))
    it = measure(laplacian(g), dense_limit=50)
    assert it.lambda_max == pytest.approx(dense.lambda_max, rel=1e-7)
    assert it.lambda_min_nz == pytest.approx(dense.lambda_min_nz, rel=1e-7)
    it = measure(incidence_matrix(directed_c4()), dense_limit=3)
    assert (it.lambda_min_nz, it.lambda_max) == pytest.approx((math.sqrt(2), 2.0), rel=1e-7)


def dense_extremes(m, kind: str) -> tuple[float, float]:
    """(smallest nonzero, largest) |eigenvalue| of the measured system, from
    eigvalsh of G = L or B·Bᵀ and G's component count, computed here."""
    g = m.csr if kind == "laplacian" else m.csr @ m.csr.T
    c = connected_components(g, directed=False)[0]
    eigs = np.linalg.eigvalsh(g.toarray())
    lo, hi = float(eigs[c]), float(eigs[-1])
    return (math.sqrt(lo), math.sqrt(hi)) if kind == "incidence" else (lo, hi)


def test_iterative_cross_validation_at_overlap_scale():
    # Lanczos vs dense eigvalsh on an instance in the 2000-3000 overlap
    # window: the ladder is sparse, so measure takes Lanczos at any limit.
    m = laplacian(ladder(1010))
    lam_min, lam_max = dense_extremes(m, "laplacian")
    it = measure(m)
    assert it.lambda_max == pytest.approx(lam_max, rel=1e-6)
    assert it.lambda_min_nz == pytest.approx(lam_min, rel=1e-6)


def family_graph(family: str, n: int, **kw) -> Graph:
    return generate(make_spec(family, schedule=(n,), **kw), n).graph


def generalized_hypercube(a: int, m: int) -> Graph:
    return family_graph("generalized_hypercube", m, params={"a": a})


@pytest.fixture
def lanczos_path(monkeypatch):
    """The path the last measure took: "factor-free" (G's diagonal narrow),
    "preconditioned" (LOBPCG, G's diagonal wide), "grounded" (the
    pseudo-inverse through one LU, after the one λmin run gave up),
    "factored" (G factors cheaply: one LU for the pseudo-inverse, one for
    λmax by shift-invert, and no λmin run) or "lambda-max" (λmax is the only
    nonzero eigenvalue)."""
    calls = {"deflated": 0, "preconditioned": 0, "splu": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("deflated", "preconditioned"):
        attr = f"_smallest_{name}"
        monkeypatch.setattr(spectral, attr, counted(name, getattr(spectral, attr)))
    monkeypatch.setattr(spectral.spla, "splu", counted("splu", spectral.spla.splu))

    def path() -> str:
        taken = (calls["deflated"], calls["preconditioned"], calls["splu"])
        calls.update(deflated=0, preconditioned=0, splu=0)
        return {
            (1, 0, 0): "factor-free", (0, 1, 0): "preconditioned", (1, 0, 1): "grounded",
            (0, 1, 1): "grounded", (0, 0, 2): "factored", (0, 0, 0): "lambda-max",
        }[taken]

    return path


@pytest.mark.parametrize(
    "system, kind, rtol, path",
    [
        # banded G, and the forest B·Bᵀ of a directed path, factor cheaply
        (lambda: laplacian(two_ladders()), "laplacian", 1e-12, "factored"),
        (lambda: incidence_matrix(path_cycle_point()), "incidence", 1e-12, "factored"),
        # κ(B·Bᵀ) ≈ 5.8e5: Lanczos on the deflated G would need thousands of
        # products
        (lambda: incidence_matrix(directed_path(1200)), "incidence", 1e-7, "factored"),
        # kernel dimension 19 = order - 1: λmax is the only nonzero eigenvalue
        (lambda: laplacian(Graph.from_edges(20, [(0, 1)])), "laplacian", 1e-7, "lambda-max"),
        # a scale-free graph: its hubs spread G's diagonal, which stalls
        # Lanczos and which the Jacobi preconditioner evens out
        (
            lambda: laplacian(family_graph("barabasi_albert", 600, seed=3)),
            "laplacian", 1e-10, "preconditioned",
        ),
        # a ring with shortcuts, whose factor-free run takes 311 products
        (
            lambda: laplacian(family_graph("newman_watts_strogatz", 1672)),
            "laplacian", 1e-10, "factor-free",
        ),
        (lambda: laplacian(family_graph("modified_mgg", 20)), "laplacian", 1e-12, "factor-free"),
        (lambda: incidence_matrix(family_graph("gn", 400, seed=19)), "incidence", 1e-10, "factored"),
        # λ₂ far below λmax: 7.55e-7 on order 2048, and 1.0e-5 on order 2091
        (
            lambda: laplacian(family_graph("hypercube", 11, weight_rule="quadratic_rule")),
            "laplacian", 1e-8, "preconditioned",
        ),
        (lambda: laplacian(family_graph("random_lobster", 300)), "laplacian", 1e-8, "factored"),
        # too large for the dense reference, so the closed forms stand in:
        # Q_13 has eigenvalues 2k, G_3^8 (K_3 to the 8th Cartesian power) 3k
        (lambda: laplacian(hypercube(13)), (2.0, 26.0), 1e-12, "factor-free"),
        (lambda: laplacian(generalized_hypercube(3, 8)), (3.0, 24.0), 1e-12, "factor-free"),
    ],
    ids=[
        "two-ladders", "path-cycle-point", "directed-path-1200", "one-edge-of-20",
        "barabasi-albert-600", "newman-watts-strogatz-1672", "modified-mgg-20", "gn-400",
        "hypercube-quadratic-11", "random-lobster-300", "hypercube-13",
        "generalized-hypercube-3-8",
    ],
)
def test_dense_and_lanczos_agree(system, kind, rtol, path, lanczos_path):
    m = system()
    if isinstance(kind, tuple):
        (lam_min, lam_max), kind = kind, "laplacian"
    else:
        lam_min, lam_max = dense_extremes(m, kind)
    routed = measure(m)
    lanczos_path()
    it = measure(m, dense_limit=1)
    assert lanczos_path() == path
    # the record names the path; a lone nonzero eigenvalue needs no factor
    assert it.eigensolver == ("factor-free" if path == "lambda-max" else path)
    assert routed.eigensolver in ("dense", it.eigensolver)
    assert routed.kernel == it.kernel
    for rec in (routed, it):
        assert rec.kappa == pytest.approx(lam_max / lam_min, rel=rtol)
        assert rec.lambda_min_nz == pytest.approx(lam_min, rel=rtol)
        assert rec.lambda_max == pytest.approx(lam_max, rel=rtol)
    assert (it.system_size, it.sparsity) == (routed.system_size, routed.sparsity)
    assert routed.matrix_kind == it.matrix_kind == kind


def test_factor_free_budget_counts_products(monkeypatch, lanczos_path):
    # modified_mgg n=20 (diagonal spread 2) takes 61 factor-free products; a
    # budget one short of them makes the run give up, and the grounded
    # pseudo-inverse finds the same λmin
    m = laplacian(family_graph("modified_mgg", 20))
    free = measure(m, dense_limit=1)
    assert lanczos_path() == "factor-free"
    monkeypatch.setattr(spectral, "_FACTOR_FREE_MATVECS", 60)
    grounded = measure(m, dense_limit=1)
    assert lanczos_path() == "grounded"
    assert grounded.kappa == pytest.approx(free.kappa, rel=1e-12)
    assert (free.eigensolver, grounded.eigensolver) == ("factor-free", "grounded")
    monkeypatch.setattr(spectral, "_FACTOR_FREE_MATVECS", 61)
    assert measure(m, dense_limit=1) == free
    assert lanczos_path() == "factor-free"


def test_preconditioned_budget_counts_products(monkeypatch):
    # routed as wide, modified_mgg n=20 takes 63 LOBPCG products: one short
    # of them, the run spends its budget and falls through to the grounded
    # LU, whose κ is unchanged; with them, θ lies within the bound its
    # residual sets
    m = laplacian(family_graph("modified_mgg", 20))
    free = measure(m, dense_limit=1)
    monkeypatch.setattr(spectral, "_WIDE", 1)
    monkeypatch.setattr(spectral, "_FACTOR_FREE_MATVECS", 62)
    grounded = measure(m, dense_limit=1)
    assert grounded.eigensolver == "grounded"
    assert grounded.kappa == pytest.approx(free.kappa, rel=1e-12)
    monkeypatch.setattr(spectral, "_FACTOR_FREE_MATVECS", 63)
    preconditioned = measure(m, dense_limit=1)
    assert preconditioned.eigensolver == "preconditioned"
    assert preconditioned.kappa == pytest.approx(free.kappa, rel=1e-12)


def test_a_wide_diagonal_makes_no_factor_free_run(lanczos_path):
    # the quadratic rule spreads the diagonal of hypercube 9 by 2.3e4, far
    # past _WIDE: LOBPCG alone finds λmin, in 67 products, where the
    # factor-free run would spend thousands
    m = laplacian(family_graph("hypercube", 9, weight_rule="quadratic_rule"))
    lam_min, lam_max = dense_extremes(m, "laplacian")
    rec = measure(m)
    assert lanczos_path() == "preconditioned"  # no _smallest_deflated call
    assert rec.kappa == pytest.approx(lam_max / lam_min, rel=1e-10)


def test_a_narrow_diagonal_within_the_budget_takes_no_lu(lanczos_path):
    # triangular 41 has diagonal spread 3; its factor-free run takes 321
    # products, past 250 but within the budget, so nothing is factored
    rec = measure(laplacian(family_graph("triangular", 41)))
    assert lanczos_path() == "factor-free"  # no splu call
    # eigvalsh of the order-2163 Laplacian
    assert rec.kappa == pytest.approx(1624.1746519469607, rel=1e-12)


def test_the_factored_route_keeps_its_envelope_bound(lanczos_path):
    # ladder 1000's envelope work is about 1·nnz; triangular 41's is
    # 254·nnz, just past _ENVELOPE_MATVECS = 250 though within the λmin
    # run's 500 products, so it takes the factor-free run
    ladder = laplacian(family_graph("ladder", 1000))
    assert spectral._factors_cheaply(ladder.csr, 1)
    assert not spectral._factors_cheaply(laplacian(family_graph("triangular", 41)).csr, 1)
    assert measure(ladder).eigensolver == "factored"
    assert lanczos_path() == "factored"


@pytest.mark.parametrize(
    "system, path",
    [
        (lambda: laplacian(family_graph("modified_mgg", 20)), "factor-free"),
        (lambda: laplacian(family_graph("barabasi_albert", 600, seed=3)), "preconditioned"),
        (lambda: incidence_matrix(family_graph("scale_free", 400)), "preconditioned"),
        # LOBPCG needs 546 products here, past the budget
        (lambda: laplacian(family_graph("barabasi_albert", 300, seed=3)), "grounded"),
        (lambda: laplacian(family_graph("random_lobster", 300)), "factored"),
        (lambda: incidence_matrix(family_graph("gn", 400, seed=19)), "factored"),
    ],
    ids=[
        "factor-free", "preconditioned", "preconditioned-incidence", "grounded", "factored",
        "factored-incidence",
    ],
)
def test_lanczos_is_deterministic(system, path):
    m = system()
    rec = measure(m, dense_limit=1)
    assert rec.eigensolver == path
    assert measure(m, dense_limit=1) == rec


def circular_ladder(n: int) -> Graph:
    """C_n × K_2: 3-regular, and bipartite for even n, so λmax = 6."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


@pytest.mark.parametrize(
    "graph",
    [lambda: ladder(400), lambda: circular_ladder(300), lambda: circular_ladder(301)],
    ids=["ladder-400", "circular-ladder-300", "circular-ladder-301"],
)
def test_factored_route_on_ladders_matches_eigvalsh(graph, lanczos_path):
    # a ladder's top eigenvalues cluster within O(1/n²) of each other; an
    # even circular ladder is regular bipartite, so λmax equals the row
    # bound 6 that the shift sits just above
    m = laplacian(graph())
    lam_min, lam_max = dense_extremes(m, "laplacian")
    rec = measure(m)
    assert lanczos_path() == "factored"
    assert rec.lambda_max == pytest.approx(lam_max, rel=1e-12)
    assert rec.lambda_min_nz == pytest.approx(lam_min, rel=1e-9)
    assert rec.kappa == pytest.approx(lam_max / lam_min, rel=1e-9)


def test_factored_route_on_a_regular_bipartite_top(monkeypatch, lanczos_path):
    # λmax = 6 = the row bound on C_2500 × K_2, and 2k on Q_k, which takes
    # the route only when forced
    rec = measure(laplacian(circular_ladder(2500)))
    assert lanczos_path() == "factored"
    assert rec.lambda_max == pytest.approx(6.0, rel=1e-12)
    monkeypatch.setattr(spectral, "_factors_cheaply", lambda a, components: True)
    for k in (7, 9):
        m = laplacian(hypercube(k))
        rec = measure(m, dense_limit=1)
        assert lanczos_path() == "factored"
        assert rec.lambda_max == pytest.approx(2.0 * k, rel=1e-12)
        assert rec.kappa == pytest.approx(dense_kappa(m), rel=1e-12)


def test_factored_route_spends_few_solves(monkeypatch):
    # ladder n=2500 (order 5000): Lanczos for λmax on L itself took 26,101
    # products; shift-invert and the pseudo-inverse take 42 solves between
    # them, and no product with L
    solves, real_splu, real_eigsh = [], spectral.spla.splu, spectral.spla.eigsh

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, x):
            solves.append(1)
            return self.lu.solve(x)

    def eigsh(a, *args, **kwargs):
        assert isinstance(a, spectral.spla.LinearOperator), "a Lanczos run on L itself"
        return real_eigsh(a, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", lambda *a, **k: Counted(real_splu(*a, **k)))
    monkeypatch.setattr(spectral.spla, "eigsh", eigsh)
    rec = measure(laplacian(ladder(2500)))
    assert rec.eigensolver == "factored"
    assert len(solves) <= 60


def test_lanczos_factor_keeps_fill_low(monkeypatch):
    # Under minimum degree on Aᵀ + A the LU of the grounded G (one row and
    # column deleted) holds about 22k entries on this order-600 Laplacian;
    # under scipy's default COLAMD, about 153k.  The preconditioned run,
    # held to a residual of 0, gives up and leaves λmin to that LU.
    factors, real_splu = [], spectral.spla.splu

    def splu(*args, **kwargs):
        factors.append(real_splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spectral.spla, "splu", splu)
    monkeypatch.setattr(spectral, "_PRECONDITIONED_TOL", 0.0)
    m = laplacian(family_graph("barabasi_albert", 600, seed=3))
    assert measure(m, dense_limit=1).eigensolver == "grounded"
    assert len(factors) == 1
    assert factors[0].L.nnz + factors[0].U.nnz < 0.1 * m.order**2


def test_directed_path_kappa_closed_form():
    # B B^T is the path Laplacian, eigenvalues 2 - 2cos(πk/n): κ = cot(π/2n).
    rec = measure(incidence_matrix(directed_path(1200)))
    assert rec.kappa == pytest.approx(1 / math.tan(math.pi / 2400), rel=1e-9)
    assert (rec.system_size, rec.sparsity) == (2399, 2)


@pytest.mark.parametrize(
    "family, n, path",
    [(family, n, path) for family in ("ladder", "circular_ladder")
     for n, path in ((5, "dense"), (100, "dense"), (1000, "factored"), (2500, "factored"))],
)
def test_catalog_ladders_match_their_closed_form_kappa(family, n, path):
    # The ladder is P_n □ K_2 and the circular ladder C_n □ K_2: a Laplacian
    # eigenvalue is a path's 2 - 2cos(πk/n) or a cycle's 2 - 2cos(2πk/n),
    # plus K_2's 0 or 2.  2500 is the catalog's largest n.
    if family == "ladder":
        lam_min = 2 - 2 * math.cos(math.pi / n)
        lam_max = 4 - 2 * math.cos(math.pi * (n - 1) / n)
    else:
        lam_min = 2 - 2 * math.cos(2 * math.pi / n)
        lam_max = 4 - 2 * math.cos(2 * math.pi * (n // 2) / n)  # 6 for even n
    rec = measure(system_matrix(generate(make_spec(family), n).graph))
    assert rec.eigensolver == path
    assert rec.lambda_min_nz == pytest.approx(lam_min, rel=1e-9)
    assert rec.lambda_max == pytest.approx(lam_max, rel=1e-9)
    assert rec.kappa == pytest.approx(lam_max / lam_min, rel=1e-9)
