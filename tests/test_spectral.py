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
)
from nlsp.spectral import extreme_eigs, measure, sparsity, zero_tolerance


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
    return float(eigs.max() / eigs[eigs > zero_tolerance(eigs)].min())


def test_full_spectrum_k4():
    eigs = np.linalg.eigvalsh(laplacian(complete(4)).to_dense())
    assert eigs == pytest.approx([0, 4, 4, 4], abs=1e-9)


def test_full_spectrum_hypercube3():
    # Eigenvalues 2k with multiplicity C(3, k).
    eigs = np.linalg.eigvalsh(laplacian(hypercube(3)).to_dense())
    assert eigs == pytest.approx([0, 2, 2, 2, 4, 4, 4, 6], abs=1e-9)


def test_extreme_eigs_examples():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert extreme_eigs(laplacian(c4), kernel=1) == pytest.approx((2.0, 4.0), abs=1e-9)
    assert measure(laplacian(c4), "laplacian").kappa == pytest.approx(2.0, abs=1e-9)
    # the dilation is indefinite: its |λ| extremes are those measure reads off B·Bᵀ
    h = hermitian_dilation(incidence_matrix(directed_c4()))
    rec = measure(incidence_matrix(directed_c4()), "incidence")
    assert (rec.lambda_min_nz, rec.lambda_max) == pytest.approx((math.sqrt(2), 2.0), abs=1e-9)
    assert dense_kappa(h) == pytest.approx(rec.kappa, abs=1e-9)
    k2 = laplacian(Graph.from_edges(2, [(0, 1)]))
    assert extreme_eigs(k2, kernel=1) == pytest.approx((2.0, 2.0))
    assert measure(k2, "laplacian").kappa == pytest.approx(1.0)


def test_measure_records_the_kernel_and_the_path():
    for limit, path in ((None, "dense"), (1, "factor-free")):
        rec = measure(laplacian(two_ladders()), "laplacian", dense_limit=limit)
        assert (rec.kernel, rec.eigensolver) == (3, path)
        rec = measure(incidence_matrix(path_cycle_point()), "incidence", dense_limit=limit)
        assert (rec.kernel, rec.eigensolver) == (3, path)


def test_extreme_eigs_zero_matrix():
    zero = SymmetricMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="effectively zero"):
        extreme_eigs(zero, kernel=3)


def test_extreme_eigs_requires_a_kernel():
    with pytest.raises(TypeError, match="kernel"):
        extreme_eigs(laplacian(ladder(4)))


def test_lanczos_path_checks_the_kernel_against_the_components():
    # a sparse Laplacian of order 400 takes Lanczos, whose pseudo-inverse
    # assumes the kernel is spanned by the component indicators
    lap = laplacian(ladder(200))
    with pytest.raises(ValueError, match="component count 1"):
        extreme_eigs(lap, kernel=2)
    assert extreme_eigs(lap, kernel=1) == pytest.approx(dense_extremes(lap, "laplacian"), rel=1e-9)


def test_condition_number_families():
    def kappa(g: Graph) -> float:
        return measure(laplacian(g), "laplacian").kappa

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
        (laplacian(complete(5)), "laplacian"),
        (laplacian(hypercube(3)), "laplacian"),
        (laplacian(ladder(7)), "laplacian"),
        (incidence_matrix(directed_c4()), "incidence"),
        (
            laplacian(Graph.from_edges(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 3.0)])),
            "laplacian",
        ),
    ]
    for m, kind in systems:
        scaled = (SymmetricMatrix if kind == "laplacian" else RectMatrix)(10.0 * m.csr)
        kappa = measure(m, kind).kappa
        assert measure(scaled, kind).kappa == pytest.approx(kappa, rel=1e-12)


def test_connected_laplacians_single_zero_mode():
    for g in [complete(12), hypercube(5), ladder(30)]:
        eigs = np.abs(np.linalg.eigvalsh(laplacian(g).to_dense()))
        assert int((eigs <= zero_tolerance(eigs)).sum()) == 1


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
    rec = measure(laplacian(hypercube(3)), "laplacian")
    assert rec.system_size == 8
    assert rec.kappa == pytest.approx(3.0, rel=1e-9)
    assert rec.sparsity == 4
    assert rec.matrix_kind == "laplacian"
    assert not hasattr(rec, "cutoff")
    assert rec.kappa == pytest.approx(rec.lambda_max / rec.lambda_min_nz)


def test_iterative_path_matches_dense():
    g = ladder(40)
    dense = measure(laplacian(g), "laplacian")
    it = measure(laplacian(g), "laplacian", dense_limit=50)
    assert it.lambda_max == pytest.approx(dense.lambda_max, rel=1e-7)
    assert it.lambda_min_nz == pytest.approx(dense.lambda_min_nz, rel=1e-7)
    it = measure(incidence_matrix(directed_c4()), "incidence", dense_limit=3)
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
    it = measure(m, "laplacian")
    assert it.lambda_max == pytest.approx(lam_max, rel=1e-6)
    assert it.lambda_min_nz == pytest.approx(lam_min, rel=1e-6)


def family_graph(family: str, n: int, **kw) -> Graph:
    return generate(make_spec(family, schedule=(n,), **kw), n).graph


def generalized_hypercube(a: int, m: int) -> Graph:
    return family_graph("generalized_hypercube", m, params={"a": a})


@pytest.fixture
def lanczos_path(monkeypatch):
    """The λmin path the last measure took: "factor-free", "grounded" (the
    pseudo-inverse through one LU, after the factor-free run gave up) or
    "lambda-max" (λmax is the only nonzero eigenvalue)."""
    calls = {"deflated": 0, "splu": 0}
    real_deflated, real_splu = spectral._smallest_deflated, spectral.spla.splu

    def deflated(*args):
        calls["deflated"] += 1
        return real_deflated(*args)

    def splu(*args, **kwargs):
        calls["splu"] += 1
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spectral, "_smallest_deflated", deflated)
    monkeypatch.setattr(spectral.spla, "splu", splu)

    def path() -> str:
        taken = (calls["deflated"], calls["splu"])
        calls.update(deflated=0, splu=0)
        return {(1, 0): "factor-free", (1, 1): "grounded", (0, 0): "lambda-max"}[taken]

    return path


@pytest.mark.parametrize(
    "system, kind, rtol, path",
    [
        (lambda: laplacian(two_ladders()), "laplacian", 1e-12, "factor-free"),
        (lambda: incidence_matrix(path_cycle_point()), "incidence", 1e-12, "factor-free"),
        # κ(B·Bᵀ) ≈ 5.8e5: Lanczos on the deflated G would need thousands of
        # products
        (lambda: incidence_matrix(directed_path(1200)), "incidence", 1e-7, "grounded"),
        # kernel dimension 19 = order - 1: λmax is the only nonzero eigenvalue
        (lambda: laplacian(Graph.from_edges(20, [(0, 1)])), "laplacian", 1e-7, "lambda-max"),
        # a scale-free graph and an expander: a column ordering that ignores
        # the symmetric pattern fills the factor of the grounded G
        (
            lambda: laplacian(family_graph("barabasi_albert", 600, seed=3)),
            "laplacian", 1e-10, "grounded",
        ),
        (lambda: laplacian(family_graph("modified_mgg", 20)), "laplacian", 1e-12, "factor-free"),
        (lambda: incidence_matrix(family_graph("gn", 400, seed=19)), "incidence", 1e-10, "grounded"),
        # λ₂ far below λmax: 7.55e-7 on order 2048, and 1.0e-5 on order 2091
        (
            lambda: laplacian(family_graph("hypercube", 11, weight_rule="quadratic_rule")),
            "laplacian", 1e-8, "grounded",
        ),
        (lambda: laplacian(family_graph("random_lobster", 300)), "laplacian", 1e-8, "grounded"),
        # too large for the dense reference, so the closed forms stand in:
        # Q_13 has eigenvalues 2k, G_3^8 (K_3 to the 8th Cartesian power) 3k
        (lambda: laplacian(hypercube(13)), (2.0, 26.0), 1e-12, "factor-free"),
        (lambda: laplacian(generalized_hypercube(3, 8)), (3.0, 24.0), 1e-12, "factor-free"),
    ],
    ids=[
        "two-ladders", "path-cycle-point", "directed-path-1200", "one-edge-of-20",
        "barabasi-albert-600", "modified-mgg-20", "gn-400", "hypercube-quadratic-11",
        "random-lobster-300", "hypercube-13", "generalized-hypercube-3-8",
    ],
)
def test_dense_and_lanczos_agree(system, kind, rtol, path, lanczos_path):
    m = system()
    if isinstance(kind, tuple):
        (lam_min, lam_max), kind = kind, "laplacian"
    else:
        lam_min, lam_max = dense_extremes(m, kind)
    routed = measure(m, kind)
    lanczos_path()
    it = measure(m, kind, dense_limit=1)
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


def test_factor_free_budget_counts_products(monkeypatch, lanczos_path):
    # modified_mgg n=20 takes 61 products; a budget one short of them makes
    # the run give up, and the grounded pseudo-inverse finds the same λmin
    m = laplacian(family_graph("modified_mgg", 20))
    free = measure(m, "laplacian", dense_limit=1)
    assert lanczos_path() == "factor-free"
    monkeypatch.setattr(spectral, "_FACTOR_FREE_MATVECS", 60)
    grounded = measure(m, "laplacian", dense_limit=1)
    assert lanczos_path() == "grounded"
    assert grounded.kappa == pytest.approx(free.kappa, rel=1e-12)
    assert (free.eigensolver, grounded.eigensolver) == ("factor-free", "grounded")
    monkeypatch.setattr(spectral, "_FACTOR_FREE_MATVECS", 61)
    assert measure(m, "laplacian", dense_limit=1) == free
    assert lanczos_path() == "factor-free"


@pytest.mark.parametrize(
    "system, kind",
    [
        (lambda: laplacian(family_graph("modified_mgg", 20)), "laplacian"),
        (lambda: laplacian(family_graph("random_lobster", 300)), "laplacian"),
        (lambda: incidence_matrix(family_graph("gn", 400, seed=19)), "incidence"),
    ],
    ids=["factor-free", "grounded", "grounded-incidence"],
)
def test_lanczos_is_deterministic(system, kind):
    m = system()
    assert measure(m, kind, dense_limit=1) == measure(m, kind, dense_limit=1)


def test_lanczos_factor_keeps_fill_low(monkeypatch):
    # Under minimum degree on Aᵀ + A the LU of the grounded G (one row and
    # column deleted) holds about 22k entries on this order-600 Laplacian;
    # under scipy's default COLAMD, about 153k.
    factors, real_splu = [], spectral.spla.splu

    def splu(*args, **kwargs):
        factors.append(real_splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spectral.spla, "splu", splu)
    m = laplacian(family_graph("barabasi_albert", 600, seed=3))
    measure(m, "laplacian", dense_limit=1)
    assert len(factors) == 1
    assert factors[0].L.nnz + factors[0].U.nnz < 0.1 * m.order**2


def test_directed_path_kappa_closed_form():
    # B B^T is the path Laplacian, eigenvalues 2 - 2cos(πk/n): κ = cot(π/2n).
    rec = measure(incidence_matrix(directed_path(1200)), "incidence")
    assert rec.kappa == pytest.approx(1 / math.tan(math.pi / 2400), rel=1e-9)
    assert (rec.system_size, rec.sparsity) == (2399, 2)


def test_measure_rejects_a_dilation_as_incidence():
    b = incidence_matrix(directed_c4())
    with pytest.raises(ValueError, match="measured from B"):
        measure(hermitian_dilation(b), "incidence")
    with pytest.raises(ValueError, match="measured from L"):
        measure(b, "laplacian")
    with pytest.raises(ValueError, match="unknown matrix kind"):
        measure(b, "dilation")
