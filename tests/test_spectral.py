import math
from itertools import combinations

import numpy as np
import pytest

from nlsp.graphs import (
    Graph,
    RectMatrix,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    pad_to_power_of_two,
)
from nlsp.spectral import (
    AUDIT_CUTOFF,
    DEFAULT_CUTOFF,
    condition_number,
    cutoff_sensitivity,
    extreme_eigs,
    full_spectrum,
    measure,
    sparsity,
)


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


def test_full_spectrum_k4():
    eigs = full_spectrum(laplacian(complete(4)))
    assert eigs == pytest.approx([0, 4, 4, 4], abs=1e-9)


def test_full_spectrum_hypercube3():
    # Eigenvalues 2k with multiplicity C(3, k).
    eigs = full_spectrum(laplacian(hypercube(3)))
    assert eigs == pytest.approx([0, 2, 2, 2, 4, 4, 4, 6], abs=1e-9)


def test_full_spectrum_trivial_and_residual():
    assert full_spectrum(SymmetricMatrix([[3.5]])) == pytest.approx([3.5])
    dense = laplacian(ladder(6)).to_dense()
    vals, vecs = np.linalg.eigh(dense)
    norm = np.linalg.norm(dense, 2)
    for k in range(len(vals)):
        assert np.linalg.norm(dense @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-8 * max(norm, 1.0)


def test_full_spectrum_refuses_large(monkeypatch):
    monkeypatch.setenv("NLSP_DENSE_LIMIT", "5")
    with pytest.raises(ValueError, match="extreme_eigs"):
        full_spectrum(laplacian(ladder(4)))


def test_extreme_eigs_examples():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert extreme_eigs(laplacian(c4)) == pytest.approx((2.0, 4.0), abs=1e-9)
    h = hermitian_dilation(incidence_matrix(directed_c4()))
    lam_min, lam_max = extreme_eigs(h)
    assert (lam_min, lam_max) == pytest.approx((math.sqrt(2), 2.0), abs=1e-9)
    assert condition_number(h) == pytest.approx(math.sqrt(2), abs=1e-9)
    k2 = laplacian(Graph.from_edges(2, [(0, 1)]))
    assert extreme_eigs(k2) == pytest.approx((2.0, 2.0))
    assert condition_number(k2) == pytest.approx(1.0)


def test_extreme_eigs_zero_matrix():
    with pytest.raises(ValueError, match="effectively zero"):
        extreme_eigs(SymmetricMatrix(np.zeros((3, 3))), DEFAULT_CUTOFF)


def test_condition_number_families():
    for n in (4, 6, 9):
        assert condition_number(laplacian(complete(n))) == pytest.approx(1.0, abs=1e-9)
    for n in (2, 3, 4, 5, 6):
        assert condition_number(laplacian(hypercube(n))) == pytest.approx(n, rel=1e-9)
    # Ladder kappa grows like n^2: doubling n roughly quadruples kappa.
    k20 = condition_number(laplacian(ladder(20)))
    k40 = condition_number(laplacian(ladder(40)))
    assert 3.0 < k40 / k20 < 5.0


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


def test_cutoff_sensitivity():
    cs = cutoff_sensitivity(laplacian(complete(8)))
    assert cs.delta == 0.0
    assert not cs.flagged
    assert cs.min_eig_at_1e6 == pytest.approx(8.0, abs=1e-9)
    assert cs.system_size == 8


def test_kappa_invariant_under_rescaling():
    mats = [
        laplacian(complete(5)),
        laplacian(hypercube(3)),
        laplacian(ladder(7)),
        hermitian_dilation(incidence_matrix(directed_c4())),
        laplacian(Graph.from_edges(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 3.0)])),
    ]
    for m in mats:
        lo, hi = extreme_eigs(m, DEFAULT_CUTOFF)
        scaled = SymmetricMatrix(10.0 * m.csr)
        lo10, hi10 = extreme_eigs(scaled, DEFAULT_CUTOFF * 10.0)
        assert hi10 / lo10 == pytest.approx(hi / lo, rel=1e-12)


def test_connected_laplacians_single_zero_mode():
    for g in [complete(12), hypercube(5), ladder(30)]:
        eigs = np.abs(full_spectrum(laplacian(g)))
        assert int((eigs < DEFAULT_CUTOFF).sum()) == 1


def test_dilation_kappa_vs_svd_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rows = int(rng.integers(2, 33))
        cols = int(rng.integers(2, 33))
        dense = rng.normal(size=(rows, cols))
        b = RectMatrix(dense)
        kappa = condition_number(hermitian_dilation(b), 1e-9)
        sigma = np.linalg.svd(dense, compute_uv=False)
        nz = sigma[sigma > 1e-9]
        assert kappa == pytest.approx(nz.max() / nz.min(), rel=1e-8)


def test_measure_record_fields():
    rec = measure(laplacian(hypercube(3)), "laplacian")
    assert rec.system_size == 8
    assert rec.kappa == pytest.approx(3.0, rel=1e-9)
    assert rec.sparsity == 4
    assert rec.matrix_kind == "laplacian"
    assert rec.cutoff == DEFAULT_CUTOFF
    assert rec.kappa == pytest.approx(rec.lambda_max / rec.lambda_min_nz)


def test_iterative_path_matches_dense(monkeypatch):
    g = ladder(40)
    dense_lo, dense_hi = extreme_eigs(laplacian(g))
    monkeypatch.setenv("NLSP_DENSE_LIMIT", "50")
    iter_lo, iter_hi = extreme_eigs(laplacian(g))
    assert iter_hi == pytest.approx(dense_hi, rel=1e-7)
    assert iter_lo == pytest.approx(dense_lo, rel=1e-7)
    h = hermitian_dilation(incidence_matrix(directed_c4()))
    monkeypatch.setenv("NLSP_DENSE_LIMIT", "3")
    it = extreme_eigs(h)
    assert it == pytest.approx((math.sqrt(2), 2.0), rel=1e-7)


def test_iterative_cross_validation_at_overlap_scale(monkeypatch):
    # Dense vs Lanczos on an instance in the 2000-3000 overlap window.
    g = ladder(1010)
    m = laplacian(g)
    dense_lo, dense_hi = extreme_eigs(m)
    monkeypatch.setenv("NLSP_DENSE_LIMIT", "100")
    iter_lo, iter_hi = extreme_eigs(m)
    assert iter_hi == pytest.approx(dense_hi, rel=1e-6)
    assert iter_lo == pytest.approx(dense_lo, rel=1e-6)
