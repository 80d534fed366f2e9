"""End-to-end acceptance gate, one test per shipped guarantee.

Each test checks its full claim at the stated tolerance and runtime budget,
then prints a single [PASS] line with the measured quantities so a log scan
(pytest -s) shows the whole gate at a glance.
"""

import math
import time

import networkx as nx
import numpy as np

from nlsp.families import generate, make_spec, repair_sources_sinks
from nlsp.fitting import fit_series
from nlsp.graphs import Graph, incidence_matrix, laplacian, pad_to_power_of_two
from nlsp.growth import GrowthClass
from nlsp.hhl import (
    HhlConfig,
    check_aqf,
    default_config,
    effective_resistance,
    hhl_solve,
    one_qubit_effective_resistance,
)
from nlsp.solvers import crossover_index, ratio_class
from nlsp.spectral import measure
from nlsp.superfamily import (
    cell_measurements,
    column_slice,
    iso_s_slice,
    main_diagonal_slice,
    row_slice,
    slice_verdict,
)
from nlsp.survey import SurveyConfig, run_survey
from nlsp.tables import reproduce_tables


def _ok(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion:02d}: {detail}")


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    report = reproduce_tables()
    elapsed = time.perf_counter() - t0
    assert report.total == 50
    assert report.matched == 50
    assert elapsed < 1.0
    _ok(1, f"advantage labels {report.matched}/{report.total} in {elapsed * 1e3:.0f} ms")


def test_criterion_02_crossover_at_n_24():
    # synthetic family N = 2^n with kappa = s = log N, prefactor-free ratio
    ratio = ratio_class(
        "HHL", GrowthClass.exponential(2), GrowthClass.poly(1), GrowthClass.poly(1)
    )
    first = crossover_index(ratio, range(3, 200))
    assert first == 24
    assert ratio.evaluate(23) < 1.0
    assert ratio.evaluate(24) >= 1.0
    _ok(2, f"ratio first >= 1 at n = {first}; R(23) = {ratio.evaluate(23):.3f}, "
           f"R(24) = {ratio.evaluate(24):.3f}")


def test_criterion_03_hypercube_measurements():
    t0 = time.perf_counter()
    spec = make_spec("hypercube", schedule=tuple(range(2, 11)))
    sizes, kappas = [], []
    for n in range(2, 11):
        inst = generate(spec, n)
        rec = measure(laplacian(inst.graph))
        assert abs(rec.kappa - n) < 1e-9, (n, rec.kappa)
        assert rec.sparsity == n + 1
        sizes.append(inst.n_vertices)
        kappas.append(rec.kappa)
    fit = fit_series(sizes, kappas, "kappa")
    assert fit.model == "polylog"
    assert fit.degree == 1
    result = run_survey(SurveyConfig(families=(spec,), solvers=("HHL",)))
    category = result.outcomes[0].verdicts["HHL"].category
    assert category == "best"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(3, f"kappa = n and s = n + 1 for n = 2..10; polylog degree 1; "
           f"verdict {category} in {elapsed:.1f} s")


def test_criterion_04_superfamily_identities():
    t0 = time.perf_counter()
    checked = 0
    for a in range(2, 7):
        for m in range(1, 6):
            cell = cell_measurements(a, m)  # raises on any identity violation
            assert abs(cell.kappa - m) < 1e-9
            assert cell.sparsity == a * m - m + 1
            checked += 1
    for m in range(2, 6):
        assert slice_verdict(row_slice(m, 6)).category == "better", m
    for a in range(2, 7):
        assert slice_verdict(column_slice(a, 5)).category == "best", a
    assert slice_verdict(main_diagonal_slice(6)).category == "best"
    assert slice_verdict(iso_s_slice(7)).category == "bad"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(4, f"{checked} cells at kappa = m, s = am - m + 1; rows better, "
           f"columns and diagonal best, iso-s(7) bad in {elapsed:.1f} s")


def test_criterion_05_incidence_dilation():
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
    b = incidence_matrix(cycle)
    dense = b.to_dense()
    assert np.all(dense.sum(axis=0) == 0.0)
    singulars = sorted(np.linalg.svd(dense, compute_uv=False))
    expected = [math.sqrt(2), math.sqrt(2), 2.0]
    assert singulars[0] < 1e-9
    assert max(abs(s - e) for s, e in zip(singulars[1:], expected)) < 1e-9
    rec = measure(b)
    assert abs(rec.kappa - math.sqrt(2)) < 1e-9
    _ok(5, f"nonzero singular values (sqrt2, sqrt2, 2), dilation kappa "
           f"{rec.kappa:.12f}, zero column sums")


def test_criterion_06_effective_resistance_convergence():
    t0 = time.perf_counter()
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # t = pi/4 puts the eigenvalues 2 and 4 on exact clock bins 1/4 and 1/2
    tuned = HhlConfig(n_r=4, t=math.pi / 4, C=0.25)
    exact = effective_resistance(c4, 0, 1, method="hhl", cfg=tuned)
    assert abs(exact - 0.75) < 1e-8
    errors = []
    for n_r in (4, 6, 8, 10):
        r = effective_resistance(c4, 0, 1, method="hhl", cfg=default_config(n_r, 4.0))
        errors.append(abs(r - 0.75) / 0.75)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(6, f"exact-bin r_eff error {abs(exact - 0.75):.1e}; generic-t errors "
           + " -> ".join(f"{e:.1e}" for e in errors) + f" in {elapsed:.1f} s")


def test_criterion_07_all_qubit_fixing():
    details = []
    for order, t in ((4, math.pi / 4), (6, math.pi / 8), (8, math.pi / 8)):
        g = Graph.from_edges(
            order, [(i, j) for i in range(order) for j in range(i + 1, order)]
        )
        lap = laplacian(g)
        cert = check_aqf(lap, 0, 1)
        assert cert.holds
        assert cert.eigenvalue == float(order)
        r_one = one_qubit_effective_resistance(float(order), default_config(4, 2.0 * (order - 1)))
        assert abs(r_one - 2.0 / order) < 1e-10
        if lap.order & (lap.order - 1):
            lap = pad_to_power_of_two(lap, fill=float(order))
        b = [0.0] * lap.order
        b[0], b[1] = 1.0, -1.0
        scaled = order * t / (2.0 * math.pi)  # exact clock bin by construction
        out = hhl_solve(lap, b, HhlConfig(n_r=4, t=t, C=min(0.5, scaled)))
        b_hat = np.array(b) / math.sqrt(2.0)
        overlap = abs(float(np.dot(out.solution_state, b_hat)))
        assert abs(overlap - 1.0) < 1e-10
        assert abs(out.clock_zero_weight - 1.0) < 1e-10
        details.append(f"K_{order}: r_eff {r_one:.6f}")
    _ok(7, "; ".join(details) + "; eigenvector solves leave the clock at zero")


def test_criterion_08_repair_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.05, 0.3))
        raw = nx.gnp_random_graph(n, p, seed=int(rng.integers(1 << 31)), directed=True)
        g = Graph.from_edges(n, list(raw.edges()), directed=True)
        pairs_before = {(u, v) for u, v, _ in g.edges}
        bidir_before = {(u, v) for u, v in pairs_before if (v, u) in pairs_before}
        fixed = repair_sources_sinks(g, seed=trial)
        indeg = [0] * n
        outdeg = [0] * n
        for u, v, _ in fixed.edges:
            outdeg[u] += 1
            indeg[v] += 1
        assert all(d > 0 for d in indeg), trial
        assert all(d > 0 for d in outdeg), trial
        assert fixed.n_vertices == n
        pairs_after = {(u, v) for u, v, _ in fixed.edges}
        bidir_after = {(u, v) for u, v in pairs_after if (v, u) in pairs_after}
        assert bidir_after <= bidir_before, trial
        again = repair_sources_sinks(fixed, seed=trial + 999)
        assert again.edges == fixed.edges, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(8, f"200 seeded digraphs repaired: no sources or sinks, no new "
           f"bi-directed pairs, idempotent in {elapsed:.2f} s")


def test_criterion_09_edge_weight_sensitivity():
    t0 = time.perf_counter()
    families = []
    for rule in ("log_rule", "linear_rule", "quadratic_rule"):
        families.append(
            make_spec("hypercube", schedule=tuple(range(2, 12)), weight_rule=rule)
        )
        families.append(
            make_spec("modified_mgg", schedule=tuple(range(5, 46, 5)), weight_rule=rule)
        )
    result = run_survey(SurveyConfig(families=tuple(families), solvers=("HHL",)))
    category = {
        out.key: out.verdicts["HHL"].category for out in result.outcomes
    }
    assert category["hypercube:log_rule"] == "best"
    assert category["hypercube:linear_rule"] != "best"
    assert category["hypercube:quadratic_rule"] != "best"
    assert category["modified_mgg:log_rule"] == "better"
    assert category["modified_mgg:linear_rule"] == "better"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(9, f"hypercube log {category['hypercube:log_rule']}, linear "
           f"{category['hypercube:linear_rule']}, quadratic "
           f"{category['hypercube:quadratic_rule']}; modified MGG log/linear "
           f"better in {elapsed:.1f} s")


def test_criterion_10_fit_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    xs_geo = [4.0 * 2**k for k in range(7)]
    xs_lin = [3.0 + 2.0 * k for k in range(7)]
    hits = {}
    for klass in ("constant", "polylog", "polynomial", "exponential"):
        hit = 0
        for _ in range(50):
            if klass == "constant":
                xs = xs_geo
                ys = [rng.uniform(1.5, 60.0)] * 7
            elif klass == "polylog":
                d = int(rng.integers(1, 4))
                a0, ad = rng.uniform(1.0, 3.0), rng.uniform(0.5, 3.0)
                xs = xs_geo
                ys = [a0 + ad * math.log(x) ** d for x in xs]
            elif klass == "polynomial":
                d = int(rng.integers(1, 4))
                a0, ad = rng.uniform(1.0, 3.0), rng.uniform(0.5, 3.0)
                xs = xs_geo
                ys = [a0 + ad * x**d for x in xs]
            else:
                a1, a2 = rng.uniform(0.3, 0.9), rng.uniform(0.5, 2.0)
                xs = xs_lin
                ys = [1.0 + a2 * math.exp(a1 * x) for x in xs]
            noisy = [y * (1.0 + 0.01 * rng.standard_normal()) for y in ys]
            fit = fit_series(xs, noisy, "kappa")
            if fit.model == klass:
                hit += 1
            grid = np.linspace(xs[0], xs[-1], 257)
            assert all(fit.predict(x) >= 1.0 - 1e-9 for x in grid)
        assert hit >= 48, (klass, hit)
        hits[klass] = hit
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(10, "recovery " + ", ".join(f"{k} {v}/50" for k, v in hits.items())
            + f"; all fits stay >= 1 in {elapsed:.1f} s")
