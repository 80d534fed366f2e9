"""HHL simulator: exactness, convergence, fixing shortcuts, applications."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsp.families import generate, make_spec
from nlsp.graphs import (
    Graph,
    SymmetricMatrix,
    hermitian_dilation,
    incidence_matrix,
    laplacian,
    pad_to_power_of_two,
)
from nlsp.hhl import (
    HhlConfig,
    HhlOutcome,
    _clock_histogram,
    _clock_weights,
    _dilation_eigenpairs,
    _eigenpairs,
    _graph_solve,
    _ritz_pairs,
    abs_row_bound,
    augment_for_aqf,
    check_aqf,
    default_config,
    detect_fixed_clock_qubits,
    effective_resistance,
    extract_overlap,
    graph_system,
    hhl_solve,
    one_qubit_effective_resistance,
    one_qubit_hhl,
    traffic_flow,
)
from nlsp.spectral import zero_tolerance


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def directed_cycle4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="n_r"):
            HhlConfig(n_r=0, t=1.0, C=0.1)
        with pytest.raises(ValueError, match="t must be positive"):
            HhlConfig(n_r=4, t=0.0, C=0.1)
        with pytest.raises(ValueError, match="C must be positive"):
            HhlConfig(n_r=4, t=1.0, C=0.0)
        with pytest.raises(ValueError, match="shots"):
            HhlConfig(n_r=4, t=1.0, C=0.1, shots=0)
        for seed in ("3", 3.0, True, -1):
            with pytest.raises(ValueError, match="seed must be a non-negative int"):
                HhlConfig(n_r=4, t=1.0, C=0.1, shots=100, seed=seed)
        assert HhlConfig(n_r=4, t=1.0, C=0.1, seed=np.int64(3)).seed == 3

    def test_default_psd_places_bound_on_top_bin(self):
        cfg = default_config(4, 8.0)
        assert cfg.n_bins == 16
        assert cfg.t == pytest.approx(2.0 * math.pi * (15.0 / 16.0) / 8.0, rel=1e-15)
        # bound eigenvalue scales to the top bin value 15/16
        assert 8.0 * cfg.t / (2.0 * math.pi) == pytest.approx(15.0 / 16.0, rel=1e-15)
        assert cfg.C == pytest.approx(0.9 / 16.0)

    def test_default_signed_is_quarter_window(self):
        psd = default_config(6, 2.0)
        sgn = default_config(6, 2.0, signed=True)
        assert sgn.t == pytest.approx(psd.t / 4.0, rel=1e-15)
        assert 2.0 * sgn.t / (2.0 * math.pi) < 0.25

    def test_default_with_lambda_min_sets_rotation_constant(self):
        cfg = default_config(5, 10.0, 2.0)
        assert cfg.C == pytest.approx(0.9 * 2.0 * cfg.t / (2.0 * math.pi), rel=1e-15)
        with pytest.raises(ValueError, match="lambda_min"):
            default_config(5, 10.0, 20.0)
        with pytest.raises(ValueError, match="lambda_max"):
            default_config(5, -1.0)


class TestSolveExact:
    def test_identity_inversion(self):
        ident = SymmetricMatrix(np.diag([1.0, 1.0]))
        cfg = HhlConfig(n_r=4, t=math.pi, C=0.2)  # lambda~ = 1/2, representable
        out = hhl_solve(ident, [1.0, 0.0], cfg)
        assert out.p_success == pytest.approx((0.2 / 0.5) ** 2, abs=1e-12)
        assert abs(out.solution_state[0]) == pytest.approx(1.0, abs=1e-12)
        assert out.clock_zero_weight == pytest.approx(1.0, abs=1e-12)
        assert out.solution * np.sign(out.solution_state[0]) == pytest.approx(
            [1.0, 0.0], abs=1e-8
        )

    def test_p_success_closed_form_on_representable_spectrum(self):
        diag = SymmetricMatrix(np.diag([1.0, 2.0, 4.0, 7.0]))
        b = np.array([1.0, 2.0, -1.0, 0.5])
        cfg = HhlConfig(n_r=3, t=2.0 * math.pi / 8.0, C=1.0 / 8.0)
        out = hhl_solve(diag, b, cfg)
        lam_t = np.array([1.0, 2.0, 4.0, 7.0]) / 8.0
        beta = b / np.linalg.norm(b)
        ideal = float(cfg.C**2 * np.sum((beta / lam_t) ** 2))
        assert out.p_success == pytest.approx(ideal, abs=1e-10)
        assert out.clock_zero_weight == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_matches_pinv_on_k4(self):
        lap = laplacian(complete_graph(4))
        b = np.array([1.0, -1.0, 0.0, 0.0])
        cfg = HhlConfig(n_r=5, t=math.pi / 4.0, C=0.3)  # lambda=4 -> 1/2
        out = hhl_solve(lap, b, cfg)
        oracle = np.linalg.pinv(lap.to_dense()) @ b
        assert np.abs(out.solution - oracle).max() < 1e-8

    def test_reconstruction_matches_pinv_on_hypercube2(self):
        g = generate(make_spec("hypercube", schedule=(2,)), 2).graph
        lap = laplacian(g)
        b = np.zeros(4)
        b[0], b[1] = 1.0, -1.0
        cfg = HhlConfig(n_r=6, t=math.pi / 4.0, C=0.2)  # lambda~ in {1/4, 1/2}
        out = hhl_solve(lap, b, cfg)
        oracle = np.linalg.pinv(lap.to_dense()) @ b
        assert np.abs(out.solution - oracle).max() < 1e-8

    def test_eigenvector_input_returns_b(self):
        # Full circuit on an exactly representable eigenvector: the state
        # register carries b and the clock register is back at all zeros.
        lap = pad_to_power_of_two(laplacian(complete_graph(6)), 6.0)
        b = np.zeros(8)
        b[2], b[5] = 1.0, -1.0
        cfg = HhlConfig(n_r=4, t=math.pi / 8.0, C=0.3)  # lambda=6 -> 6/16
        out = hhl_solve(lap, b, cfg)
        overlap = abs(float((b / math.sqrt(2.0)) @ out.solution_state))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert out.clock_zero_weight == pytest.approx(1.0, abs=1e-10)


class TestSolveValidation:
    def test_psd_bound_violation(self):
        lap = laplacian(cycle4())
        cfg = HhlConfig(n_r=4, t=2.0 * math.pi / 3.0, C=0.01)  # lambda~ = 4/3
        with pytest.raises(ValueError, match="bound violated"):
            hhl_solve(lap, [1.0, -1.0, 0.0, 0.0], cfg)

    def test_signed_bound_needs_signed_config(self):
        dil = hermitian_dilation(incidence_matrix(directed_cycle4()))
        cfg = default_config(6, 2.0)  # PSD placement, top bin ~1 > 1/2
        with pytest.raises(ValueError, match="negative eigenvalues"):
            hhl_solve(dil, [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], cfg)

    def test_c_out_of_range(self):
        lap = laplacian(cycle4())
        cfg = HhlConfig(n_r=6, t=math.pi / 4.0, C=0.3)  # min lambda~ = 1/4
        with pytest.raises(ValueError, match="C out of range"):
            hhl_solve(lap, [1.0, -1.0, 0.0, 0.0], cfg)

    def test_null_space_b_rejected(self):
        lap = laplacian(Graph.from_edges(2, [(0, 1)]))
        cfg = HhlConfig(n_r=4, t=math.pi / 2.0, C=0.1)
        with pytest.raises(ValueError, match="null space"):
            hhl_solve(lap, [1.0, 1.0], cfg)

    def test_order_must_be_power_of_two(self):
        lap = laplacian(complete_graph(3))
        with pytest.raises(ValueError, match="power of two"):
            hhl_solve(lap, [1.0, -1.0, 0.0], HhlConfig(n_r=4, t=0.5, C=0.01))

    def test_qubit_budget_refusal(self):
        lap = laplacian(cycle4())
        cfg = HhlConfig(n_r=20, t=math.pi / 4.0, C=0.2)  # 2 + 20 + 1 qubits
        with pytest.raises(ValueError, match="refusing statevector"):
            hhl_solve(lap, [1.0, -1.0, 0.0, 0.0], cfg)

    def test_b_shape_and_norm_checks(self):
        lap = laplacian(cycle4())
        cfg = HhlConfig(n_r=4, t=math.pi / 4.0, C=0.2)
        with pytest.raises(ValueError, match="length"):
            hhl_solve(lap, [1.0, -1.0], cfg)
        with pytest.raises(ValueError, match="nonzero"):
            hhl_solve(lap, [0.0, 0.0, 0.0, 0.0], cfg)
        with pytest.raises(ValueError, match="finite"):
            hhl_solve(lap, [1.0, math.nan, 0.0, -1.0], cfg)


class TestConvergence:
    def test_c4_error_non_increasing_and_small(self):
        # Non-representable fixture: lambda = 2 sits on a half-integer bin
        # for every register size under the default evolution time.
        g = cycle4()
        errors = []
        for n_r in (4, 6, 8, 10):
            r = effective_resistance(g, 0, 1, "hhl", default_config(n_r, 4.0))
            errors.append(abs(r - 0.75) / 0.75)
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.01


class TestOverlap:
    def setup_method(self):
        lap = laplacian(complete_graph(4))
        self.b = np.array([1.0, -1.0, 0.0, 0.0])
        self.cfg = HhlConfig(n_r=5, t=math.pi / 4.0, C=0.3)
        self.out = hhl_solve(lap, self.b, self.cfg)

    def test_self_overlap_is_scaled_amplitude(self):
        got = extract_overlap(self.out, self.out.solution_state)
        assert got == pytest.approx(
            self.out.scale * math.sqrt(self.out.p_success), abs=1e-12
        )

    def test_orthogonal_probe_gives_zero(self):
        probe = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        assert abs(float(probe @ self.out.solution_state)) < 1e-12
        assert extract_overlap(self.out, probe) == pytest.approx(0.0, abs=1e-12)

    def test_probe_validation(self):
        with pytest.raises(ValueError, match="normalized"):
            extract_overlap(self.out, self.b)
        with pytest.raises(ValueError, match="length"):
            extract_overlap(self.out, np.array([1.0, 0.0]))

    def test_c4_probe_recovers_scaled_resistance(self):
        lap = laplacian(cycle4())
        b = np.array([1.0, -1.0, 0.0, 0.0])
        out = hhl_solve(lap, b, HhlConfig(n_r=6, t=math.pi / 4.0, C=0.2))
        got = extract_overlap(out, b / math.sqrt(2.0))
        oracle = float(b @ np.linalg.pinv(lap.to_dense()) @ b)
        assert got == pytest.approx(oracle / 2.0, abs=1e-8)


class TestShotMode:
    def test_deterministic_and_consistent(self):
        lap = laplacian(complete_graph(4))
        b = [1.0, -1.0, 0.0, 0.0]
        cfg = HhlConfig(n_r=5, t=math.pi / 4.0, C=0.3, shots=4096, seed=7)
        first = hhl_solve(lap, b, cfg)
        second = hhl_solve(lap, b, cfg)
        assert first.p_success == second.p_success
        exact = hhl_solve(lap, b, HhlConfig(n_r=5, t=math.pi / 4.0, C=0.3))
        # 5 sigma of a binomial estimate at 4096 shots
        tol = 5.0 * math.sqrt(exact.p_success * (1.0 - exact.p_success) / 4096.0)
        assert abs(first.p_success - exact.p_success) < tol
        ov1 = extract_overlap(first, first.solution_state)
        ov2 = extract_overlap(second, second.solution_state)
        assert ov1 == ov2
        assert ov1 == pytest.approx(
            exact.scale * math.sqrt(exact.p_success), rel=0.05
        )

    def test_overlap_that_rounds_above_one(self):
        v = np.ones(3) / np.linalg.norm(np.ones(3))
        assert v @ v > 1.0
        out = HhlOutcome(0.5, v, 1.0, 1.0, 1.0, shots=100, seed=1)
        assert extract_overlap(out, v) == pytest.approx(math.sqrt(0.5), abs=1e-12)


    def test_success_count(self):
        lap = laplacian(complete_graph(4))
        b = [1.0, -1.0, 0.0, 0.0]
        out = hhl_solve(lap, b, HhlConfig(n_r=5, t=math.pi / 4.0, C=0.3, shots=4096, seed=7))
        assert out.successes == round(out.p_success * 4096) > 0
        assert out.p_success == out.successes / 4096
        assert hhl_solve(lap, b, HhlConfig(n_r=5, t=math.pi / 4.0, C=0.3)).successes is None

    def test_no_success_gives_no_estimate(self):
        v = np.ones(4) / 2.0
        out = HhlOutcome(0.0, v, 1.0, 1.0, 1.0, shots=1000, seed=1)
        assert out.successes == 0
        with pytest.raises(ValueError, match="none of 1000 shots"):
            extract_overlap(out, v)
        with pytest.raises(ValueError, match="none of 1000 shots"):
            out.solution
        # exact mode: p_success 0 is a value, not an empty sample
        assert not HhlOutcome(0.0, v, 1.0, 1.0, 1.0).solution.any()

class TestFixedClockQubits:
    def test_eigenvector_fixes_every_qubit(self):
        lap = laplacian(complete_graph(4))
        b = [1.0, -1.0, 0.0, 0.0]
        cfg = HhlConfig(n_r=4, t=math.pi / 4.0, C=0.3)  # lambda~ = 1/2 -> c = 1000
        assert detect_fixed_clock_qubits(lap, b, cfg) == {(0, 1), (1, 0), (2, 0), (3, 0)}

    def test_shared_high_bits_fixed(self):
        diag = SymmetricMatrix(np.diag([5.0, 4.0]))
        cfg = HhlConfig(n_r=3, t=2.0 * math.pi / 8.0, C=0.4)  # bins 101 and 100
        got = detect_fixed_clock_qubits(diag, [1.0, 1.0], cfg)
        assert got == {(0, 1), (1, 0)}

    def test_even_mixture_fixes_nothing(self):
        diag = SymmetricMatrix(np.diag([1.0, 6.0]))
        cfg = HhlConfig(n_r=3, t=2.0 * math.pi / 8.0, C=0.1)  # bins 001 and 110
        assert detect_fixed_clock_qubits(diag, [1.0, 1.0], cfg) == set()

    def test_threshold_validation(self):
        diag = SymmetricMatrix(np.diag([1.0, 2.0]))
        cfg = HhlConfig(n_r=3, t=2.0 * math.pi / 8.0, C=0.1)
        with pytest.raises(ValueError, match="p_th"):
            detect_fixed_clock_qubits(diag, [1.0, 0.0], cfg, p_th=0.5)
        with pytest.raises(ValueError, match="finite"):
            detect_fixed_clock_qubits(diag, [1.0, math.inf], cfg)


class TestAqf:
    def test_complete_graph_certificate(self):
        cert = check_aqf(laplacian(complete_graph(5)), 1, 3)
        assert cert.holds and cert.eigenvalue == 5.0
        # certificate against a dense eigensolve
        lap = laplacian(complete_graph(5)).to_dense()
        b = np.zeros(5)
        b[1], b[3] = 1.0, -1.0
        assert np.allclose(lap @ b, 5.0 * b)

    def test_path_endpoints_hold(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        cert = check_aqf(laplacian(path), 0, 2)
        assert cert.holds and cert.eigenvalue == 1.0

    def test_path_adjacent_pair_fails(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        cert = check_aqf(laplacian(path), 0, 1)
        assert not cert.holds and cert.eigenvalue is None

    def test_vertex_validation(self):
        lap = laplacian(complete_graph(3))
        with pytest.raises(ValueError, match="distinct"):
            check_aqf(lap, 1, 1)
        with pytest.raises(ValueError, match="out of range"):
            check_aqf(lap, 0, 5)


class TestAugment:
    def test_k3_full_attachment(self):
        grown = augment_for_aqf(complete_graph(3), [0, 1, 2])
        assert grown.n_vertices == 5
        cert = check_aqf(laplacian(grown), 3, 4)
        assert cert.holds and cert.eigenvalue == 3.0
        dense = laplacian(grown).to_dense()
        b = np.zeros(5)
        b[3], b[4] = 1.0, -1.0
        assert np.allclose(dense @ b, 3.0 * b, atol=1e-12)

    def test_single_edge_single_attachment(self):
        grown = augment_for_aqf(Graph.from_edges(2, [(0, 1)]), [0])
        cert = check_aqf(laplacian(grown), 2, 3)
        assert cert.holds and cert.eigenvalue == 1.0

    def test_attach_validation(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="duplicates"):
            augment_for_aqf(g, [0, 0])
        with pytest.raises(ValueError, match="nonempty"):
            augment_for_aqf(g, [])
        with pytest.raises(ValueError, match="out of range"):
            augment_for_aqf(g, [0, 7])

    def test_random_graphs_always_certify(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges) if edges else Graph.from_edges(n, [(0, 1)])
            k = int(rng.integers(1, n + 1))
            attach = list(rng.choice(n, size=k, replace=False))
            grown = augment_for_aqf(g, attach)
            cert = check_aqf(laplacian(grown), n, n + 1)
            assert cert.holds and cert.eigenvalue == float(k)


class TestOneQubit:
    def test_probability_formula(self):
        cfg = default_config(4, 10.0)
        lam_t = 6.0 * cfg.t / (2.0 * math.pi)
        assert one_qubit_hhl(6.0, cfg) == pytest.approx((cfg.C / lam_t) ** 2, rel=1e-12)

    def test_complete_graph_resistances(self):
        for n, expected in ((4, 0.5), (6, 1.0 / 3.0), (8, 0.25)):
            cfg = default_config(4, 2.0 * (n - 1))
            got = one_qubit_effective_resistance(float(n), cfg)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_small_eigenvalue_with_a_config_placed_below_it(self):
        # C = 0.9·λ·t/2π, so p = 0.9² whatever the absolute size of λ
        p = one_qubit_hhl(5e-7, default_config(10, 1.0, 5e-7))
        assert p == pytest.approx(0.81, rel=1e-12)

    def test_validation(self):
        cfg = default_config(4, 10.0)
        with pytest.raises(ValueError, match="C out of range"):
            one_qubit_hhl(1e-9, cfg)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="not positive"):
                one_qubit_hhl(lam, cfg)
        with pytest.raises(ValueError, match="C out of range"):
            one_qubit_hhl(6.0, HhlConfig(n_r=4, t=cfg.t, C=0.9))
        with pytest.raises(ValueError, match="bound violated"):
            one_qubit_hhl(20.0, cfg)


class TestEffectiveResistance:
    def test_cycle_oracle_values(self):
        g = cycle4()
        # series-parallel: 1 ohm in parallel with 3 in series, and 2 with 2
        assert effective_resistance(g, 0, 1) == pytest.approx(0.75, abs=1e-12)
        assert effective_resistance(g, 0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_path_oracle_value(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert effective_resistance(path, 0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_complete_graph_oracle_values(self):
        for n in (4, 6, 8):
            got = effective_resistance(complete_graph(n), 0, n - 1)
            assert got == pytest.approx(2.0 / n, abs=1e-12)

    def test_hhl_path_on_padded_k6(self):
        got = effective_resistance(complete_graph(6), 0, 1, "hhl", default_config(10, 10.0))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-2)

    def test_hhl_path_value_is_pinned(self):
        # gnp 200 pads to order 256 with the default clock; the value was
        # recorded while the padded Laplacian was symmetry-checked twice
        g = generate(make_spec("gnp", schedule=(200,), seed=3), 200).graph
        assert effective_resistance(g, 0, 7, "hhl") == float.fromhex("0x1.8e596d6cb378fp-7")

    @pytest.mark.parametrize("n_r", [4, 8, 10])
    def test_weak_link_is_not_a_null_mode(self, n_r):
        # λ₂ ≈ 1e-7 lies below the absolute cutoff 1e-6 but is no null mode:
        # under the rank tolerance it stays live, and the default config's
        # rotation constant cannot invert it.
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2e-7), (2, 3, 1.0)])
        assert effective_resistance(g, 0, 3) == pytest.approx(5.0e6 + 2.0, rel=1e-6)
        with pytest.raises(ValueError, match="C out of range"):
            effective_resistance(g, 0, 3, "hhl", default_config(n_r, 4.0))
        lap = laplacian(g)
        b = [1.0, 0.0, 0.0, -1.0]
        with pytest.raises(ValueError, match="C out of range"):
            detect_fixed_clock_qubits(lap, b, default_config(n_r, 4.0))

    def test_validation(self):
        two = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            effective_resistance(two, 0, 2)
        with pytest.raises(ValueError, match="undirected"):
            effective_resistance(directed_cycle4(), 0, 1)
        with pytest.raises(ValueError, match="distinct"):
            effective_resistance(cycle4(), 1, 1)
        with pytest.raises(ValueError, match="method"):
            effective_resistance(cycle4(), 0, 1, "quantum")


class TestTrafficFlow:
    def test_incidence_layout_matches_flow_model(self):
        dense = incidence_matrix(directed_cycle4()).to_dense()
        expected = np.array(
            [
                [-1.0, 0.0, 0.0, 1.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
            ]
        )
        assert np.array_equal(dense, expected)

    def test_cycle_min_norm_flow(self):
        res = traffic_flow(directed_cycle4(), [-1.0, 1.0, 0.0, 0.0])
        assert res.flow == pytest.approx([0.75, -0.25, -0.25, -0.25], abs=1e-12)
        dense = incidence_matrix(directed_cycle4()).to_dense()
        assert dense @ res.flow == pytest.approx([-1.0, 1.0, 0.0, 0.0], abs=1e-12)
        assert res.negative_lanes == (1, 2, 3)
        # min-norm: no circulation component
        assert float(np.sum(res.flow)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_injections_zero_flow(self):
        res = traffic_flow(directed_cycle4(), [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(res.flow, np.zeros(4))
        assert res.negative_lanes == ()

    def test_imbalanced_rejected(self):
        with pytest.raises(ValueError, match="imbalanced"):
            traffic_flow(directed_cycle4(), [1.0, 0.0, 0.0, 0.0])

    def test_balance_is_per_weakly_connected_component(self):
        g = Graph.from_edges(4, [(0, 1), (3, 2)], directed=True)
        for method in ("oracle", "hhl"):
            with pytest.raises(ValueError, match="imbalanced"):
                traffic_flow(g, [-1.0, 0.0, 1.0, 0.0], method)
            cfg = default_config(10, 2.0, signed=True)
            got = traffic_flow(g, [-1.0, 1.0, 2.0, -2.0], method, cfg)
            assert got.flow == pytest.approx([1.0, 2.0], abs=2e-3)

    def test_validation(self):
        with pytest.raises(ValueError, match="directed"):
            traffic_flow(cycle4(), [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="length"):
            traffic_flow(directed_cycle4(), [1.0, -1.0])
        with pytest.raises(ValueError, match="method"):
            traffic_flow(directed_cycle4(), [-1.0, 1.0, 0.0, 0.0], "quantum")
        for method in ("oracle", "hhl"):
            with pytest.raises(ValueError, match="finite"):
                traffic_flow(directed_cycle4(), [math.nan, 0.0, 0.0, 0.0], method)

    def test_dilated_cycle_spectrum(self):
        dil = hermitian_dilation(incidence_matrix(directed_cycle4()))
        eigs = np.linalg.eigvalsh(dil.to_dense())
        expected = [-2.0, -math.sqrt(2.0), -math.sqrt(2.0), 0.0, 0.0,
                    math.sqrt(2.0), math.sqrt(2.0), 2.0]
        assert eigs == pytest.approx(expected, abs=1e-9)

    def test_hhl_path_matches_oracle(self):
        oracle = traffic_flow(directed_cycle4(), [-1.0, 1.0, 0.0, 0.0])
        cfg = default_config(10, 2.0, signed=True)
        got = traffic_flow(directed_cycle4(), [-1.0, 1.0, 0.0, 0.0], "hhl", cfg)
        assert np.abs(got.flow - oracle.flow).max() < 2e-3
        assert got.negative_lanes == (1, 2, 3)


def fourier_clock_weights(phase: np.ndarray, n_r: int) -> np.ndarray:
    """|DFT of the clock state after QPE|^2, mode by mode."""
    tbins = 2**n_r
    amplitudes = np.fft.fft(np.exp(2j * math.pi * np.outer(phase, np.arange(tbins)))) / tbins
    return np.abs(amplitudes) ** 2


class TestClockWeights:
    @pytest.mark.parametrize("n_r", [4, 10])
    def test_closed_form_matches_the_fourier_kernel(self, n_r):
        tbins = 2**n_r
        on_bin = np.array([0, 1, 3, tbins // 2 - 1, -1, -tbins // 2 + 1]) / tbins
        wrap = np.array([-0.5, -0.5 + 1e-9, 0.5 - 1e-9, 0.5 - 0.5 / tbins, -0.5 - 0.5 / tbins])
        rng = np.random.default_rng(n_r)
        phase = np.concatenate((on_bin, [-0.0, 1e-17], wrap, rng.uniform(-0.5, 1.0, 200)))
        got = _clock_weights(phase, n_r)
        assert np.abs(got - fourier_clock_weights(phase, n_r)).max() <= 1e-12
        assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-14
        hot = np.rint(on_bin * tbins).astype(int) % tbins
        assert np.array_equal(got[: on_bin.size], np.eye(tbins)[hot])


def reference_outcome(a: np.ndarray, vec: np.ndarray, cfg: HhlConfig):
    """(p_success, clock_zero_weight, solution, clock histogram) from a full
    eigensolve of the dense matrix and the Fourier clock kernel."""
    lam, basis = np.linalg.eigh(a)
    lam_t = lam * cfg.t / (2.0 * math.pi)
    signed = bool((lam < -zero_tolerance(lam)).any())
    b_norm = float(np.linalg.norm(vec))
    beta = basis.T @ (vec / b_norm)
    weights = fourier_clock_weights(lam_t, cfg.n_r)
    ticks = np.arange(cfg.n_bins)
    bins = np.where(signed & (ticks >= cfg.n_bins // 2), ticks - cfg.n_bins, ticks) / cfg.n_bins
    sines = np.zeros(cfg.n_bins)
    sines[1:] = np.clip(cfg.C / bins[1:], -1.0, 1.0)
    p_success = float(beta**2 @ (weights @ sines**2))
    unnorm = basis @ (beta * (weights @ sines))
    zero_weight = float(unnorm @ unnorm) / p_success
    scale = cfg.t / (2.0 * math.pi * cfg.C)
    solution = b_norm * scale * unnorm
    return p_success, zero_weight, solution, beta**2 @ weights


def bin_exact_config(lam_min: float, bound: float, signed: bool, n_r: int) -> HhlConfig:
    """t = 2 pi / 2^p puts every integer eigenvalue up to ``bound`` on a
    clock bin inside the window."""
    p = 0
    while 2**p <= (2.0 * bound if signed else bound):
        p += 1
    assert p <= n_r
    return HhlConfig(n_r=n_r, t=2.0 * math.pi / 2**p, C=lam_min / 2**p)


def union(draw, blocks, directed):
    """Disjoint union of (n_vertices, edges) blocks under a random vertex
    permutation and a random edge order."""
    n = sum(size for size, _ in blocks)
    perm = draw(st.permutations(range(n)))
    edges, base = [], 0
    for size, block in blocks:
        edges += [(perm[base + a], perm[base + b], w) for a, b, w in block]
        base += size
    return Graph.from_edges(n, draw(st.permutations(edges)), directed)


def complete(a, w=1.0):
    return a, [(i, j, w) for i in range(a) for j in range(i + 1, a)]


@st.composite
def exact_laplacians(draw, size=st.integers(1, 4)):
    """Unions of complete graphs K_a with integer weight w: spectrum {0, a w}."""
    sizes = draw(st.lists(size, min_size=1, max_size=4).filter(lambda s: max(s) > 1))
    return union(draw, [complete(a, draw(st.integers(1, 3))) for a in sizes], False)


@st.composite
def random_laplacians(draw):
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weight = st.floats(0.25, 4.0)
    return Graph.from_edges(n, [(a, b, draw(weight)) for a, b in chosen])


def star(k, out):
    return k + 1, [(0, j, 1.0) if o else (j, 0, 1.0) for j, o in zip(range(1, k + 1), out)]


# Digraph blocks with integer singular values: oriented stars with 3 and 8
# leaves (1 and sqrt(k + 1)), the 2-cycle (0, 2), the complete digraph on 8
# vertices (0, 4; 56 arcs), an isolated vertex.
EXACT_DIGRAPHS = {
    "star3": ["star3"],  # n > m, padded
    "star8+vertex": ["star8", "vertex"],  # n > m, padded
    "digon+digon": ["digon", "digon"],  # n = m, no padding
    "digon+star3": ["digon", "star3"],  # n > m, padded
    "K8": ["K8"],  # n < m, no padding
    "K8+star3": ["K8", "star3"],  # n < m, padded
}


@st.composite
def exact_digraphs(draw, names):
    blocks = []
    for name in names:
        if name.startswith("star"):
            k = int(name[4:])
            blocks.append(star(k, draw(st.lists(st.booleans(), min_size=k, max_size=k))))
        elif name == "digon":
            blocks.append((2, [(0, 1, 1.0), (1, 0, 1.0)]))
        elif name == "K8":
            blocks.append((8, [(i, j, 1.0) for i in range(8) for j in range(8) if i != j]))
        else:
            blocks.append((1, []))
    return union(draw, blocks, True)


@st.composite
def random_digraphs(draw, n, m):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True))
    return Graph.from_edges(n, chosen, directed=True)


def residual_tol(a: np.ndarray) -> float:
    """A few times Lanczos' stopping residual order * eps * (row bound)."""
    return 8.0 * a.shape[0] * np.finfo(float).eps * max(1.0, float(np.abs(a).sum(axis=1).max()))


def assert_ritz_pairs(a: np.ndarray, theta: np.ndarray, vectors: np.ndarray, rhs: np.ndarray):
    """Orthonormal columns, A v = theta v for each pair and rhs in span(V)."""
    tol = residual_tol(a)
    assert np.abs(vectors.T @ vectors - np.eye(theta.size)).max(initial=0.0) <= 1e-12
    assert np.linalg.norm(a @ vectors - vectors * theta, axis=0).max(initial=0.0) <= tol
    assert np.linalg.norm(vectors @ (vectors.T @ rhs) - rhs) <= tol * max(1.0, np.linalg.norm(rhs))


def assert_eigensystem(eig, a: np.ndarray, unit: np.ndarray) -> None:
    """``eig.spectrum`` is the spectrum of ``a``, and ``eig.modes`` cover
    every row once with eigenpairs of ``a`` that span ``unit``."""
    order = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    assert eig.spectrum.size == order
    assert np.abs(np.sort(eig.spectrum) - np.linalg.eigvalsh(a)).max() <= 1e-12 * scale
    covered = np.zeros(order, dtype=int)
    for mode in eig.modes:
        rows = np.arange(order)[mode.rows]
        covered[rows] += 1
        vectors = np.zeros((order, mode.lam.size))
        vectors[rows] = np.eye(rows.size) if mode.vectors is None else mode.vectors
        part = np.zeros(order)
        part[rows] = unit[rows]
        assert_ritz_pairs(a, mode.lam, vectors, part)
    assert np.array_equal(covered, np.ones(order, dtype=int))


def mode_shapes(eig) -> list[tuple[int, int]]:
    """Shape of each block's eigenvectors: fewer columns than rows for the
    Ritz pairs of b's Krylov space, square for the dense fallback."""
    return [mode.vectors.shape for mode in eig.modes if mode.vectors is not None]


def graph_eigensystem(g: Graph, rhs: np.ndarray):
    """The eigensystem the simulator builds for graph_system(g) padded, its
    dense matrix and the unit right-hand side."""
    system = graph_system(g)
    bound = abs_row_bound(system)
    padded = pad_to_power_of_two(system, bound)
    vec = np.zeros(padded.order)
    vec[: rhs.size] = rhs
    unit = vec / np.linalg.norm(vec)
    if g.directed:
        eig = _dilation_eigenpairs(system, incidence_matrix(g), bound, padded.order, unit)
    else:
        eig = _eigenpairs(padded, unit)
    return eig, padded.to_dense(), unit


def assert_matches_reference(g: Graph, rhs: np.ndarray, exact: bool, n_r: int) -> None:
    """The eigensystems of graph_system(g) padded, and _graph_solve,
    hhl_solve and the clock histogram on it, against one eigensolve of the
    whole padded matrix."""
    system = graph_system(g)
    bound = abs_row_bound(system)
    padded = pad_to_power_of_two(system, bound)
    eig, dense, unit = graph_eigensystem(g, rhs)
    assert_eigensystem(eig, dense, unit)
    if g.directed:
        assert_eigensystem(_eigenpairs(padded, unit), dense, unit)
    lam = np.abs(np.linalg.eigvalsh(dense))
    lam_min = float(lam[lam > zero_tolerance(lam)].min())
    if exact:
        cfg = bin_exact_config(round(lam_min), bound, g.directed, n_r)
    else:
        cfg = default_config(n_r, bound, lam_min, signed=g.directed)
    inc = incidence_matrix(g) if g.directed else None
    got, vec = _graph_solve(g, rhs, cfg, inc)
    p_success, zero_weight, solution, histogram = reference_outcome(dense, vec, cfg)
    tol = 1e-10 * max(1.0, float(np.abs(solution).max()))
    for out in (got, hhl_solve(padded, vec, cfg)):
        assert out.p_success == pytest.approx(p_success, abs=1e-10)
        assert out.clock_zero_weight == pytest.approx(zero_weight, abs=1e-10)
        assert np.abs(out.solution - solution).max() <= tol
    if exact:
        assert got.clock_zero_weight == pytest.approx(1.0, abs=1e-10)
    assert np.abs(_clock_histogram(padded, vec, cfg) - histogram).max() <= 1e-12


rhs_seeds = st.integers(0, 2**32 - 1)


class TestBlockEigensystem:
    """Padding rows and isolated vertices taken as they stand, and each
    component or a digraph's dilation reduced to the Krylov space of b (or
    solved densely past the cap), agree with one eigensolve of the whole
    padded matrix."""

    @settings(max_examples=100, deadline=None)
    @given(g=exact_laplacians(), seed=rhs_seeds)
    def test_bin_exact_laplacians(self, g, seed):
        rhs = np.random.default_rng(seed).standard_normal(g.n_vertices)
        assert_matches_reference(g, rhs, exact=True, n_r=6)

    # K_a blocks of order 32 and more allow the two Lanczos steps that a
    # random b needs on the spectrum {0, a w}.
    @settings(max_examples=25, deadline=None)
    @given(g=exact_laplacians(st.sampled_from([1, 32, 40])), seed=rhs_seeds)
    def test_bin_exact_laplacians_of_krylov_size(self, g, seed):
        rhs = np.random.default_rng(seed).standard_normal(g.n_vertices)
        assert_matches_reference(g, rhs, exact=True, n_r=9)

    @settings(max_examples=100, deadline=None)
    @given(g=random_laplacians(), seed=rhs_seeds, n_r=st.sampled_from([4, 7]))
    def test_random_weighted_laplacians(self, g, seed, n_r):
        rhs = np.random.default_rng(seed).standard_normal(g.n_vertices)
        assert_matches_reference(g, rhs, exact=False, n_r=n_r)

    @pytest.mark.parametrize("names", EXACT_DIGRAPHS.values(), ids=EXACT_DIGRAPHS.keys())
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=rhs_seeds)
    def test_bin_exact_digraphs(self, names, data, seed):
        g = data.draw(exact_digraphs(names))
        rhs = np.random.default_rng(seed).standard_normal(g.n_vertices + g.n_edges)
        assert_matches_reference(g, rhs, exact=True, n_r=7)

    # (n, m): n > m, n = m and n < m, each with n + m a power of two
    # (no padding) and not.
    @pytest.mark.parametrize("n, m", [(5, 3), (6, 3), (4, 4), (5, 5), (3, 5), (4, 7)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=rhs_seeds, n_r=st.sampled_from([4, 7]))
    def test_random_digraphs(self, n, m, data, seed, n_r):
        g = data.draw(random_digraphs(n, m))
        rhs = np.random.default_rng(seed).standard_normal(n + m)
        assert_matches_reference(g, rhs, exact=False, n_r=n_r)


def star_digraph(leaves: int, isolated: int = 0) -> Graph:
    return Graph.from_edges(leaves + 1 + isolated, [(0, k) for k in range(1, leaves + 1)], True)


def connected_weighted(n: int, seed: int) -> Graph:
    """A weighted path plus random chords: all eigenvalues distinct."""
    rng = np.random.default_rng(seed)
    chords = [(a, b) for a in range(n) for b in range(a + 2, n) if rng.random() < 0.2]
    edges = [(a, a + 1) for a in range(n - 1)] + chords
    return Graph.from_edges(n, [(a, b, float(rng.uniform(0.5, 2.0))) for a, b in edges])


def hypercube(d: int) -> Graph:
    return generate(make_spec("hypercube", schedule=(d,)), d).graph


def pair_rhs(n: int, i: int, j: int) -> np.ndarray:
    rhs = np.zeros(n)
    rhs[i], rhs[j] = 1.0, -1.0
    return rhs


# (graph, right-hand side, bin-exact clock, (rows, eigenpairs) of each
# vector block): the Krylov side of the cap with one mode, degenerate
# spectra and a dilation with |n - m| zero modes, and the dense side.
CAP_CASES = {
    # e_0 - e_1 is an eigenvector of K_n: Krylov dimension 1
    "eigenvector-K40": (complete_graph(40), pair_rhs(40, 0, 1), True, [(40, 1)]),
    # e_0 on K_n reaches 0 and n
    "unit-K48": (complete_graph(48), np.eye(48)[0], True, [(48, 2)]),
    # an edge of Q_7 reaches the 7 nonzero eigenvalues 2, 4, ..., 14
    "edge-Q7": (hypercube(7), pair_rhs(128, 0, 1), True, [(128, 7)]),
    # star with 48 leaves and 15 isolated vertices: n - m = 16 zero modes,
    # dilation eigenvalues 0, +-1 and +-7
    "star48+15": (star_digraph(48, 15), np.random.default_rng(2).standard_normal(112), True,
                  [(112, 5)]),
    # complete digraph on 8 vertices: m - n = 48 zero modes, +-4 besides
    "K8-digraph": (Graph.from_edges(8, [(i, j) for i in range(8) for j in range(8) if i != j],
                                    True),
                   np.random.default_rng(3).standard_normal(64), True, [(64, 3)]),
    # a random weighted b reaches every mode of a 40-vertex component
    "dense-weighted40": (connected_weighted(40, 4), np.random.default_rng(5).standard_normal(40),
                         False, [(40, 40)]),
    # a digraph whose dilation b reaches beyond the cap: dense SVD
    "dense-digraph": (Graph.from_edges(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                            (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (3, 9),
                                            (11, 0), (5, 1)], True),
                      np.random.default_rng(6).standard_normal(26), False, [(26, 26)]),
}


class TestKrylovCap:
    """Right-hand sides on each side of the Krylov cap take the intended
    path and agree with one eigensolve of the whole padded matrix."""

    @pytest.mark.parametrize("case", CAP_CASES.values(), ids=CAP_CASES.keys())
    def test_path_and_reference(self, case):
        g, rhs, exact, shapes = case
        eig, _, _ = graph_eigensystem(g, rhs)
        assert mode_shapes(eig) == shapes
        assert_matches_reference(g, rhs, exact, n_r=8)

    def test_c_under_a_mode_b_never_reaches(self):
        # The alternating vector (-1)^popcount(x) on Q_7 is the eigenvector
        # of 14 alone, so the Krylov space never meets lambda_2 = 2; a C
        # above 2 t / 2 pi must still be refused.
        lap = laplacian(hypercube(7))
        b = np.array([(-1.0) ** bin(x).count("1") for x in range(128)])
        assert mode_shapes(_eigenpairs(lap, b / np.linalg.norm(b))) == [(128, 1)]
        base = default_config(10, 14.0)
        lam2 = 2.0 * base.t / (2.0 * math.pi)
        below = HhlConfig(n_r=10, t=base.t, C=0.99 * lam2)
        assert hhl_solve(lap, b, below).p_success > 0.0
        above = HhlConfig(n_r=10, t=base.t, C=1.01 * lam2)
        with pytest.raises(ValueError, match="C out of range"):
            hhl_solve(lap, b, above)
        with pytest.raises(ValueError, match="C out of range"):
            detect_fixed_clock_qubits(lap, b, above)


@st.composite
def few_valued_matrices(draw):
    """Integer matrices of order 64..160 with at most order / 16 distinct
    eigenvalues, dense or CSR, and a random right-hand side: a shifted,
    sign-flipped and permuted direct sum of w (a I - J_a), whose spectrum
    is {0, w a}, for a in {4, 8} and w in {1, 2}."""
    sizes = [draw(st.sampled_from([4, 8])) for _ in range(16)]
    sizes += [draw(st.sampled_from([4, 8])) for _ in range(draw(st.integers(0, 4)))]
    weights = [draw(st.sampled_from([1, 2])) for _ in sizes]
    a = sp.block_diag([w * (a * np.eye(a) - np.ones((a, a))) for a, w in zip(sizes, weights)])
    order = sum(sizes)
    shift = draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(rhs_seeds))
    signs = rng.choice([-1.0, 1.0], order)
    perm = rng.permutation(order)
    a = ((a.toarray() + shift * np.eye(order)) * signs * signs[:, None])[perm][:, perm]
    rhs = rng.standard_normal(order) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    values = {shift} | {w * n + shift for n, w in zip(sizes, weights)}
    return a, rhs, len(values)


class TestRitzPairs:
    @settings(max_examples=60, deadline=None)
    @given(case=few_valued_matrices(), sparse=st.booleans())
    def test_krylov_space_of_few_valued_matrices(self, case, sparse):
        a, rhs, distinct = case
        bound = float(np.abs(a).sum(axis=1).max())
        got = _ritz_pairs(sp.csr_array(a) if sparse else a, rhs, bound)
        assert got is not None
        theta, vectors = got
        assert theta.size == distinct
        assert_ritz_pairs(a, theta, vectors, rhs)

    def test_zero_rhs_spans_nothing(self):
        theta, vectors = _ritz_pairs(np.eye(32), np.zeros(32), 1.0)
        assert theta.size == 0 and vectors.shape == (32, 0)

    def test_past_the_cap_is_none(self):
        a = np.diag(np.arange(1.0, 65.0))
        assert _ritz_pairs(a, np.ones(64), 64.0) is None
