"""HHL simulator: exactness, convergence, fixing shortcuts, applications."""

import math

import numpy as np
import pytest

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
    augment_for_aqf,
    check_aqf,
    default_config,
    detect_fixed_clock_qubits,
    effective_resistance,
    extract_overlap,
    hhl_solve,
    one_qubit_effective_resistance,
    one_qubit_hhl,
    traffic_flow,
)


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

    @pytest.mark.parametrize("n_r", [4, 8, 10])
    def test_weak_link_is_not_a_null_mode(self, n_r):
        # λ₂ ≈ 1e-7 lies below the absolute cutoff 1e-6 but is no null mode:
        # under the default rank tolerance it stays live, and the default
        # config's rotation constant cannot invert it.
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2e-7), (2, 3, 1.0)])
        assert effective_resistance(g, 0, 3) == pytest.approx(5.0e6 + 2.0, rel=1e-6)
        with pytest.raises(ValueError, match="C out of range"):
            effective_resistance(g, 0, 3, "hhl", default_config(n_r, 4.0))
        lap = laplacian(g)
        b = [1.0, 0.0, 0.0, -1.0]
        with pytest.raises(ValueError, match="C out of range"):
            detect_fixed_clock_qubits(lap, b, default_config(n_r, 4.0))
        # an explicit cutoff keeps the absolute rule
        assert hhl_solve(lap, b, default_config(n_r, 4.0), cutoff=1e-6).p_success > 0

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

    def test_validation(self):
        with pytest.raises(ValueError, match="directed"):
            traffic_flow(cycle4(), [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="length"):
            traffic_flow(directed_cycle4(), [1.0, -1.0])
        with pytest.raises(ValueError, match="method"):
            traffic_flow(directed_cycle4(), [-1.0, 1.0, 0.0, 0.0], "quantum")

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
