import math

import numpy as np
import pytest

from systemic import (ConnectivityError, DomainError, MeasureDescriptor,
                      QuadratureSettings, SpectralFunction, TransferModel,
                      WeightedGraph, applicable_properties, entropy_via_trees,
                      evaluate, evaluate_eigenvalues, generate,
                      get_spectral_function, graph_spectrum, hp_norm,
                      hp_norm_numeric, is_homogeneous, laplacian,
                      register_spectral_function, scalar_mul, spectral_form,
                      zeta, zeta_measure)

from helpers import MEASURE_CASES, random_connected


class TestZeta:
    def test_k4(self):
        assert zeta(generate("complete", 4), 1.0) == pytest.approx(0.75, rel=1e-12)

    def test_p3(self, p3):
        assert zeta(p3, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_c4_squared(self, c4):
        assert zeta(c4, 2.0) == pytest.approx(9.0 / 16.0, rel=1e-12)

    def test_disconnected(self):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityError):
            zeta(graph, 1.0)

    def test_negative_exponent_rejected(self, p3):
        # p = -1 would give the trace-like sum 1 + 3 = 4, which grows with edges
        with pytest.raises(DomainError, match="positive"):
            zeta(p3, -1.0)

    def test_zero_exponent_rejected(self, p3):
        # p = 0 would count the n - 1 nonzero modes, blind to the weights
        with pytest.raises(DomainError, match="positive"):
            zeta(p3, 0.0)


class TestZetaMeasure:
    def test_k3_infinite_exponent(self, k3):
        assert zeta_measure(k3, math.inf, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_p3_laplacian_energy(self, p3):
        assert zeta_measure(p3, 1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("p,k", [(1.0, 1.0), (2.0, 0.5), (7.0, 2.0), (math.inf, 1.0)])
    def test_scaling_halves(self, p, k):
        graph = random_connected(17)
        base = zeta_measure(graph, p, k)
        assert zeta_measure(scalar_mul(2.0, graph), p, k) == pytest.approx(
            base / 2.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_large_exponent_does_not_underflow(self):
        # K10 has nine eigenvalues 10, and 10^-400 is below the double range
        expected = 9.0 ** (1.0 / 400.0) / 10.0
        assert zeta_measure(generate("complete", 10), 400.0, 1.0) == pytest.approx(
            expected, rel=1e-12)

    def test_rejects_small_p(self, k3):
        with pytest.raises(DomainError):
            zeta_measure(k3, 0.5, 1.0)

    def test_rejects_bad_k(self, k3):
        with pytest.raises(DomainError):
            zeta_measure(k3, 2.0, 0.0)

    def test_large_exponent_tends_to_connectivity(self):
        # needs a well-separated second eigenvalue for the p = 64 surrogate
        found = 0
        for seed in range(40):
            graph = random_connected(3000 + seed, n_low=4, n_high=12)
            lam = graph_spectrum(graph).nonzero
            if lam[0] / lam[1] > 0.9:
                continue
            found += 1
            limit = 1.0 / lam[0]
            assert abs(zeta_measure(graph, 64.0, 1.0) - limit) < 1e-3 * limit
            if found >= 10:
                break
        assert found >= 10


class TestHpNorm:
    def test_k3_h2(self, k3):
        assert hp_norm(k3, 2.0) == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)

    def test_k3_cubic(self, k3):
        expected = ((2.0 / 9.0) / math.pi) ** (1.0 / 3.0)
        assert hp_norm(k3, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_p3_infinite(self, p3):
        assert hp_norm(p3, math.inf) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
    def test_rejects_p_at_most_one(self, k3, p):
        with pytest.raises(DomainError):
            hp_norm(k3, p)

    def test_squared_h2_matches_energy(self):
        for seed in range(10):
            graph = random_connected(500 + seed)
            squared = hp_norm(graph, 2.0) ** 2
            energy = evaluate(graph, MeasureDescriptor("energy1"))
            assert squared == pytest.approx(energy, rel=1e-12)


class TestHpNumeric:
    def test_k3_h2(self, k3):
        assert hp_norm_numeric(k3, 2.0) == pytest.approx(
            math.sqrt(1.0 / 3.0), rel=1e-6)

    def test_c4_h2(self, c4):
        assert hp_norm_numeric(c4, 2.0) == pytest.approx(
            math.sqrt(5.0 / 8.0), rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 7.0])
    def test_matches_closed_form(self, p3, p):
        assert hp_norm_numeric(p3, p) == pytest.approx(hp_norm(p3, p), rel=1e-6)

    def test_random_graphs(self):
        for seed in range(5):
            graph = random_connected(800 + seed)
            for p in (1.5, 3.0):
                assert hp_norm_numeric(graph, p) == pytest.approx(
                    hp_norm(graph, p), rel=1e-6)

    def test_near_divergent_exponent(self, p3):
        # the identity keeps holding right up to the p -> 1 divergence
        assert hp_norm_numeric(p3, 1.05) == pytest.approx(hp_norm(p3, 1.05), rel=1e-8)

    def test_rejects_infinite_p(self, k3):
        with pytest.raises(DomainError):
            hp_norm_numeric(k3, math.inf)

    def test_tight_budget_fails(self, k3):
        from systemic import NumericalError
        with pytest.raises(NumericalError):
            hp_norm_numeric(k3, 1.1, QuadratureSettings(rel_tol=1e-13,
                                                        max_subdivisions=1))


class TestTransferModel:
    def test_singular_values_match_svd(self):
        graph = random_connected(23, n_low=4, n_high=8)
        n = graph.n
        matrix = laplacian(graph).matrix
        centering = np.eye(n) - np.ones((n, n)) / n
        model = TransferModel.from_graph(graph)
        for omega in (0.1, 1.0, 7.5):
            response = centering @ np.linalg.inv(1j * omega * np.eye(n) + matrix)
            reference = np.linalg.svd(response, compute_uv=False)
            mine = np.sort(model.singular_values(omega))[::-1]
            assert np.abs(reference[:n - 1] - mine).max() < 1e-10
            assert reference[n - 1] < 1e-10


class TestEvaluate:
    def test_local_error_p3(self, p3):
        assert evaluate(p3, MeasureDescriptor("local_error")) == pytest.approx(1.25)

    def test_entropy_k3(self, k3):
        assert evaluate(k3, MeasureDescriptor("entropy")) == pytest.approx(
            -2.0 * math.log(3.0), rel=1e-12)

    def test_energy1_c4(self, c4):
        assert evaluate(c4, MeasureDescriptor("energy1")) == pytest.approx(0.625)

    def test_energy2_c4(self, c4):
        assert evaluate(c4, MeasureDescriptor("energy2")) == pytest.approx(9.0 / 32.0)

    def test_h2_is_sqrt_energy1(self, c4):
        assert evaluate(c4, MeasureDescriptor("h2")) == pytest.approx(
            math.sqrt(0.625), rel=1e-12)

    def test_hinf_and_convergence_time(self, p3):
        assert evaluate(p3, MeasureDescriptor("hinf")) == pytest.approx(1.0)
        assert evaluate(p3, MeasureDescriptor("convergence_time")) == pytest.approx(1.0)

    def test_schur_sum_inverse_is_energy1(self, c4):
        descriptor = MeasureDescriptor("schur_sum", f_id="inverse")
        assert evaluate(c4, descriptor) == pytest.approx(0.625, rel=1e-12)

    def test_homogeneous_measures_scale_exactly(self):
        graph = random_connected(31)
        descriptors = [
            MeasureDescriptor("zeta_measure", p=2.0, k=0.7),
            MeasureDescriptor("hp_norm", p=math.inf),
            MeasureDescriptor("convergence_time"),
            MeasureDescriptor("energy1"),
            MeasureDescriptor("local_error"),
        ]
        for kappa in (0.25, 3.0, 9.5):
            for descriptor in descriptors:
                assert is_homogeneous(descriptor)
                scaled = evaluate(scalar_mul(kappa, graph), descriptor)
                assert scaled == pytest.approx(
                    evaluate(graph, descriptor) / kappa, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1e-9, 1e9])
    def test_homogeneous_measures_survive_extreme_scaling(self, k3, alpha):
        # the zero tolerance is relative to the spectrum, so tiny weights on a
        # connected graph are not mistaken for a disconnected one
        descriptors = [
            MeasureDescriptor("zeta_measure", p=2.0, k=0.7),
            MeasureDescriptor("zeta_measure", p=math.inf, k=1.0),
            MeasureDescriptor("hp_norm", p=math.inf),
            MeasureDescriptor("hinf"),
            MeasureDescriptor("convergence_time"),
            MeasureDescriptor("energy1"),
            MeasureDescriptor("local_error"),
        ]
        scaled_graph = scalar_mul(alpha, k3)
        for descriptor in descriptors:
            assert is_homogeneous(descriptor)
            assert evaluate(scaled_graph, descriptor) == pytest.approx(
                evaluate(k3, descriptor) / alpha, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weight, p", [(1.0, 3.0), (1e-6, 60.0)])
    def test_hp_norm_matches_closed_form_function(self, weight, p):
        # with weights 1e-6 and p = 60 the plain power sum overflows; evaluate
        # must take the same log-space route as hp_norm instead of returning inf
        graph = WeightedGraph.from_edges(5, [(i, i + 1, weight) for i in range(4)])
        value = evaluate(graph, MeasureDescriptor("hp_norm", p=p))
        assert math.isfinite(value)
        assert value == hp_norm(graph, p)

    def test_spectral_form_permutation_invariant(self):
        fn = spectral_form(MeasureDescriptor("energy1"))
        x = np.array([0.5, 2.0, 7.0])
        assert fn(x) == pytest.approx(fn(x[::-1]), rel=1e-15)

    def test_local_error_needs_degrees(self):
        with pytest.raises(DomainError):
            evaluate_eigenvalues(np.array([1.0, 2.0]),
                                 MeasureDescriptor("local_error"))


class TestEntropyViaTrees:
    def test_k3(self, k3):
        assert entropy_via_trees(k3) == pytest.approx(-math.log(9.0), rel=1e-12)
        assert entropy_via_trees(k3) == pytest.approx(
            evaluate(k3, MeasureDescriptor("entropy")), rel=1e-12)

    def test_p3(self, p3):
        assert entropy_via_trees(p3) == pytest.approx(-math.log(3.0), rel=1e-12)

    def test_c4(self, c4):
        assert entropy_via_trees(c4) == pytest.approx(-math.log(16.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_random(self, seed):
        graph = random_connected(900 + seed, n_high=10)
        spectral = evaluate(graph, MeasureDescriptor("entropy"))
        assert entropy_via_trees(graph) == pytest.approx(spectral, rel=1e-8)

    def test_disconnected(self):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityError):
            entropy_via_trees(graph)


class TestDescriptors:
    def test_unknown_id(self):
        with pytest.raises(DomainError):
            MeasureDescriptor("resistance")

    def test_zeta_needs_p(self):
        with pytest.raises(DomainError):
            MeasureDescriptor("zeta_measure")

    def test_zeta_default_scale(self):
        assert MeasureDescriptor("zeta_measure", p=2.0).k == 1.0

    def test_hp_rejects_p_one(self):
        with pytest.raises(DomainError):
            MeasureDescriptor("hp_norm", p=1.0)

    def test_plain_measures_reject_params(self):
        with pytest.raises(DomainError):
            MeasureDescriptor("energy1", p=2.0)

    def test_schur_sum_needs_f(self):
        with pytest.raises(DomainError):
            MeasureDescriptor("schur_sum")

    def test_classification_table(self):
        spectral = {"monotonicity", "convexity", "orthogonal_invariance",
                    "schur_convexity"}
        scaled = {"homogeneity", "subadditivity"}
        assert applicable_properties(MeasureDescriptor("energy1")) == frozenset(
            spectral | scaled)
        assert applicable_properties(MeasureDescriptor("energy2")) == frozenset(spectral)
        assert applicable_properties(MeasureDescriptor("entropy")) == frozenset(spectral)
        assert applicable_properties(MeasureDescriptor("hp_norm", p=3.0)) == frozenset(
            spectral)
        assert applicable_properties(MeasureDescriptor("local_error")) == frozenset(
            {"monotonicity", "convexity"} | scaled)
        assert applicable_properties(MeasureDescriptor("h2")) == frozenset(spectral)
        assert applicable_properties(MeasureDescriptor("hinf")) == frozenset(
            spectral | scaled)
        assert applicable_properties(MeasureDescriptor("convergence_time")) == frozenset(
            spectral | scaled)
        assert applicable_properties(MeasureDescriptor("zeta_measure", p=2.0)) == frozenset(
            spectral | scaled)
        assert applicable_properties(
            MeasureDescriptor("schur_sum", f_id="exp_decay:0.5")) == frozenset(spectral)

    @pytest.mark.parametrize("descriptor", MEASURE_CASES, ids=lambda d: d.label())
    def test_homogeneity_flag_matches_scaling(self, descriptor):
        graph = random_connected(41)
        scaled = evaluate(scalar_mul(3.0, graph), descriptor)
        expected = evaluate(graph, descriptor) / 3.0
        assert is_homogeneous(descriptor) == (scaled == pytest.approx(expected, rel=1e-12))

    @pytest.mark.parametrize("measure_id, params, message", [
        ("schur_sum", {"f_id": "inverse", "p": 2.0}, "schur_sum takes no exponent p"),
        ("hp_norm", {"p": 2.0, "f_id": "inverse"},
         "hp_norm takes no spectral function id f_id"),
        ("zeta_measure", {"p": 2.0, "f_id": "inverse"},
         "zeta_measure takes no spectral function id f_id"),
        ("hp_norm", {"p": 2.0, "k": 1.0}, "hp_norm takes no scale k"),
    ])
    def test_unused_parameters_rejected(self, measure_id, params, message):
        # an ignored parameter would still appear in the report's label
        with pytest.raises(DomainError, match=message):
            MeasureDescriptor(measure_id, **params)


class TestFunctionRegistry:
    def test_parses_parameter_forms(self):
        for f_id in ("inverse_pow:2.5", "inverse_pow(2.5)"):
            fn = get_spectral_function(f_id)
            assert fn.fn(np.array([2.0]))[0] == pytest.approx(2.0 ** -2.5)

    def test_inverse_matches_half_reciprocal(self):
        fn = get_spectral_function("inverse")
        assert fn.fn(np.array([4.0]))[0] == pytest.approx(0.125)

    def test_unknown_function(self):
        with pytest.raises(DomainError):
            get_spectral_function("cubic")

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            get_spectral_function("exp_decay")

    def test_rejects_increasing_function(self):
        register_spectral_function(
            "bad_increasing",
            lambda param: SpectralFunction("bad_increasing", lambda x: x,
                                           lambda x: np.ones_like(x), False))
        with pytest.raises(DomainError, match="decreasing"):
            get_spectral_function("bad_increasing")

    def test_rejects_concave_function(self):
        register_spectral_function(
            "bad_concave",
            lambda param: SpectralFunction("bad_concave", lambda x: -x**2,
                                           lambda x: -2.0 * x, False))
        with pytest.raises(DomainError, match="convex|decreasing"):
            get_spectral_function("bad_concave")
