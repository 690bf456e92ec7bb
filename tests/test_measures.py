import math

import numpy as np
import pytest

from systemic import (ConnectivityError, DomainError, MeasureDescriptor,
                      NumericalError, QuadratureSettings,
                      WeightedGraph, applicable_properties, entropy_via_trees,
                      evaluate, evaluate_eigenvalues, generate,
                      get_spectral_function, graph_spectrum, hp_norm,
                      hp_norm_numeric, is_homogeneous, laplacian, laplacian_spectrum,
                      parse_graph, scalar_mul, zeta, zeta_measure)

from systemic import measures

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

    # p = inf gave inf on P3 and P5 (lambda_2 < 1) and 0.0 on K5
    @pytest.mark.parametrize("graph", [generate("path", 3), generate("path", 5),
                                       generate("complete", 5)], ids=["p3", "p5", "k5"])
    def test_infinite_exponent_rejected(self, graph):
        with pytest.raises(DomainError, match="finite and positive"):
            zeta(graph, math.inf)


class TestZetaMeasure:
    def test_log_space_overflow_is_inf(self):
        # exp(713) raised OverflowError from the log-space branch
        value = measures._power_root(np.array([2e-310]), 1.0, 2.0, 2.0)
        assert value == math.inf
        with pytest.raises(NumericalError, match=r"\(zeta_measure, p=2, k=1\) is inf"):
            evaluate_eigenvalues(np.array([2e-310]), MeasureDescriptor("zeta_measure", p=2.0))

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

    # k = inf evaluated to inf
    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(DomainError, match="0 < k < inf"):
            MeasureDescriptor("zeta_measure", p=2.0, k=k)

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

    # lgamma overflowed past p = 5e305: an OverflowError, and the quadrature's
    # (p - 1) * x an overflow warning, where both tend to 1 / lambda_2
    @pytest.mark.parametrize("p", [1e306, 1.7976931348623157e308])
    def test_beyond_the_range_of_lgamma(self, p3, p):
        closed, numeric = hp_norm(p3, p), hp_norm_numeric(p3, p)
        assert math.isfinite(closed) and math.isfinite(numeric)
        assert closed == pytest.approx(numeric, rel=1e-12, abs=0.0)
        assert closed == pytest.approx(1.0 / float(graph_spectrum(p3).nonzero[0]),
                                       rel=1e-12, abs=0.0)

    # -s * log(lam) was +inf where lam < 1 and -inf where lam > 1, so the
    # log-space sum was nan at p near the largest double
    @pytest.mark.parametrize("measure_id", ["hp_norm", "zeta_measure"])
    def test_largest_p_with_eigenvalues_on_both_sides_of_one(self, p3, measure_id):
        descriptor = MeasureDescriptor(measure_id, p=1.7976931348623157e308)
        graphs = [scalar_mul(0.5, p3)] + [random_connected(seed, weight_range=(0.05, 0.6))
                                          for seed in range(5)]
        for graph in graphs:
            lam = graph_spectrum(graph).nonzero
            assert lam.min() < 1.0 < lam.max()
            assert evaluate(graph, descriptor) == pytest.approx(
                1.0 / float(lam.min()), rel=2.3e-16, abs=0.0)

    def test_coefficient_unchanged_where_lgamma_is_finite(self):
        for p in (1.5, 2.0, 3.0, 7.25, 1e3, 1e300, 5e305):
            expected = math.exp(math.lgamma((p - 1.0) / 2.0) + math.lgamma(0.5)
                                - math.lgamma(p / 2.0)) / (2.0 * math.pi)
            assert measures._hp_coefficient(p) == expected

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

    def test_term_budget_ends_the_halvings(self, k3, monkeypatch):
        # a NaN integrand never lets two levels agree; the halvings double the
        # nodes until the term budget refuses the next level
        monkeypatch.setattr(measures, "_log_frequency_integrand",
                            lambda log_mu, x, p: np.full(len(x), math.nan))
        with pytest.raises(NumericalError, match="over the budget of 67108864 integrand terms"):
            hp_norm_numeric(k3, 1.1)

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.05, 1.5, 2.0, 3.0, 7.0, 50.0, 200.0, 2000.0])
    def test_p3_across_exponents(self, p3, p):
        assert hp_norm_numeric(p3, p) == pytest.approx(hp_norm(p3, p), rel=1e-10)

    def test_exponents_near_one(self, p3):
        # QUADPACK stopped on a roundoff error in its extrapolation table at p = 1.001
        assert hp_norm_numeric(p3, 1.001) == pytest.approx(hp_norm(p3, 1.001), rel=1e-9)
        er50 = generate("erdos_renyi", 50, seed=3, p=0.2, weight_range=(0.5, 2.0))
        assert hp_norm_numeric(er50, 1.01) == pytest.approx(hp_norm(er50, 1.01), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_weight_scales(self, scale):
        # the integral scales as lambda_2^(1-p); no power of an eigenvalue is formed
        graph = scalar_mul(scale, generate("path", 4))
        for p in (1.5, 3.0, 50.0):
            assert hp_norm_numeric(graph, p) == pytest.approx(hp_norm(graph, p), rel=1e-10)

    def test_exponent_too_close_to_one_evaluates_nothing(self, p3, monkeypatch):
        # the range grows as 1/(p - 1); the grid is sized against the budget
        # before any node is evaluated
        def fail(*args):
            raise AssertionError("a node was evaluated")
        monkeypatch.setattr(measures, "_log_frequency_integrand", fail)
        with pytest.raises(NumericalError, match="budget"):
            hp_norm_numeric(p3, 1.0 + 1e-9)

    def test_memory_stays_bounded(self, p3):
        # about 1.8 million nodes at p = 1.0001, evaluated in blocks
        import tracemalloc
        tracemalloc.start()
        try:
            value = hp_norm_numeric(p3, 1.0001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(hp_norm(p3, 1.0001), rel=1e-9)
        assert peak < 8 * 2**20

    def test_halving_budget(self, p3, monkeypatch):
        # P3 at p = 3 and the default tolerance settles after three halvings
        sums = []
        node_sum = measures._node_sum
        monkeypatch.setattr(measures, "_node_sum",
                            lambda *args: sums.append(args) or node_sum(*args))
        assert hp_norm_numeric(p3, 3.0) == pytest.approx(hp_norm(p3, 3.0), rel=1e-10)
        assert len(sums) == 1 + 3

    def test_tolerance_below_fifty_eps(self, p3):
        with pytest.raises(NumericalError, match="tolerance 1e-14"):
            hp_norm_numeric(p3, 3.0, QuadratureSettings(rel_tol=1e-14))
        assert hp_norm_numeric(p3, 3.0, QuadratureSettings(rel_tol=2e-14)) \
            == pytest.approx(hp_norm(p3, 3.0), rel=1e-13)

    # a third oracle: 30-digit tanh-sinh quadrature of the same integral
    @pytest.mark.parametrize("family, n", [("complete", 3), ("path", 3), ("cycle", 4),
                                           ("star", 5)])
    def test_matches_mpmath(self, family, n):
        mpmath = pytest.importorskip("mpmath")
        graph = generate(family, n)
        lam = [mpmath.mpf(float(v)) for v in graph_spectrum(graph).nonzero]
        with mpmath.workdps(30):
            for p in (1.001, 1.01, 1.05, 1.5, 3.0, 7.0, 50.0):
                exponent = -mpmath.mpf(p) / 2

                def integrand(x):  # in x = log omega, breaks at every peak
                    omega = mpmath.exp(x)
                    return omega * mpmath.fsum((omega**2 + l**2) ** exponent for l in lam)

                breaks = sorted({float(mpmath.log(l)) + shift for l in lam
                                 for shift in (0.0, -0.5 * math.log(p - 1.0))})
                total = mpmath.quad(integrand, [-mpmath.inf, *breaks, mpmath.inf])
                reference = float((total / mpmath.pi) ** (1 / mpmath.mpf(p)))
                assert hp_norm_numeric(graph, p) == pytest.approx(reference, rel=1e-10)
                assert hp_norm(graph, p) == pytest.approx(reference, rel=1e-10)


class TestQuadratureSettings:
    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0, 0.0, 1.0, 2.0])
    def test_invalid_tolerance(self, rel_tol):
        with pytest.raises(DomainError, match="rel_tol must be finite with 0 < rel_tol < 1"):
            QuadratureSettings(rel_tol=rel_tol)

    def test_valid_settings(self):
        assert QuadratureSettings(rel_tol=0.5).rel_tol == 0.5


class TestLogFrequencyIntegrand:
    def test_matches_singular_values_of_the_transfer_function(self):
        # omega * sum sigma_i(omega)^p over the singular values of
        # C (i omega I + L)^-1, with C the centering projection, at omega = e^t
        graph = random_connected(23, n_low=4, n_high=8)
        n = graph.n
        matrix = laplacian(graph)
        centering = np.eye(n) - np.ones((n, n)) / n
        log_mu = np.log(graph_spectrum(graph).nonzero)
        for t in (-2.3, 0.0, 2.0):
            omega = math.exp(t)
            response = centering @ np.linalg.inv(1j * omega * np.eye(n) + matrix)
            sigma = np.linalg.svd(response, compute_uv=False)
            assert sigma[n - 1] < 1e-10  # the consensus mode
            for p in (1.01, 3.0, 40.0):
                value = measures._log_frequency_integrand(log_mu, np.array([t]), p)[0]
                assert value == pytest.approx(omega * np.sum(sigma[:n - 1] ** p), rel=1e-10)

    def test_finite_everywhere(self):
        # no power of omega is formed, so no node overflows
        log_mu = np.log(np.array([1.0, 2.0, 5.0]))
        values = measures._log_frequency_integrand(
            log_mu, np.array([-1e6, -700.0, 0.0, 700.0, 1e6]), 3.0)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert values[2] > 0.0


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
        # the zero mode's error bound scales with the weights, so tiny weights
        # on a connected graph are not mistaken for a disconnected one
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

    def test_eigenvalues_permutation_invariant(self):
        descriptor = MeasureDescriptor("energy1")
        x = np.array([0.5, 2.0, 7.0])
        assert evaluate_eigenvalues(x, descriptor) == pytest.approx(
            evaluate_eigenvalues(x[::-1], descriptor), rel=1e-15)

    def test_local_error_on_weak_bridge(self):
        # a 1e-9 bridge keeps the path connected; local_error reads degrees
        # only and no eigenvalue threshold can call the bridge a cut
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1e-9), (2, 3, 1.0)])
        value = evaluate(graph, MeasureDescriptor("local_error"))
        assert value == pytest.approx(0.5 * (2.0 + 2.0 / (1.0 + 1e-9)), rel=1e-15)

    def test_local_error_domain(self):
        descriptor = MeasureDescriptor("local_error")
        with pytest.raises(DomainError, match="at least 2 nodes"):
            evaluate(WeightedGraph(n=1, edges=()), descriptor)
        with pytest.raises(ConnectivityError):
            evaluate(WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]), descriptor)

    def test_local_error_runs_no_eigensolve(self, monkeypatch):
        def fail(graph):
            raise AssertionError("local_error looked up a spectrum")
        monkeypatch.setattr(measures, "graph_spectrum", fail)
        assert evaluate(generate("path", 3), MeasureDescriptor("local_error")) == 1.25

    def test_local_error_needs_degrees(self):
        with pytest.raises(DomainError):
            evaluate_eigenvalues(np.array([1.0, 2.0]),
                                 MeasureDescriptor("local_error"))


SPECTRAL_CASES = [d for d in MEASURE_CASES if d.id != "local_error"]

# the twelve descriptors of the benchmark's catalog workload
CATALOG_CASES = [MeasureDescriptor("energy1"), MeasureDescriptor("energy2"),
                 MeasureDescriptor("h2"), MeasureDescriptor("hinf"),
                 MeasureDescriptor("convergence_time"), MeasureDescriptor("entropy"),
                 MeasureDescriptor("local_error"), MeasureDescriptor("zeta_measure", p=2.0),
                 MeasureDescriptor("zeta_measure", p=math.inf),
                 MeasureDescriptor("hp_norm", p=3.0),
                 MeasureDescriptor("schur_sum", f_id="inverse_pow:2"),
                 MeasureDescriptor("schur_sum", f_id="exp_decay:0.5")]


class TestCallerVectors:
    """evaluate_eigenvalues checks the vector a caller hands in."""

    # [nan, 1] gave nan for energy1, hinf, entropy and zeta_2, and [inf, 1]
    # gave entropy -inf, because nan <= 0 and inf <= 0 are both False
    @pytest.mark.parametrize("lam", [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0],
                                     [0.0, 1.0], [2.0, -1.0], []],
                             ids=["nan", "inf", "-inf", "zero", "negative", "empty"])
    @pytest.mark.parametrize("descriptor", SPECTRAL_CASES, ids=lambda d: d.label())
    def test_rejected(self, lam, descriptor):
        with pytest.raises(DomainError, match="finite positive"):
            evaluate_eigenvalues(np.array(lam, dtype=float), descriptor)

    # a 2 x 2 array gave energy1 1.0417, the sum over all four entries, and
    # the 0-d array 2.0 gave 0.25
    @pytest.mark.parametrize("lam", [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array(2.0)],
                             ids=["matrix", "scalar"])
    @pytest.mark.parametrize("descriptor", SPECTRAL_CASES, ids=lambda d: d.label())
    def test_rejects_non_vectors(self, lam, descriptor):
        with pytest.raises(DomainError, match="vector"):
            evaluate_eigenvalues(lam, descriptor)

    def test_accepts_lists(self):
        assert evaluate_eigenvalues([1.0, 4.0], MeasureDescriptor("energy1")) == 0.625


class TestCachedFastPath:
    """evaluate reads the gated spectrum without checking it again."""

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    @pytest.mark.parametrize("n", [3, 10, 50])
    @pytest.mark.parametrize("family", ["complete", "cycle", "path", "star", "erdos_renyi"])
    def test_matches_the_checked_route_bit_for_bit(self, family, n, scale):
        graph = scalar_mul(scale, generate(family, n, seed=n, p=min(1.0, 8.0 / n),
                                           weight_range=(0.5, 2.0)))
        lam = graph_spectrum(graph).nonzero
        for descriptor in CATALOG_CASES:
            value = evaluate(graph, descriptor)
            if descriptor.id == "local_error":
                assert value == 0.5 * float(np.sum(1.0 / graph.degrees))
            else:
                assert value == evaluate_eigenvalues(lam, descriptor), descriptor

    def test_one_eigensolve_and_one_miss_per_graph(self, monkeypatch):
        from systemic import spectral
        solves = []
        eig_sym = spectral.eig_sym

        def counting_eig_sym(matrix, **kwargs):
            solves.append(matrix.shape)
            return eig_sym(matrix, **kwargs)
        monkeypatch.setattr(spectral, "eig_sym", counting_eig_sym)
        graph = generate("erdos_renyi", 50, seed=3, p=0.16, weight_range=(0.5, 2.0))
        graph_spectrum.cache_clear()
        for descriptor in CATALOG_CASES:
            evaluate(graph, descriptor)
        assert solves == [(50, 50)]
        info = graph_spectrum.cache_info()
        assert (info.misses, info.hits) == (1, 10)  # local_error reads no spectrum


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowUnderWarningsAsErrors:
    """With RuntimeWarning an error, NumPy's overflow warning came out of these
    calls in place of the NumericalError that names the measure."""

    TINY = "n 2\n0 1 1e-310\n"  # lambda_2 = 2e-310, so 1/lambda overflows

    @pytest.mark.parametrize("descriptor", [
        MeasureDescriptor("energy1"), MeasureDescriptor("energy2"), MeasureDescriptor("h2"),
        MeasureDescriptor("local_error"), MeasureDescriptor("schur_sum", f_id="inverse"),
        MeasureDescriptor("hinf"), MeasureDescriptor("zeta_measure", p=2.0)],
        ids=lambda descriptor: descriptor.label())
    def test_evaluate(self, descriptor):
        graph = parse_graph(self.TINY)
        with pytest.raises(NumericalError, match=r"is inf in double precision"):
            evaluate(graph, descriptor)

    def test_zeta(self):
        with pytest.raises(NumericalError, match=r"zeta\(2\) is inf"):
            zeta(parse_graph(self.TINY), 2)

    def test_caller_vector(self):
        with pytest.raises(NumericalError, match="energy1 is inf"):
            evaluate_eigenvalues([1e-310, 1.0], MeasureDescriptor("energy1"))


class TestConsensusGate:
    """One gate in graphs refuses fewer than 2 nodes and a disconnected graph
    for every consensus route."""

    CALLERS = {
        "laplacian_spectrum": laplacian_spectrum,
        "local_error": lambda graph: evaluate(graph, MeasureDescriptor("local_error")),
        "entropy_via_trees": entropy_via_trees,
    }

    @pytest.mark.parametrize("caller", CALLERS)
    def test_one_node(self, caller):
        with pytest.raises(DomainError, match="^consensus spectra need at least 2 nodes$"):
            self.CALLERS[caller](WeightedGraph(n=1, edges=()))

    @pytest.mark.parametrize("caller", CALLERS)
    def test_disconnected(self, caller):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityError, match="^graph is disconnected$"):
            self.CALLERS[caller](graph)


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

    def test_one_node_refused_as_evaluate_does(self):
        # this returned -0.0
        graph = WeightedGraph.from_edges(1, [])
        message = "consensus spectra need at least 2 nodes"
        with pytest.raises(DomainError, match=message):
            evaluate(graph, MeasureDescriptor("entropy"))
        with pytest.raises(DomainError, match=message):
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
    """The fixed table of spectral functions, resolved as 'name' or 'name:q'."""

    def test_parses_parameter_forms(self):
        fn = get_spectral_function("inverse_pow:2.5")
        assert fn.fn(np.array([2.0]))[0] == pytest.approx(2.0 ** -2.5)
        # the call-style spelling was a second grammar for the same function
        with pytest.raises(DomainError, match="unknown spectral function"):
            get_spectral_function("inverse_pow(2.5)")

    def test_inverse_matches_half_reciprocal(self):
        fn = get_spectral_function("inverse")
        assert fn.fn(np.array([4.0]))[0] == pytest.approx(0.125)

    def test_unknown_function(self):
        with pytest.raises(DomainError):
            get_spectral_function("cubic")

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            get_spectral_function("exp_decay")

    @pytest.mark.parametrize("f_id", ["inverse:2", "inverse_sq:1", "inverse:"])
    def test_plain_functions_take_no_parameter(self, f_id):
        with pytest.raises(DomainError, match="takes no parameter"):
            get_spectral_function(f_id)

    # exp_decay:inf built f = 0, so schur_sum and fundamental_limit read 0
    @pytest.mark.parametrize("f_id", ["exp_decay:inf", "exp_decay:nan", "inverse_pow:inf",
                                      "inverse_pow:-inf", "exp_decay:0", "inverse_pow:-1",
                                      "exp_decay:", "inverse_pow:two"])
    def test_parameter_must_be_finite_and_positive(self, f_id):
        with pytest.raises(DomainError, match="needs a finite positive"):
            get_spectral_function(f_id)

    # x^-200 overflows on the sample grid; under error::RuntimeWarning this
    # was a RuntimeWarning rather than the DomainError
    def test_overflowing_exponent_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            get_spectral_function("inverse_pow:200")

    # f reads 0 on the grid, but -q * x overflows on the way, as it then did
    # on every evaluation; the id was accepted
    @pytest.mark.parametrize("f_id", ["exp_decay:1e308", "inverse_pow:200"])
    def test_overflow_in_the_sample_rejected(self, f_id):
        with pytest.raises(DomainError, match="not finite"):
            get_spectral_function(f_id)

    @pytest.mark.parametrize("f_id, name", [("inverse", "inverse"), ("inverse_sq", "inverse_sq"),
                                            ("inverse_pow:2.50", "inverse_pow:2.5"),
                                            ("inverse_pow:+2", "inverse_pow:2"),
                                            ("exp_decay:1e-3", "exp_decay:0.001"),
                                            ("exp_decay: 0.5", "exp_decay:0.5")])
    def test_names(self, f_id, name):
        assert get_spectral_function(f_id).name == name

    @pytest.mark.parametrize("f_id", ["inverse", "inverse_sq"] + [
        f"{name}:{q:g}" for name in ("inverse_pow", "exp_decay") for q in (0.1, 1.0, 2.5, 50.0)])
    def test_decreasing_convex_with_matching_derivative(self, f_id):
        # sampled on a log grid: f decreases, lies below its chords, and its
        # derivative matches a central difference
        fn = get_spectral_function(f_id)
        xs = np.logspace(-3.0, 3.0, 121)
        ys = fn.fn(xs)
        scale = float(np.abs(ys).max()) + 1.0
        assert np.all(np.diff(ys) <= 1e-12 * scale)
        t = (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
        assert np.all(ys[1:-1] <= (1.0 - t) * ys[:-2] + t * ys[2:] + 1e-12 * scale)
        h = 1e-6 * xs
        difference = (fn.fn(xs + h) - fn.fn(xs - h)) / (2.0 * h)
        assert np.allclose(fn.derivative(xs), difference, rtol=1e-6, atol=1e-12)


class TestFunctionMemo:
    """Each identifier is resolved and sampled once; evaluate still looks
    it up on every call."""

    def test_built_and_checked_once_per_identifier(self, monkeypatch):
        samples = []
        noun, fn, derivative = measures._SPECTRAL_FUNCTIONS["inverse_pow"]
        monkeypatch.setitem(measures._SPECTRAL_FUNCTIONS, "inverse_pow",
                            (noun, lambda x, q: (samples.append(q), fn(x, q))[1], derivative))
        get_spectral_function.cache_clear()
        try:
            first = get_spectral_function("inverse_pow:2")
            assert get_spectral_function("inverse_pow:2") is first
            assert get_spectral_function("inverse_pow:3") is not first
            assert samples == [2.0, 3.0]
        finally:
            get_spectral_function.cache_clear()

    def test_failures_are_not_memoized(self):
        before = get_spectral_function.cache_info().misses
        for _ in range(2):
            with pytest.raises(DomainError, match="not finite"):
                get_spectral_function("inverse_pow:200")
        assert get_spectral_function.cache_info().misses == before + 2

    @pytest.mark.parametrize("f_id", ["inverse_pow:2", "exp_decay:0.5", "inverse"])
    def test_evaluate_resolves_every_call(self, monkeypatch, f_id):
        descriptor = MeasureDescriptor("schur_sum", f_id=f_id)
        graph = generate("erdos_renyi", 12, seed=4, p=0.4, weight_range=(0.5, 2.0))
        lam = graph_spectrum(graph).nonzero
        name, _, param = f_id.partition(":")
        fresh = measures._SPECTRAL_FUNCTIONS[name][1]
        expected = float(np.sum(fresh(lam, float(param) if param else None)))
        calls = []
        resolve = measures.get_spectral_function
        monkeypatch.setattr(measures, "get_spectral_function",
                            lambda f_id: (calls.append(f_id), resolve(f_id))[1])
        values = [evaluate(graph, descriptor) for _ in range(3)]
        assert calls == [f_id] * 3
        assert [value.hex() for value in values] == [expected.hex()] * 3
