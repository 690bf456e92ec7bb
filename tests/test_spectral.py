import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from systemic import (ConnectivityError, DimensionError, DomainError, MeasureDescriptor,
                      NumericalError, WeightedGraph, eig_sym, evaluate,
                      evaluate_eigenvalues, generate, graph_add, graph_spectrum,
                      is_connected, is_spectral, laplacian, laplacian_spectrum,
                      scalar_mul, spectral)

from helpers import MEASURE_CASES, random_connected


def bridged_path(bridge: float) -> WeightedGraph:
    return WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, bridge), (2, 3, 1.0)])


def _random_symmetric(seed: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(n, n))
    return a + a.T


class TestEigSym:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_matches_lapack(self, n):
        for seed in range(3):
            matrix = _random_symmetric(1000 * n + seed, n)
            spectrum = eig_sym(matrix)
            reference = np.linalg.eigvalsh(matrix)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.abs(spectrum.eigenvalues - reference).max() < 1e-12 * scale

    def test_complex_refused(self):
        # the cast kept the real part: [[2, 1j], [-1j, 2]], eigenvalues 1 and 3,
        # came out as 2 and 2 with only a ComplexWarning
        for matrix in (np.array([[2, 1j], [-1j, 2]]), [[2, 1j], [-1j, 2]],
                       np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex)):
            with pytest.raises(DomainError, match="complex"):
                eig_sym(matrix)

    @pytest.mark.parametrize("matrix", ["abc", [["a", "b"], ["c", "d"]], [[1, 2], [3]],
                                        np.array([[1j, 1], [1, 0]], dtype=object)])
    def test_not_a_float_matrix_refused(self, matrix):
        # a bare ValueError or TypeError from the float cast
        with pytest.raises(DomainError, match="does not convert to float"):
            eig_sym(matrix)

    def test_k3_eigenvalues(self, k3):
        # characteristic polynomial of the unit triangle: lambda (lambda - 3)^2
        spectrum = eig_sym(laplacian(k3))
        assert np.allclose(spectrum.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)

    def test_p3_eigenvalues(self, p3):
        # roots of lambda (lambda - 1) (lambda - 3)
        spectrum = eig_sym(laplacian(p3))
        assert np.allclose(spectrum.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_zero_matrix(self):
        spectrum = eig_sym(np.zeros((4, 4)))
        assert np.array_equal(spectrum.eigenvalues, np.zeros(4))
        assert np.array_equal(spectrum.eigenvectors, np.eye(4))

    def test_empty_matrix(self):
        spectrum = eig_sym(np.zeros((0, 0)))
        assert spectrum.eigenvalues.shape == (0,)
        assert spectrum.eigenvectors.shape == (0, 0)

    def test_ascending_and_orthonormal(self):
        matrix = _random_symmetric(7, 16)
        spectrum = eig_sym(matrix)
        assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)
        gram = spectrum.eigenvectors.T @ spectrum.eigenvectors
        assert np.abs(gram - np.eye(16)).max() < 1e-10

    def test_reconstruction(self):
        matrix = _random_symmetric(8, 12)
        spectrum = eig_sym(matrix)
        rebuilt = (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T
        assert np.abs(rebuilt - matrix).max() < 1e-11 * max(1.0, np.abs(matrix).max())

    def test_trace_consistency(self):
        matrix = _random_symmetric(9, 15)
        spectrum = eig_sym(matrix)
        trace = float(np.trace(matrix))
        assert abs(spectrum.eigenvalues.sum() - trace) <= 1e-9 * abs(trace)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_repeated_solves_are_bit_identical(self, vectors):
        matrix = _random_symmetric(10, 9)
        first = eig_sym(matrix, vectors=vectors)
        second = eig_sym(matrix.copy(), vectors=vectors)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.error_bound == second.error_bound
        if vectors:
            assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(DomainError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            eig_sym(np.zeros((2, 3)))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_residual_bound_random(self, seed):
        n = 3 + seed % 10
        matrix = _random_symmetric(seed, n)
        spectrum = eig_sym(matrix)
        scale = max(1.0, float(np.abs(spectrum.eigenvalues).max()))
        assert spectrum.residual < 1e-9 * scale


class TestEigSymContract:
    """The gates around LAPACK: each bad result must become NumericalError."""

    @staticmethod
    def _patch_eigh(monkeypatch, corrupt):
        real = np.linalg.eigh

        def fake(a):
            values, vectors = real(a)
            return corrupt(values.copy(), vectors.copy())

        monkeypatch.setattr(np.linalg, "eigh", fake)

    def test_non_orthonormal_vectors_rejected(self, monkeypatch):
        def skew(values, vectors):
            vectors[:, 0] *= 1.0 + 1e-6
            return values, vectors
        self._patch_eigh(monkeypatch, skew)
        with pytest.raises(NumericalError, match="orthonormality"):
            eig_sym(_random_symmetric(3, 6))

    def test_perturbed_eigenvalues_rejected(self, monkeypatch):
        def shift(values, vectors):
            values[-1] += 1e-6
            return values, vectors
        self._patch_eigh(monkeypatch, shift)
        with pytest.raises(NumericalError, match="residual"):
            eig_sym(_random_symmetric(4, 6))

    @pytest.mark.parametrize("target", ["values", "vectors"])
    def test_nan_result_rejected(self, monkeypatch, target):
        def poison(values, vectors):
            if target == "values":
                values[2] = np.nan
            else:
                vectors[1, 1] = np.nan
            return values, vectors
        self._patch_eigh(monkeypatch, poison)
        with pytest.raises(NumericalError):
            eig_sym(_random_symmetric(5, 6))

    def test_lapack_failure_becomes_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(_random_symmetric(6, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            eig_sym(np.array([[1.0, bad], [bad, 1.0]]))
        diagonal = np.eye(3)
        diagonal[1, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            eig_sym(diagonal)


class TestLaplacianSpectrum:
    def test_zero_snap_exact(self):
        spectrum = laplacian_spectrum(random_connected(3))
        assert spectrum.eigenvalues[0] == 0.0

    def test_single_zero_mode(self):
        for seed in range(5):
            graph = random_connected(400 + seed)
            spectrum = laplacian_spectrum(graph)
            assert int(np.sum(spectrum.eigenvalues <= spectrum.error_bound)) == 1

    def test_disconnected_rejected(self):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityError):
            laplacian_spectrum(graph)

    def test_edgeless_graph_is_disconnected(self):
        # the stored flag says disconnected, before any eigensolve
        with pytest.raises(ConnectivityError):
            laplacian_spectrum(WeightedGraph.from_edges(3, []))

    @pytest.mark.parametrize("operand", [np.float64(1.0), np.zeros(3)])
    def test_non_matrix_operand(self, operand):
        # a 0-d operand raised a bare IndexError, and any array was solved
        with pytest.raises(DomainError, match="use eig_sym for a raw matrix"):
            laplacian_spectrum(operand)

    @pytest.mark.parametrize("route", [laplacian_spectrum])
    def test_raw_laplacian_refused(self, route):
        # a raw matrix was judged by eigenvalue thresholds, a graph by its flag
        matrix = laplacian(random_connected(5))
        with pytest.raises(DomainError, match="takes a WeightedGraph, not ndarray; "
                                              "use eig_sym for a raw matrix"):
            route(matrix)


class TestGraphConnectivity:
    """A graph's connectivity is its stored flag; the eigensolve only has to
    resolve the zero and second eigenvalues."""

    def test_weak_bridge_every_measure_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        weights = (1.0, 1e-9, 1.0)
        graph = bridged_path(weights[1])
        with mpmath.workdps(60):
            exact = mpmath.zeros(4, 4)
            for u, w in enumerate(map(mpmath.mpf, weights)):
                exact[u, u] += w
                exact[u + 1, u + 1] += w
                exact[u, u + 1] -= w
                exact[u + 1, u] -= w
            reference = np.array([float(x) for x in
                                  sorted(mpmath.eigsy(exact, eigvals_only=True))[1:]])
        assert graph_spectrum(graph).nonzero == pytest.approx(reference, rel=1e-6)
        for descriptor in MEASURE_CASES:
            if is_spectral(descriptor):
                assert evaluate(graph, descriptor) == pytest.approx(
                    evaluate_eigenvalues(reference, descriptor), rel=1e-6), descriptor

    @pytest.mark.parametrize("vectors", [True, False])
    def test_unresolved_bridge_is_a_numerical_error(self, vectors):
        # lambda_2 is about 5e-21, far below the solve's error bound
        graph = bridged_path(1e-20)
        assert is_connected(graph)
        with pytest.raises(NumericalError, match="not resolved"):
            laplacian_spectrum(graph, vectors=vectors)
        with pytest.raises(NumericalError):
            evaluate(graph, MeasureDescriptor("energy1"))

    def test_raw_matrix_resolves_a_weak_bridge(self):
        # eig_sym on the raw Laplacian resolves the 1e-9 bridge above its
        # error bound and agrees with the graph's spectrum bit for bit
        graph = bridged_path(1e-9)
        matrix = laplacian(graph)
        for vectors in (True, False):
            raw = eig_sym(matrix, vectors=vectors)
            assert raw.eigenvalues[1] > raw.error_bound
            assert (raw.eigenvalues[1:].tobytes()
                    == laplacian_spectrum(graph, vectors=vectors).nonzero.tobytes())

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("graph", [
        bridged_path(1e-20),
        # lambda_2 is about 1e-14: positive, but within the bound of about 2e-14
        bridged_path(1e-14),
        WeightedGraph.from_edges(6, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0),
                                     (3, 4, 1.0), (3, 5, 1.0), (4, 5, 3.0)]),
    ], ids=["unresolved-bridge", "bridge-within-bound", "two-blocks"])
    def test_raw_matrix_with_unresolved_second_eigenvalue_is_disconnected(
            self, graph, vectors):
        # eig_sym cannot tell these lambda_2 from zero, which is the weight
        # allocator's rule for a cut (test_design, TestAllocatorConnectivity)
        spectrum = eig_sym(laplacian(graph), vectors=vectors)
        assert not spectrum.eigenvalues[1] > spectrum.error_bound

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("shift", [1e-6, 1e-12])  # the bound is about 2e-14
    def test_raw_matrix_without_a_zero_mode_rejected(self, shift, vectors):
        # the error bound tells a shifted smallest eigenvalue from a zero mode
        matrix = laplacian(bridged_path(1.0)) + shift * np.eye(4)
        spectrum = eig_sym(matrix, vectors=vectors)
        assert spectrum.eigenvalues[0] > spectrum.error_bound

    def test_disconnected_graph_runs_no_eigensolve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigensolve on a disconnected graph")
        monkeypatch.setattr(spectral, "eig_sym", fail)
        with pytest.raises(ConnectivityError, match="disconnected"):
            laplacian_spectrum(WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_bound_holds_on_families(self, scale):
        # no false alarm: every family's zero sits within the bound and its
        # second eigenvalue far above it, at extreme weight scales too
        for family in ("complete", "cycle", "path", "star", "erdos_renyi"):
            graph = scalar_mul(scale, generate(family, 200, seed=3, p=0.05))
            spectrum = laplacian_spectrum(graph, vectors=False)
            lam = spectrum.eigenvalues
            assert lam[0] == 0.0 and lam[1] > 100 * spectrum.error_bound


class TestErrorBound:
    """Every spectrum carries delta = 8 n eps ||A||_F of its solve."""

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("raw", [False, True], ids=["graph", "raw-matrix"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_frobenius_formula(self, seed, raw, vectors):
        graph = random_connected(700 + seed, weight_range=(1e-3, 1e3))
        matrix = laplacian(graph)
        spectrum = (eig_sym(matrix, vectors=vectors) if raw
                    else laplacian_spectrum(graph, vectors=vectors))
        expected = 8.0 * graph.n * np.finfo(float).eps * np.linalg.norm(matrix)
        assert spectrum.error_bound == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("family", ["complete", "path", "erdos_renyi"])
    def test_graph_and_raw_laplacian_give_the_same_bits(self, family, vectors):
        graph = generate(family, 30, seed=2, p=0.2, weight_range=(0.5, 2.0))
        # laplacian_spectrum is eig_sym on the graph's Laplacian, the zero mode snapped
        from_graph = laplacian_spectrum(graph, vectors=vectors)
        from_matrix = eig_sym(laplacian(graph), vectors=vectors)
        assert from_graph.error_bound.hex() == from_matrix.error_bound.hex()
        assert from_graph.nonzero.tobytes() == from_matrix.eigenvalues[1:].tobytes()
        assert abs(from_matrix.eigenvalues[0]) <= from_matrix.error_bound


    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_bits_of_the_plain_sum(self, scale, vectors):
        # the sum of squares is taken for A / 2^k; where the plain sum is
        # representable, delta has its bits
        graph = scalar_mul(scale, random_connected(710, weight_range=(1e-3, 1e3)))
        matrix = laplacian(graph)
        plain = 8.0 * graph.n * np.finfo(float).eps * math.sqrt(float(np.square(matrix).sum()))
        assert laplacian_spectrum(graph, vectors=vectors).error_bound.hex() == plain.hex()

    # the squares overflowed above about 1e154 and underflowed below 1e-154
    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e-160, 1e-170])
    @pytest.mark.parametrize("family, n", [("path", 4), ("complete", 5)])
    def test_extreme_scales(self, family, n, scale, vectors):
        unit = generate(family, n)
        graph = scalar_mul(scale, unit)
        spectrum = laplacian_spectrum(graph, vectors=vectors)
        reference = laplacian_spectrum(unit, vectors=vectors)
        error = np.abs(spectrum.eigenvalues - scale * reference.eigenvalues).max()
        assert error <= 1e-13 * scale * reference.eigenvalues[-1]
        assert spectrum.error_bound == pytest.approx(scale * reference.error_bound, rel=1e-13)
        for measure_id in ("hinf", "energy1"):  # both scale as 1/scale
            descriptor = MeasureDescriptor(measure_id)
            assert evaluate(graph, descriptor) == pytest.approx(
                evaluate(unit, descriptor) / scale, rel=1e-12)


class TestInterlacing:
    @pytest.mark.parametrize("seed", range(10))
    def test_rank_one_edge_addition(self, seed):
        graph = random_connected(700 + seed, n_low=4, n_high=12)
        rng = np.random.Generator(np.random.PCG64(seed))
        pairs = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)]
        missing = [p for p in pairs if p not in {(u, v) for u, v, _ in graph.edges}]
        if not missing:
            pytest.skip("complete graph drawn")
        u, v = missing[int(rng.integers(len(missing)))]
        bigger = graph_add(graph, WeightedGraph.from_edges(
            graph.n, [(u, v, float(rng.uniform(0.1, 5.0)))]))
        old = laplacian_spectrum(graph).eigenvalues
        new = laplacian_spectrum(bigger).eigenvalues
        assert np.all(new >= old - 1e-9)
        assert np.all(new[:-1] <= old[1:] + 1e-9)


CATALOG_FAMILIES = ("complete", "cycle", "path", "star", "erdos_renyi")


def _family_graph(family: str, n: int) -> WeightedGraph:
    if family == "erdos_renyi":
        return generate(family, n, seed=n, p=min(1.0, 8.0 / n), weight_range=(0.5, 2.0))
    return generate(family, n)


class TestValuesOnlyContract:
    """eig_sym(..., vectors=False): the moment gate around np.linalg.eigvalsh."""

    @staticmethod
    def _patch_eigvalsh(monkeypatch, corrupt):
        real = np.linalg.eigvalsh

        def fake(a):
            return corrupt(real(a).copy())

        monkeypatch.setattr(np.linalg, "eigvalsh", fake)

    def _corrupt_raises(self, monkeypatch, corrupt, match):
        self._patch_eigvalsh(monkeypatch, corrupt)
        graph = generate("erdos_renyi", 8, seed=3, p=0.5)
        with pytest.raises(NumericalError, match=match):
            eig_sym(laplacian(graph), vectors=False)
        with pytest.raises(NumericalError, match=match):
            laplacian_spectrum(graph, vectors=False)

    def test_shifted_top_value_rejected(self, monkeypatch):
        def shift(values):
            values[-1] += 1e-6
            return values
        self._corrupt_raises(monkeypatch, shift, "trace")

    def test_compensating_pair_rejected(self, monkeypatch):
        # the trace holds; the sum of squares moves by about 2e-6 (lam_max - lam_2)
        def pair(values):
            values[-1] += 1e-6
            values[1] -= 1e-6
            return values
        self._corrupt_raises(monkeypatch, pair, "Frobenius")

    def test_nan_rejected(self, monkeypatch):
        def poison(values):
            values[3] = np.nan
            return values
        self._corrupt_raises(monkeypatch, poison, "finite")

    def test_unsorted_rejected(self, monkeypatch):
        self._corrupt_raises(monkeypatch, lambda values: values[::-1].copy(), "ascending")

    def test_lapack_failure_becomes_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            eig_sym(_random_symmetric(6, 4), vectors=False)

    def test_same_input_contract(self):
        with pytest.raises(DimensionError):
            eig_sym(np.zeros((2, 3)), vectors=False)
        with pytest.raises(DomainError, match="non-finite"):
            eig_sym(np.array([[1.0, np.nan], [np.nan, 1.0]]), vectors=False)
        with pytest.raises(DomainError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]), vectors=False)

    def test_no_vectors_and_no_residual(self):
        spectrum = eig_sym(_random_symmetric(2, 5), vectors=False)
        assert spectrum.eigenvectors is None and spectrum.residual is None
        assert not spectrum.eigenvalues.flags.writeable

    def test_zero_and_empty_matrices(self):
        assert np.array_equal(eig_sym(np.zeros((4, 4)), vectors=False).eigenvalues,
                              np.zeros(4))
        assert eig_sym(np.zeros((0, 0)), vectors=False).eigenvalues.shape == (0,)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_no_false_alarm_on_k1000(self, scale):
        matrix = scale * laplacian(generate("complete", 1000))
        values = eig_sym(matrix, vectors=False).eigenvalues
        assert np.abs(values[1:] - 1000.0 * scale).max() <= 1e-12 * 1000.0 * scale

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    @pytest.mark.parametrize("family", CATALOG_FAMILIES)
    def test_no_false_alarm_on_scaled_weights(self, family, scale):
        graph = scalar_mul(scale, _family_graph(family, 200))
        laplacian_spectrum(graph, vectors=False)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200, 400])
    def test_no_false_alarm_on_random_symmetric(self, n):
        for seed in range(3):
            eig_sym(_random_symmetric(5000 + 10 * n + seed, n), vectors=False)

    @pytest.mark.parametrize("n", [3, 10, 200])
    @pytest.mark.parametrize("family", CATALOG_FAMILIES)
    def test_agrees_with_full_mode(self, family, n):
        graph = _family_graph(family, n)
        full = laplacian_spectrum(graph).eigenvalues
        values = laplacian_spectrum(graph, vectors=False).eigenvalues
        assert values[0] == 0.0
        assert np.abs(values - full).max() <= 1e-12 * full[-1]

    def test_graph_spectrum_holds_no_vectors(self):
        graph = random_connected(12)
        spectrum = graph_spectrum(graph)
        assert spectrum.eigenvectors is None
        assert np.array_equal(spectrum.eigenvalues,
                              laplacian_spectrum(graph, vectors=False).eigenvalues)


class TestScratchMemory:
    """eig_sym reads its input in place and works in one n x n scratch matrix."""

    @pytest.mark.parametrize("vectors, most", [(False, 1.5), (True, 4.0)])
    def test_traced_peak(self, vectors, most):
        # a copy of the input, |A - A^T|, 0.5 (A + A^T), the scaled matrix and
        # its squares used to peak at 4.0 n^2 doubles values-only, and the
        # gate products at 6.05 n^2 in the full mode
        matrix = laplacian(generate("cycle", 400))
        eig_sym(matrix, vectors=vectors)
        tracemalloc.start()
        try:
            eig_sym(matrix, vectors=vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= most * matrix.nbytes

    @pytest.mark.parametrize("vectors", [False, True])
    def test_input_unwritten(self, vectors):
        matrix = laplacian(_family_graph("erdos_renyi", 30)).copy()
        before = matrix.tobytes()
        matrix.setflags(write=False)  # a write into the input would raise
        eig_sym(matrix, vectors=vectors)
        assert matrix.tobytes() == before

    @pytest.mark.parametrize("vectors", [False, True])
    def test_asymmetric_input_gives_the_symmetrized_bits(self, vectors):
        matrix = laplacian(_family_graph("erdos_renyi", 30)) \
            + 1e-13 * np.random.default_rng(3).standard_normal((30, 30))
        got = eig_sym(matrix, vectors=vectors)
        want = eig_sym(0.5 * (matrix + matrix.T), vectors=vectors)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.error_bound == want.error_bound
        if vectors:
            assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
