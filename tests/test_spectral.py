import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from systemic import (ConnectivityError, DimensionError, DomainError,
                      NumericalError, WeightedGraph, centering_matrix, eig_sym,
                      generate, graph_add, laplacian, laplacian_spectrum,
                      pseudo_inverse, psd_order, scalar_mul, zero_tolerance)

from helpers import random_connected


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

    def test_k3_eigenvalues(self, k3):
        # characteristic polynomial of the unit triangle: lambda (lambda - 3)^2
        spectrum = eig_sym(laplacian(k3).matrix)
        assert np.allclose(spectrum.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)

    def test_p3_eigenvalues(self, p3):
        # roots of lambda (lambda - 1) (lambda - 3)
        spectrum = eig_sym(laplacian(p3).matrix)
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

    def test_sign_convention_deterministic(self):
        matrix = _random_symmetric(10, 9)
        first = eig_sym(matrix)
        second = eig_sym(matrix.copy())
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for column in first.eigenvectors.T:
            leading = column[np.nonzero(column)[0][0]]
            assert leading > 0

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
            spectrum = laplacian_spectrum(random_connected(400 + seed))
            tol = zero_tolerance(spectrum.eigenvalues)
            assert int(np.sum(spectrum.eigenvalues <= tol)) == 1

    def test_disconnected_rejected(self):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityError):
            laplacian_spectrum(graph)

    def test_edgeless_graph_is_disconnected(self):
        # all eigenvalues are zero, so the relative zero tolerance is zero too
        with pytest.raises(ConnectivityError):
            laplacian_spectrum(WeightedGraph.from_edges(3, []))


class TestPseudoInverse:
    def test_k3_closed_form(self, k3):
        expected = (3.0 * np.eye(3) - np.ones((3, 3))) / 9.0
        result = pseudo_inverse(k3)
        assert np.abs(result - expected).max() < 1e-12
        assert np.trace(result) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_moore_penrose_identities(self, seed):
        graph = random_connected(seed, n_low=3, n_high=50)
        matrix = laplacian(graph).matrix
        dagger = pseudo_inverse(graph)
        scale = max(1.0, float(np.abs(matrix).max()))
        assert np.abs(matrix @ dagger @ matrix - matrix).max() < 1e-9 * scale
        assert np.abs(dagger @ matrix @ dagger - dagger).max() < 1e-9
        assert np.abs((matrix @ dagger).T - matrix @ dagger).max() < 1e-9
        assert np.abs((dagger @ matrix).T - dagger @ matrix).max() < 1e-9

    def test_doubly_centered(self):
        dagger = pseudo_inverse(random_connected(11))
        ones = np.ones(dagger.shape[0])
        assert np.abs(dagger @ ones).max() < 1e-10
        assert np.abs(dagger - dagger.T).max() == 0.0

    def test_projection_identity(self, k3):
        # L Ldagger equals the centering projector for a connected graph
        matrix = laplacian(k3).matrix
        product = matrix @ pseudo_inverse(k3)
        assert np.abs(product - centering_matrix(3)).max() < 1e-12

    def test_disconnected_rejected(self):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ConnectivityError):
            pseudo_inverse(graph)


class TestPsdOrder:
    def test_reflexive(self):
        matrix = _random_symmetric(1, 5)
        assert psd_order(matrix, matrix, tol=1e-12)

    def test_identity_vs_zero(self):
        assert not psd_order(np.eye(3), np.zeros((3, 3)), tol=1e-12)
        assert psd_order(np.zeros((3, 3)), np.eye(3), tol=1e-12)

    def test_heavier_graph_smaller_inverse(self, k3):
        heavy = pseudo_inverse(scalar_mul(2.0, k3))
        assert psd_order(heavy, pseudo_inverse(k3), tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            psd_order(np.eye(2), np.eye(3))


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
