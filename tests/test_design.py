import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from systemic import (ConnectivityError, DomainError, InputError,
                      MeasureDescriptor, ScaleError, SolverOptions,
                      SpectralFunction, Topology, WeightedGraph, evaluate,
                      fundamental_limit, generate, graph_spectrum,
                      greedy_augment, laplacian_spectrum, optimize_weights,
                      project_simplex, register_spectral_function,
                      rewire_bruteforce)
from systemic.design import _Objective, canonical_edges
from systemic.measures import MEASURE_IDS

from helpers import MEASURE_CASES, grid_min_energy1, random_connected

ENERGY = MeasureDescriptor("energy1")

P3_TOPOLOGY = Topology(n=3, edges=((0, 1), (1, 2)))
P4_TOPOLOGY = Topology(n=4, edges=((0, 1), (1, 2), (2, 3)))
TRIANGLE = Topology(n=3, edges=((0, 1), (0, 2), (1, 2)))


class TestSimplexProjection:
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=1, max_size=12))
    def test_feasible(self, values):
        point = project_simplex(np.array(values))
        assert np.all(point >= 0.0)
        assert point.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=2, max_size=8),
           st.integers(min_value=0, max_value=10_000))
    def test_optimality_against_random_feasible_points(self, values, seed):
        v = np.array(values)
        projected = project_simplex(v)
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(20):
            z = rng.dirichlet(np.ones(v.size))
            # obtuse angle criterion of Euclidean projections
            assert float((z - projected) @ (v - projected)) <= 1e-9

    def test_fixed_point_on_simplex(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(w), w, atol=1e-15)


class TestOptimizeWeights:
    def test_p3_energy(self):
        result = optimize_weights(P3_TOPOLOGY, ENERGY)
        assert np.abs(result.weights - 0.5).max() < 1e-4
        assert result.objective == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_p4_closed_form(self):
        # crossing counts (3, 4, 3) per edge give optimum weights ~ sqrt(count)
        counts = np.array([3.0, 4.0, 3.0])
        expected_weights = np.sqrt(counts) / np.sqrt(counts).sum()
        expected_value = np.sqrt(counts).sum() ** 2 / 8.0
        result = optimize_weights(P4_TOPOLOGY, ENERGY)
        assert np.abs(result.weights - expected_weights).max() < 1e-5
        assert result.objective == pytest.approx(expected_value, rel=1e-9)

    def test_triangle_uniform(self):
        result = optimize_weights(TRIANGLE, ENERGY)
        assert np.allclose(result.weights, 1.0 / 3.0, atol=1e-12)
        assert result.objective == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("family,n", [("cycle", 5), ("complete", 4)])
    def test_edge_transitive_matches_uniform(self, family, n):
        graph = generate(family, n)
        topology = Topology.from_graph(graph)
        uniform = np.full(topology.m, 1.0 / topology.m)
        uniform_value = evaluate(topology.graph_of(uniform), ENERGY)
        result = optimize_weights(topology, ENERGY)
        assert result.objective == pytest.approx(uniform_value, abs=1e-8)

    def test_simplex_feasibility_and_value_consistency(self):
        result = optimize_weights(P4_TOPOLOGY, MeasureDescriptor("entropy"))
        assert abs(result.weights.sum() - 1.0) < 1e-12
        assert np.all(result.weights >= 0.0)
        direct = evaluate(P4_TOPOLOGY.graph_of(result.weights),
                          MeasureDescriptor("entropy"))
        assert result.objective == pytest.approx(direct, abs=1e-10)

    def test_history_monotone(self):
        result = optimize_weights(P4_TOPOLOGY, ENERGY)
        history = np.array(result.history)
        assert np.all(np.diff(history) <= 1e-15)

    def test_subgradient_convergence_time(self):
        result = optimize_weights(P3_TOPOLOGY, MeasureDescriptor("convergence_time"))
        assert result.objective == pytest.approx(2.0, abs=1e-3)
        assert np.abs(result.weights - 0.5).max() < 2e-2

    def test_grid_oracle_agreement_small(self):
        grid_value, _ = grid_min_energy1(P4_TOPOLOGY, resolution=1e-2)
        result = optimize_weights(P4_TOPOLOGY, ENERGY)
        assert result.objective <= grid_value + 1e-5

    def test_every_smooth_measure_runs(self):
        for descriptor in [MeasureDescriptor("energy2"),
                           MeasureDescriptor("h2"),
                           MeasureDescriptor("hp_norm", p=3.0),
                           MeasureDescriptor("zeta_measure", p=2.0),
                           MeasureDescriptor("local_error"),
                           MeasureDescriptor("schur_sum", f_id="exp_decay:0.5")]:
            result = optimize_weights(P4_TOPOLOGY, descriptor,
                                      SolverOptions(max_iters=300))
            assert math.isfinite(result.objective)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("descriptor", [MeasureDescriptor("zeta_measure", p=2000.0),
                                            MeasureDescriptor("hp_norm", p=2000.0)])
    def test_large_exponent_gradient_does_not_overflow(self, descriptor):
        # lambda^-2000 overflows at these weights; the gradient must take the
        # same overflow-free route as the value.  Near p = inf the optimum is
        # that of 1/lambda_2, weights (0.3, 0.4, 0.3) on P4.
        result = optimize_weights(P4_TOPOLOGY, descriptor)
        assert result.iterations > 0
        assert math.isfinite(result.stationarity_residual)
        assert np.abs(result.weights - np.array([0.3, 0.4, 0.3])).max() < 1e-3

    def test_disconnected_topology_rejected(self):
        with pytest.raises(ConnectivityError):
            Topology(n=4, edges=((0, 1), (2, 3)))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(DomainError):
            Topology(n=3, edges=((0, 1), (1, 0), (1, 2)))


class TestGradients:
    def test_cases_cover_every_measure(self):
        assert {descriptor.id for descriptor in MEASURE_CASES} == set(MEASURE_IDS)

    @pytest.mark.parametrize("descriptor", MEASURE_CASES, ids=lambda d: d.label())
    def test_gradient_matches_central_differences(self, descriptor):
        topology = Topology.from_graph(generate("erdos_renyi", 7, seed=5, p=0.6))
        rng = np.random.Generator(np.random.PCG64(11))
        weights = 0.5 / topology.m + 0.5 * rng.dirichlet(np.ones(topology.m))
        objective = _Objective(topology, descriptor)
        _, gradient = objective.value_and_gradient(weights)
        h = 1e-6
        fd = np.array([(objective.value(weights + step) - objective.value(weights - step))
                       / (2 * h) for step in h * np.eye(topology.m)])
        assert np.abs(fd - gradient).max() <= 1e-6 * np.abs(fd).max()


class TestRewire:
    def test_four_nodes_four_edges(self):
        outcome = rewire_bruteforce(4, 4, 4.0, ENERGY)
        assert len(outcome.ranking) == 2
        assert outcome.value == pytest.approx(5.0 / 8.0, rel=1e-9)
        assert outcome.ranking[1].value == pytest.approx(19.0 / 24.0, rel=1e-9)
        # best class is the 4-cycle: every node has degree 2
        degrees = np.zeros(4)
        for u, v in outcome.ranking[0].edges:
            degrees[u] += 1
            degrees[v] += 1
        assert np.all(degrees == 2)

    def test_single_class_when_forced(self):
        outcome = rewire_bruteforce(4, 5, 5.0, MeasureDescriptor("entropy"))
        assert len(outcome.ranking) == 1

    def test_canonical_form_label_invariant(self):
        base = ((0, 1), (1, 2), (2, 3), (0, 3))
        relabeled = ((2, 3), (0, 3), (0, 1), (1, 2))
        assert canonical_edges(4, base) == canonical_edges(4, relabeled)
        shuffled = tuple((3 - u, 3 - v) for u, v in base)
        shuffled = tuple((min(u, v), max(u, v)) for u, v in shuffled)
        assert canonical_edges(4, base) == canonical_edges(4, shuffled)

    def test_scale_error(self):
        with pytest.raises(ScaleError):
            rewire_bruteforce(9, 10, 1.0, ENERGY)

    def test_infeasible_edge_count(self):
        with pytest.raises(DomainError):
            rewire_bruteforce(4, 2, 1.0, ENERGY)

    def test_weight_refine_hook(self):
        calls = []

        def refine(graph, measure):
            calls.append(graph)
            return ((1.0,) * graph.m, evaluate(graph, measure))

        outcome = rewire_bruteforce(4, 4, 4.0, ENERGY, weight_refine=refine)
        assert len(calls) == len(outcome.ranking)
        assert outcome.ranking[0].refined is not None


class TestFundamentalLimit:
    def test_p3_budget_zero_is_value(self, p3):
        assert fundamental_limit(p3, 0, "inverse") == pytest.approx(2.0 / 3.0)

    def test_p3_budget_one(self, p3):
        assert fundamental_limit(p3, 1, "inverse") == pytest.approx(1.0 / 6.0)

    def test_c4_budget_two(self, c4):
        assert fundamental_limit(c4, 2, "inverse") == pytest.approx(1.0 / 8.0)

    def test_empty_tail_is_zero(self, p3):
        assert fundamental_limit(p3, 2, "inverse") == 0.0
        assert fundamental_limit(p3, 7, "inverse") == 0.0

    def test_negative_budget(self, p3):
        with pytest.raises(DomainError):
            fundamental_limit(p3, -1, "inverse")

    def test_requires_vanishing_function(self, p3):
        register_spectral_function(
            "shifted_inverse",
            lambda param: SpectralFunction("shifted_inverse",
                                           lambda x: 1.0 + 1.0 / x,
                                           lambda x: -1.0 / x**2, False))
        with pytest.raises(DomainError, match="inf"):
            fundamental_limit(p3, 1, "shifted_inverse")


class TestGreedyAugment:
    def test_p3_weight_sweep(self, p3):
        for weight in np.logspace(-2, 3, 12):
            report = greedy_augment(p3, 1, [(0, 2, float(weight))], "inverse")
            assert report.bound == pytest.approx(1.0 / 6.0)
            assert report.achieved >= report.bound - 1e-9
            assert report.gap >= -1e-9

    def test_k3_any_single_edge(self, k3):
        for weight in np.logspace(-2, 3, 8):
            report = greedy_augment(k3, 1, [(0, 1, float(weight))], "inverse")
            # candidate duplicates an existing edge, so nothing is added
            assert report.added == ()
            assert report.achieved >= report.bound - 1e-9

    def test_bound_zero_for_large_budget(self, p3):
        report = greedy_augment(p3, 3, [(0, 2, 1.0)], "inverse")
        assert report.bound == 0.0
        assert report.achieved >= 0.0

    def test_duplicate_candidates_skipped(self, p3):
        report = greedy_augment(p3, 2, [(0, 1, 5.0), (0, 2, 1.0)], "inverse")
        assert report.added == ((0, 2, 1.0),)

    def test_empty_candidates(self, p3):
        with pytest.raises(InputError):
            greedy_augment(p3, 1, [], "inverse")

    def test_greedy_picks_best_single(self, p3):
        report = greedy_augment(p3, 1, [(0, 2, 0.01), (0, 2, 10.0)], "inverse")
        assert report.added == ((0, 2, 10.0),)

    def test_exhaustive_not_worse(self):
        graph = generate("cycle", 6)
        pairs = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)]
        existing = {(u, v) for u, v, _ in graph.edges}
        rng = np.random.Generator(np.random.PCG64(1))
        missing = [p for p in pairs if p not in existing]
        candidates = [(u, v, float(rng.uniform(0.5, 4.0))) for u, v in missing[:6]]
        greedy = greedy_augment(graph, 2, candidates, "inverse")
        exhaustive = greedy_augment(graph, 2, candidates, "inverse", mode="exhaustive")
        assert len(exhaustive.added) == 2
        assert exhaustive.achieved <= greedy.achieved + 1e-12

    def test_exhaustive_budget(self, p3):
        candidates = [(0, 2, float(w)) for w in range(1, 200)]
        with pytest.raises(ScaleError):
            greedy_augment(p3, 3, candidates, "inverse", mode="exhaustive")


class TestInterlacingUnderAugmentation:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_k_shift(self, seed):
        graph = random_connected(4100 + seed, n_low=5, n_high=10)
        rng = np.random.Generator(np.random.PCG64(seed))
        pairs = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)]
        existing = {(u, v) for u, v, _ in graph.edges}
        missing = [p for p in pairs if p not in existing]
        if not missing:
            pytest.skip("complete graph drawn")
        k = int(rng.integers(1, min(3, len(missing)) + 1))
        chosen = [missing[i] for i in rng.choice(len(missing), size=k, replace=False)]
        new_edges = graph.edges + tuple(
            (u, v, float(rng.uniform(0.1, 10.0))) for u, v in chosen)
        bigger = WeightedGraph(n=graph.n, edges=new_edges)
        old = graph_spectrum(graph).eigenvalues
        new = laplacian_spectrum(bigger).eigenvalues
        for i in range(graph.n - k):
            assert new[i] <= old[i + k] + 1e-9
