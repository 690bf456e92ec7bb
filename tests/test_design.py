import copy
import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from systemic import (ConnectivityError, DomainError, GraphFormatError, InputError,
                      MeasureDescriptor, NumericalError, ScaleError, SolverOptions,
                      Topology, WeightedGraph, evaluate, fundamental_limit, generate,
                      graph_spectrum, graphs, greedy_augment, is_connected, laplacian,
                      laplacian_spectrum, optimize_weights, project_simplex,
                      rewire_bruteforce)
from systemic import design, measures
from systemic.design import _Objective, _check_relabelings, canonical_edges
from systemic.measures import MEASURE_IDS

from helpers import (MEASURE_CASES, count_edge_reads, grid_min_energy1,
                     grid_min_inverse_lambda2, loop_topology_laplacian, random_connected)

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
    # each gap was converged at iteration 0 and reported below zero by
    # rounding (-1.1e-16, -4.4e-16, -8.9e-16), where it bounds objective - optimum
    @pytest.mark.parametrize("topology, measure", [
        (Topology(2, ((0, 1),)), "hinf"), (Topology(3, ((0, 1), (1, 2))), "hinf"),
        (Topology.from_graph(generate("cycle", 5)), "local_error")], ids=["p2", "p3", "c5"])
    def test_gap_is_never_negative(self, topology, measure):
        result = optimize_weights(topology, MeasureDescriptor(measure))
        assert (result.gap, result.termination, result.iterations) == (0.0, "converged", 0)

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

    def test_convergence_time_is_certified(self):
        result = optimize_weights(P3_TOPOLOGY, MeasureDescriptor("convergence_time"))
        assert result.termination == "converged"
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

    @pytest.mark.parametrize("descriptor", [MeasureDescriptor("energy1"),
                                            MeasureDescriptor("hinf"),
                                            MeasureDescriptor("local_error")],
                             ids=lambda d: d.label())
    def test_edgeless_topology_rejected(self, descriptor):
        # one node, no edges: there is no simplex of weights to search
        topology = Topology(n=1, edges=())
        with pytest.raises(DomainError, match="no edges"):
            optimize_weights(topology, descriptor)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphFormatError, match=r"^duplicate edge \(0, 1\)$"):
            Topology(n=3, edges=((0, 1), (1, 0), (1, 2)))

    @pytest.mark.parametrize("edges", [((0, 1), (1, 2), (2, 3, 7)),
                                       ((0, 1, 2), (3,)),
                                       ((0, 1), 2)])
    def test_edges_that_are_not_pairs_rejected(self, edges):
        # reading the first 2m flattened endpoints would drop the 7 and pair up (0, 1, 2), (3,)
        with pytest.raises(GraphFormatError, match=r"\(u, v\) pairs"):
            Topology(n=4, edges=edges)

    @pytest.mark.parametrize("edges, kind, message", [
        (((2, 2), (0, 1), (1, 0)), GraphFormatError, "self-loop at node 2"),
        (((0, 1), (1, 0), (2, 2)), GraphFormatError, "duplicate edge (0, 1)"),
        (((1, 0), (0, 3), (1, 2), (0, 1)), GraphFormatError, "edge (0, 3) needs 0 <= u < v < 3"),
    ])
    def test_first_defective_pair_in_input_order(self, edges, kind, message):
        # as the graph constructors do: the pairs are checked in input order
        with pytest.raises(kind) as excinfo:
            Topology(n=3, edges=edges)
        assert type(excinfo.value) is kind and str(excinfo.value) == message

    def test_from_graph_takes_the_checked_arrays(self, monkeypatch):
        graph = generate("erdos_renyi", 15, seed=2, p=0.3, weight_range=(0.5, 2.0))

        def fail(*args, **kwargs):
            raise AssertionError("the graph's edges checked again")
        monkeypatch.setattr(graphs, "_check_edges", fail)
        topology = Topology.from_graph(graph)
        monkeypatch.undo()
        assert topology == Topology(n=graph.n, edges=topology.edges)
        assert (topology._pairs.tobytes()
                == Topology(n=graph.n, edges=topology.edges)._pairs.tobytes())
        with pytest.raises(ConnectivityError, match="disconnected under positive weights"):
            Topology.from_graph(WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]))


# Erdos-Renyi topologies on 12 to 60 nodes, and every smooth catalog measure
ER_TOPOLOGIES = {
    "er30_s4": dict(n=30, seed=4, p=0.2),
    "er12_s5": dict(n=12, seed=5, p=0.4),
    "er12_s7": dict(n=12, seed=7, p=0.4),
    "er60_s1": dict(n=60, seed=1, p=0.1, weight_range=(0.5, 2.0)),
}
SMOOTH_CASES = [MeasureDescriptor("zeta_measure", p=2.0), MeasureDescriptor("hp_norm", p=3.0),
                MeasureDescriptor("h2"), ENERGY, MeasureDescriptor("energy2"),
                MeasureDescriptor("local_error"), MeasureDescriptor("entropy"),
                MeasureDescriptor("schur_sum", f_id="inverse_pow:2"),
                MeasureDescriptor("schur_sum", f_id="exp_decay:0.5")]


def er_topology(name: str) -> Topology:
    params = dict(ER_TOPOLOGIES[name])
    return Topology.from_graph(generate("erdos_renyi", params.pop("n"), **params))


def two_solve_iterates(topology: Topology, measure: MeasureDescriptor,
                       options: SolverOptions) -> tuple[list[tuple[np.ndarray, float]], bool]:
    """The projected-gradient iterates as the solver made them before its gap
    certificate: each accepted point is solved again for its gradient, and the
    run stops once the stationarity residual is at most tol.  Returns the
    (weights, value) iterates from the uniform start, and whether the line
    search stalled after the last one, where that solver raised or stopped
    through its sqrt(tol) escape."""
    objective = _Objective(topology, measure)
    weights = np.full(topology.m, 1.0 / topology.m)
    value, gradient = objective.value_and_gradient(weights)
    iterates = [(weights, value)]
    step = design.STEP_INIT
    while len(iterates) <= options.max_iters:
        supported = gradient[weights > design.SUPPORT_TOL]
        if np.abs(supported - supported.mean()).max() <= options.tol:
            break
        t = step
        for _ in range(design.MAX_BACKTRACKS):
            candidate = project_simplex(weights - t * gradient)
            move = candidate - weights
            move_norm2 = float(move @ move)
            if move_norm2 == 0.0:
                return iterates, True
            try:
                candidate_value = objective.value_and_gradient(candidate)[0]
            except ConnectivityError:
                t *= 0.5
                continue
            if candidate_value <= value - (design.ARMIJO / t) * move_norm2:
                break
            t *= 0.5
        else:
            return iterates, True
        weights, step = candidate, 2.0 * t
        value, gradient = objective.value_and_gradient(weights)
        iterates.append((weights, value))
    return iterates, False


def every_candidate_solve(topology: Topology, measure: MeasureDescriptor,
                          options: SolverOptions) -> tuple[design.WeightAllocationResult, int]:
    """The projected-gradient loop as it was before it skipped repeated trial
    points: every line-search candidate is solved, also one equal to the
    candidate just rejected.  Returns its result and the number of
    candidates that repeat the one before them in the same line search."""
    objective = _Objective(topology, measure)
    weights = np.full(topology.m, 1.0 / topology.m)
    value, gradient = objective.value_and_gradient(weights)
    history, step, iterations, repeats = [value], design.STEP_INIT, 0, 0
    while (iterations < options.max_iters
           and not design._certified(weights, value, gradient, options.tol)):
        accepted = previous = None
        t = step
        for _ in range(design.MAX_BACKTRACKS):
            candidate = project_simplex(weights - t * gradient)
            move = candidate - weights
            move_norm2 = float(move @ move)
            if move_norm2 == 0.0:
                break
            repeats += previous is not None and np.array_equal(candidate, previous)
            previous = candidate
            try:
                evaluated = objective.value_and_gradient(candidate)
            except ConnectivityError:
                t *= 0.5
                continue
            if evaluated[0] <= value - (design.ARMIJO / t) * move_norm2:
                accepted = evaluated
                break
            t *= 0.5
        if accepted is None:
            return design._allocation_result(weights, value, gradient, iterations, history,
                                             options.tol, stalled=True), repeats
        weights, (value, gradient) = candidate, accepted
        step = 2.0 * t
        iterations += 1
        history.append(value)
    return design._allocation_result(weights, value, gradient, iterations, history,
                                     options.tol), repeats


class TestRepeatedTrialPoints:
    """A line-search candidate equal to the one just rejected is not solved again."""

    @pytest.mark.parametrize("descriptor", SMOOTH_CASES, ids=lambda d: d.label())
    def test_same_result_with_fewer_solves_by_the_repeats(self, monkeypatch, descriptor):
        solves = [0]
        eig_sym = design.eig_sym

        def counting_eig_sym(matrix, **kwargs):
            solves[0] += 1
            return eig_sym(matrix, **kwargs)
        monkeypatch.setattr(design, "eig_sym", counting_eig_sym)
        topology, options = er_topology("er30_s4"), SolverOptions()
        result = optimize_weights(topology, descriptor, options)
        skipping_solves, solves[0] = solves[0], 0
        reference, repeats = every_candidate_solve(topology, descriptor, options)
        assert result.weights.tobytes() == reference.weights.tobytes()
        assert result.objective == reference.objective
        assert result.history == reference.history
        assert (result.iterations, result.termination) == (reference.iterations,
                                                           reference.termination)
        if descriptor.id != "local_error":
            assert solves[0] - skipping_solves == repeats
        if descriptor.id in ("energy1", "energy2", "h2"):
            # 48 of 171, 15 of 273 and 7 of 128 solves on one x86-64 host
            assert repeats > 0


class TestCertificate:
    """One objective call per trial point, and one stop: the Frank-Wolfe gap."""

    @pytest.mark.parametrize("topology", list(ER_TOPOLOGIES))
    @pytest.mark.parametrize("descriptor", SMOOTH_CASES, ids=lambda d: d.label())
    def test_iterates_match_the_two_solve_loop(self, topology, descriptor):
        # the solver once solved each accepted point again, stopped on the
        # stationarity residual and raised where the line search stalled
        topology = er_topology(topology)
        options = SolverOptions(tol=1e-12, max_iters=300)
        result = optimize_weights(topology, descriptor, options)
        iterates, stalled = two_solve_iterates(topology, descriptor, options)
        assert result.iterations < len(iterates)
        weights, value = iterates[result.iterations]
        assert result.weights.tobytes() == weights.tobytes()
        assert result.objective == value
        assert result.history == tuple(v for _, v in iterates[:result.iterations + 1])
        if result.termination != "converged":
            assert result.iterations == len(iterates) - 1
            assert stalled == (result.termination == "line_search_stall")

    @pytest.mark.parametrize("descriptor, max_iters", [(ENERGY, 2000),
                                                       (MeasureDescriptor("hinf"), 50)],
                             ids=["energy1", "hinf"])
    def test_one_eigensolve_per_trial_point(self, monkeypatch, descriptor, max_iters):
        solved, evaluated = [], []
        eig_sym, value_and_gradient = design.eig_sym, _Objective.value_and_gradient

        def recording_eig_sym(matrix, **kwargs):
            solved.append(matrix)
            return eig_sym(matrix, **kwargs)

        def recording_value_and_gradient(self, weights):
            evaluated.append(weights)
            return value_and_gradient(self, weights)
        monkeypatch.setattr(design, "eig_sym", recording_eig_sym)
        monkeypatch.setattr(_Objective, "value_and_gradient", recording_value_and_gradient)
        optimize_weights(er_topology("er30_s4"), descriptor, SolverOptions(max_iters=max_iters))
        assert len(solved) == len(evaluated)
        # an accepted point, or the best one, is not evaluated again
        assert len({id(weights) for weights in evaluated}) == len(evaluated)

    def test_energy2_stall_is_a_result(self):
        # this raised "line search failed at residual 2.828e-03 (iteration 73)"
        result = optimize_weights(er_topology("er30_s4"), MeasureDescriptor("energy2"))
        assert result.termination == "line_search_stall"
        assert 0.0 < result.gap <= 1e-6 * result.objective

    @pytest.mark.parametrize("options, termination", [
        (SolverOptions(), "converged"), (SolverOptions(tol=0.0, max_iters=3), "max_iters")])
    def test_gap_bounds_the_p4_closed_form(self, options, termination):
        counts = np.array([3.0, 4.0, 3.0])
        optimum = np.sqrt(counts).sum() ** 2 / 8.0
        result = optimize_weights(P4_TOPOLOGY, ENERGY, options)
        assert result.termination == termination
        assert result.objective - result.gap <= optimum * (1.0 + 1e-15)
        assert result.objective >= optimum * (1.0 - 1e-15)

    @pytest.mark.parametrize("topology", [P3_TOPOLOGY, TRIANGLE,
                                          Topology(n=4, edges=((0, 1), (0, 2), (0, 3))),
                                          P4_TOPOLOGY])
    def test_gap_bounds_the_grid_minimum(self, topology):
        # a grid point's value is at least the optimum, so it is at least
        # objective - gap; criterion 6's topologies on a coarser grid
        grid_value, _ = grid_min_energy1(topology, resolution=1e-2)
        result = optimize_weights(topology, ENERGY)
        assert result.termination == "converged"
        assert 0.0 <= result.gap <= 1e-8 * max(1.0, result.objective)
        assert result.objective - result.gap <= grid_value


# the measures k / lambda_2: small topologies with their optimal 1/lambda_2,
# and ER topologies with the value the projected subgradient method returned
# (2000 iterations, gaps of 10 to 21) before the staged surrogate replaced it
EXACT_INVERSE_LAMBDA2 = {"P3": (P3_TOPOLOGY, 2.0), "P4": (P4_TOPOLOGY, 5.0),
                         "C6": (Topology.from_graph(generate("cycle", 6)), 6.0),
                         "star5": (Topology.from_graph(generate("star", 5)), 4.0)}
SUBGRADIENT_VALUES = {"er12_s5": 11.195203, "er12_s7": 11.702846, "er12_s11": 9.848244,
                      "er30_s4": 42.179138}
HINF = MeasureDescriptor("hinf")


def lambda2_topology(name: str) -> Topology:
    if name == "er12_s11":
        return Topology.from_graph(generate("erdos_renyi", 12, seed=11, p=0.4))
    return er_topology(name)


@functools.lru_cache(maxsize=None)
def hinf_result(name: str) -> design.WeightAllocationResult:
    """The default-options hinf allocation on an ER topology, solved once."""
    return optimize_weights(lambda2_topology(name), HINF)


class TestReciprocalLambda2:
    """k/lambda_2 is minimized through zeta_measure(p) at rising p, and its gap
    is certified by a lower bound on min 1/lambda_2."""

    @pytest.mark.parametrize("name", list(EXACT_INVERSE_LAMBDA2))
    def test_small_topologies_certify_the_optimum(self, name):
        topology, optimum = EXACT_INVERSE_LAMBDA2[name]
        result = optimize_weights(topology, HINF)
        assert result.termination == "converged"
        assert result.gap <= 1e-8 * optimum
        assert result.objective == pytest.approx(optimum, rel=1e-8)
        if name == "P4":
            assert np.abs(result.weights - np.array([0.3, 0.4, 0.3])).max() < 1e-3

    @pytest.mark.parametrize("name", list(SUBGRADIENT_VALUES))
    def test_er_matches_the_subgradient_with_a_certificate(self, name):
        result = hinf_result(name)
        assert result.objective <= SUBGRADIENT_VALUES[name]
        assert 0.0 <= result.gap <= 1e-2 * result.objective
        assert result.history[-1] == result.objective
        # the objective is 1/lambda_2 at the returned weights
        graph = lambda2_topology(name).graph_of(result.weights)
        assert result.objective == pytest.approx(evaluate(graph, HINF), rel=1e-12)

    @pytest.mark.parametrize("topology", [P3_TOPOLOGY, TRIANGLE,
                                          Topology(n=4, edges=((0, 1), (0, 2), (0, 3))),
                                          P4_TOPOLOGY])
    def test_lower_bound_is_below_the_grid_minimum(self, topology):
        # the optima of P3 and P4 lie on the grid, where the bound meets the
        # grid minimum up to the rounding of two eigensolvers
        grid_value, _ = grid_min_inverse_lambda2(topology, resolution=1e-2)
        result = optimize_weights(topology, HINF)
        assert result.termination == "converged"
        assert result.objective - result.gap <= grid_value * (1.0 + 1e-14)

    def test_one_ulp_gradient_change_keeps_the_intervals_overlapping(self, monkeypatch):
        # the subgradient method moved by 1e-5 to 1e-4 relative under this change
        names = ("er12_s5", "er12_s7", "er12_s11")
        results = [hinf_result(name) for name in names]
        power_root_grad = measures._power_root_grad
        monkeypatch.setattr(measures, "_power_root_grad",
                            lambda *args: power_root_grad(*args) * (1.0 + 2.0 ** -52))
        for name, result in zip(names, results):
            perturbed = optimize_weights(lambda2_topology(name), HINF)
            assert max(result.objective - result.gap, perturbed.objective - perturbed.gap) \
                <= min(result.objective, perturbed.objective)

    @pytest.mark.filterwarnings("error")
    def test_zero_tol_stops_at_max_iters(self):
        result = optimize_weights(lambda2_topology("er12_s5"), HINF,
                                  SolverOptions(tol=0.0, max_iters=300))
        assert (result.termination, result.iterations) == ("max_iters", 300)
        assert math.isfinite(result.gap) and result.gap > 0.0
        assert result.history[-1] == result.objective

    def test_history_is_the_objective_after_each_stage(self):
        result = optimize_weights(P4_TOPOLOGY, HINF)
        assert result.history[-1] == result.objective
        assert np.all(np.diff(result.history) <= 0.0)
        assert result.history[0] == pytest.approx(evaluate(
            P4_TOPOLOGY.graph_of(np.full(3, 1.0 / 3.0)), HINF), rel=1e-12)

    @pytest.mark.parametrize("descriptor, k", [
        (MeasureDescriptor("convergence_time"), 1.0),
        (MeasureDescriptor("hp_norm", p=math.inf), 1.0),
        (MeasureDescriptor("zeta_measure", p=math.inf, k=2.5), 2.5)],
        ids=["convergence_time", "hp_norm", "zeta_measure"])
    def test_every_reciprocal_lambda2_measure(self, descriptor, k):
        reference = optimize_weights(P4_TOPOLOGY, HINF)
        result = optimize_weights(P4_TOPOLOGY, descriptor)
        assert result.weights.tobytes() == reference.weights.tobytes()
        assert result.objective == pytest.approx(k * reference.objective, rel=1e-15)
        assert result.gap == pytest.approx(k * reference.gap, rel=1e-6)

    @pytest.mark.parametrize("p", [8.0, 128.0, 2048.0, 1e6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixing_bound_is_at_least_the_sandwich_bound(self, p, seed):
        # (F_p - gap) / (n-1)^(1/p) <= min 1/lambda_2 from the zeta sandwich;
        # the surrogate's bound at the same point is never below it
        topology = lambda2_topology("er12_s7")
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = 0.5 / topology.m + 0.5 * rng.dirichlet(np.ones(topology.m))
        surrogate = design._Surrogate(topology, MeasureDescriptor("zeta_measure", p=p))
        value, gradient = surrogate.value_and_gradient(weights)
        sandwich = (value - design._frank_wolfe_gap(weights, gradient)) \
            / (topology.n - 1) ** (1.0 / p)
        assert surrogate.lower >= sandwich * (1.0 - 1e-12)
        assert surrogate.lower <= SUBGRADIENT_VALUES["er12_s7"]


class TestNonFiniteTrialPoints:
    """A value or gradient that overflows is a NumericalError; it was an
    IndexError from project_simplex (exit 1 from the CLI)."""

    def test_overflowing_gradient_is_a_numerical_error(self):
        # lambda_2 is about 4e-4 at the uniform start, so f' = -100 lambda^-101 overflows
        topology = Topology.from_graph(generate("path", 30))
        measure = MeasureDescriptor("schur_sum", f_id="inverse_pow:100")
        with pytest.raises(NumericalError, match=r"\) or its gradient is not finite"):
            optimize_weights(topology, measure)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_projection_refuses_non_finite_input(self, entry):
        with pytest.raises(DomainError, match="only a finite vector"):
            project_simplex(np.array([0.2, entry, 0.5]))

    # the empty vector raised IndexError, a matrix ValueError
    @pytest.mark.parametrize("v", [[], np.full((2, 2), 0.25)], ids=["empty", "matrix"])
    def test_projection_refuses_what_is_not_a_vector(self, v):
        with pytest.raises(DomainError, match="only a finite vector"):
            project_simplex(v)


class TestSolverOptions:
    def test_only_tol_and_max_iters(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol", "max_iters"]

    # a NaN tol or a max_iters below 1 returned the uniform start as the
    # optimum, a negative tol died in math.sqrt with a ValueError, and a tol
    # that is not a number raised a bare TypeError from math.isfinite
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, "x", None, 1j])
    def test_tol_rejected(self, tol):
        with pytest.raises(DomainError) as excinfo:
            SolverOptions(tol=tol)
        assert str(excinfo.value) == f"tol must be finite and >= 0, got {tol!r}"

    @pytest.mark.parametrize("max_iters", [-5, 0, 2.5, "3", None, True])
    def test_max_iters_rejected(self, max_iters):
        with pytest.raises(DomainError, match="max_iters must be an integer >= 1"):
            SolverOptions(max_iters=max_iters)

    def test_zero_tol_and_numpy_max_iters_accepted(self):
        result = optimize_weights(P4_TOPOLOGY, ENERGY,
                                  SolverOptions(tol=0.0, max_iters=np.int64(3)))
        assert result.iterations <= 3


class TestTopologyLaplacian:
    """laplacian_of is bit-identical to accumulating edge by edge; tobytes()
    equality also tells -0.0 from +0.0."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_on_scaled_random_weights(self, seed):
        topology = Topology.from_graph(random_connected(seed, n_high=20))
        rng = np.random.Generator(np.random.PCG64(seed))
        scale = 10.0 ** rng.uniform(-9.0, 9.0)
        weights = scale * rng.dirichlet(np.ones(topology.m))
        assert (topology.laplacian_of(weights).tobytes()
                == loop_topology_laplacian(topology, weights).tobytes())

    def test_exact_zero_weights(self):
        topology = Topology.from_graph(random_connected(3))
        weights = np.linspace(0.0, 1.0, topology.m)
        weights[::3] = 0.0
        matrix = topology.laplacian_of(weights)
        assert matrix.tobytes() == loop_topology_laplacian(topology, weights).tobytes()
        assert not np.signbit(matrix[matrix == 0.0]).any()

    def test_all_zero_weights_give_positive_zero_matrix(self):
        matrix = P4_TOPOLOGY.laplacian_of(np.zeros(P4_TOPOLOGY.m))
        assert matrix.tobytes() == np.zeros((4, 4)).tobytes()

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(GraphFormatError, match="endpoints must be integers"):
            Topology(n=3, edges=((0.5, 1.5), (1, 2)))

    def test_copies_keep_endpoints(self):
        weights = np.array([0.2, 0.3, 0.5])
        for other in (pickle.loads(pickle.dumps(P4_TOPOLOGY)), copy.deepcopy(P4_TOPOLOGY)):
            assert other == P4_TOPOLOGY
            assert (other.laplacian_of(weights).tobytes()
                    == P4_TOPOLOGY.laplacian_of(weights).tobytes())


class TestTopologyArrays:
    """Topologies build graphs and Laplacians from their endpoint array, the
    way graphs build theirs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_graph_of_has_the_same_laplacian(self, seed):
        topology = Topology.from_graph(random_connected(seed, n_high=20))
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = 10.0 ** rng.uniform(-3.0, 3.0, size=topology.m)
        assert (laplacian(topology.graph_of(weights)).tobytes()
                == topology.laplacian_of(weights).tobytes())

    def test_graph_of_drops_zero_weights(self):
        graph = P4_TOPOLOGY.graph_of(np.array([0.25, 0.0, 0.75]))
        assert graph.edges == ((0, 1, 0.25), (2, 3, 0.75))
        assert not is_connected(graph)

    def test_from_graph_reads_the_arrays(self, monkeypatch):
        graph = generate("erdos_renyi", 15, seed=2, p=0.3, weight_range=(0.5, 2.0))
        reads = count_edge_reads(monkeypatch)
        topology = Topology.from_graph(graph)
        assert reads == []
        assert topology.edges == tuple((u, v) for u, v, _ in graph.edges)
        assert topology == Topology(n=15, edges=tuple((v, u) for u, v in topology.edges[::-1]))


class TestDegreeObjective:
    """A degree-based measure's objective reads the degree vector: no
    eigensolve, and connectivity decided on the positive-weight support."""

    def test_local_error_allocation_runs_no_eigensolve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigensolve for a degree-based measure")
        monkeypatch.setattr("systemic.design.eig_sym", fail)
        topology = Topology.from_graph(generate("erdos_renyi", 30, seed=4, p=0.2))
        result = optimize_weights(topology, MeasureDescriptor("local_error"),
                                  SolverOptions(tol=1e-12))
        # what the objective gave when it ran an eigensolve per call; at the
        # default tol the gap certifies two iterations earlier
        assert result.iterations == 565
        assert result.objective == pytest.approx(float.fromhex("0x1.c1ffffffffffbp+7"),
                                                 rel=1e-12)

    def test_support_decides_connectivity(self):
        objective = _Objective(P4_TOPOLOGY, MeasureDescriptor("local_error"))
        with pytest.raises(ConnectivityError):
            objective.value_and_gradient(np.array([0.5, 0.0, 0.5]))[0]
        # a tiny positive bridge keeps the path connected: every degree is 0.5
        value, gradient = objective.value_and_gradient(np.array([0.5, 1e-300, 0.5]))
        assert value == 4.0
        assert np.array_equal(gradient, [-4.0, -4.0, -4.0])


class TestAllocatorConnectivity:
    """A spectral objective calls a trial point disconnected when its lambda_2
    is not above the solve's error bound; laplacian_spectrum once made that
    verdict for a raw matrix."""

    TWO_BLOCKS = Topology(n=6, edges=((0, 1), (0, 2), (1, 2), (2, 3),
                                      (3, 4), (3, 5), (4, 5)))

    @pytest.mark.parametrize("topology, weights", [
        (P4_TOPOLOGY, (1.0, 1e-20, 1.0)),
        # lambda_2 is about 1e-14: positive, but within the bound of about 2e-14
        (P4_TOPOLOGY, (1.0, 1e-14, 1.0)),
        (TWO_BLOCKS, (1.0, 2.0, 1.0, 0.0, 1.0, 1.0, 3.0)),
    ], ids=["unresolved-bridge", "bridge-within-bound", "two-blocks"])
    @pytest.mark.parametrize("descriptor", [ENERGY, MeasureDescriptor("hinf")],
                             ids=lambda d: d.label())
    def test_lambda2_within_the_bound_is_a_cut(self, topology, weights, descriptor):
        objective = _Objective(topology, descriptor)
        with pytest.raises(ConnectivityError, match="within the solve's error bound"):
            objective.value_and_gradient(np.array(weights))

    def test_weak_bridge_resolves(self):
        # the 1e-9 bridge is far above the bound; lambda_2 is about 5e-10
        # with an error of about 1e-16, so the value is good to about 1e-7
        value, _ = _Objective(P4_TOPOLOGY, ENERGY).value_and_gradient(
            np.array([1.0, 1e-9, 1.0]))
        graph = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1e-9), (2, 3, 1.0)])
        assert value == pytest.approx(evaluate(graph, ENERGY), rel=1e-6)


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
        fd = np.array([(objective.value_and_gradient(weights + step)[0]
                        - objective.value_and_gradient(weights - step)[0])
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

    # the node cap of 8 admitted (7, 10), which canonicalizes about 350,000
    # edge sets at 5040 relabelings each: hours of work
    def test_work_refused_before_enumeration(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an edge set was canonicalized")
        monkeypatch.setattr(design, "canonical_edges", fail)
        with pytest.raises(ScaleError, match=r"C\(21, 10\) edge sets on n=7"):
            rewire_bruteforce(7, 10, 1.0, ENERGY)
        with pytest.raises(ScaleError, match="node relabelings"):
            rewire_bruteforce(10**9, 10**9, 1.0, ENERGY)

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 7)
                                      for m in range(n - 1, n * (n - 1) // 2 + 1)]
                             + [(7, 19), (7, 20), (7, 21)])
    def test_work_budget_admits(self, n, m):
        _check_relabelings(n, m)

    # an endpoint out of range raised IndexError, a self-loop was relabeled
    # as one, and a node count of -1 gave () and of 2.5 a TypeError
    @pytest.mark.parametrize("n, pairs, error, message", [
        (3, ((0, 5),), GraphFormatError, r"edge \(0, 5\) needs 0 <= u < v < 3"),
        (3, ((1, 1),), GraphFormatError, "self-loop at node 1"),
        (-1, (), DomainError, "node count must be positive, got -1"),
        (2.5, (), GraphFormatError, "node count must be an integer, got 2.5"),
    ], ids=["out_of_range", "self_loop", "negative_n", "float_n"])
    def test_canonical_form_refuses_what_a_graph_refuses(self, n, pairs, error, message):
        with pytest.raises(error, match=message):
            canonical_edges(n, pairs)

    def test_canonical_form_work_budget(self):
        assert canonical_edges(7, ((0, 1),)) == ((0, 1),)
        with pytest.raises(ScaleError, match="one edge set on n=11"):
            canonical_edges(11, ((0, 1),))

    def test_infeasible_edge_count(self):
        with pytest.raises(DomainError):
            rewire_bruteforce(4, 2, 1.0, ENERGY)

    # a float n raised IndexError and a float m TypeError
    @pytest.mark.parametrize("n, m, name", [(4.0, 4, "node count n"), (True, 1, "node count n"),
                                            (4, 4.0, "edge count m"), (4, True, "edge count m")])
    def test_non_integer_counts(self, n, m, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            rewire_bruteforce(n, m, 4.0, ENERGY)

    # an infinite alpha was reported as an edge with non-positive weight inf
    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            rewire_bruteforce(4, 4, alpha, ENERGY)


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

    # a float budget raised a bare TypeError from slicing, and True was taken as 1
    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_non_integer_budget(self, p3, k):
        with pytest.raises(DomainError, match="edge budget k must be an integer"):
            fundamental_limit(p3, k, "inverse")
        with pytest.raises(DomainError, match="edge budget k must be an integer"):
            greedy_augment(p3, k, [(0, 2, 1.0)], "inverse")

    # the descriptor raised AttributeError for 5 and TypeError (unhashable)
    # for a list, and both routes build one
    @pytest.mark.parametrize("f_id", [5, ["inverse"]])
    def test_non_string_f_id(self, p3, f_id):
        message = f"schur_sum needs a string spectral function id f_id, got {f_id!r}"
        for route in (lambda: fundamental_limit(p3, 1, f_id),
                      lambda: greedy_augment(p3, 1, [(0, 2, 1.0)], f_id)):
            with pytest.raises(DomainError) as excinfo:
                route()
            assert str(excinfo.value) == message

    def test_numpy_budget_accepted(self, p3):
        assert fundamental_limit(p3, np.int64(1), "inverse") == fundamental_limit(
            p3, 1, "inverse")


class TestGreedyAugment:
    def test_unknown_mode(self, p3):
        with pytest.raises(DomainError, match="unknown augmentation mode 'nope'"):
            greedy_augment(p3, 1, [(0, 2, 1.0)], "inverse", mode="nope")

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

    # a float endpoint was truncated: (0.5, 2) added the edge (0, 2)
    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_float_endpoints_rejected(self, mode):
        path4 = generate("path", 4)
        with pytest.raises(GraphFormatError, match="endpoints must be integers"):
            greedy_augment(path4, 1, [(0.5, 2, 1.0)], "inverse", mode=mode)
        with pytest.raises(GraphFormatError, match="endpoints must be integers"):
            greedy_augment(path4, 1, [(0, 2, 1.0), (3, 2.0, 1.0)], "inverse", mode=mode)

    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_candidate_pairs_normalized(self, p3, mode):
        # reversed and NumPy endpoints name the same pair, which is added once
        candidates = [(0, 2, 0.01), (np.int64(2), 0, 10.0), (1, 0, 3.0)]
        report = greedy_augment(p3, 2, candidates, "inverse", mode=mode)
        assert report.added == ((0, 2, 10.0),)
        assert report == greedy_augment(p3, 2, [(0, 2, 10.0)], "inverse", mode=mode)

    def test_exhaustive_budget(self):
        # 1 + 90 + C(90, 2) + C(90, 3) = 121,576 subsets on distinct pairs
        path15 = generate("path", 15)
        candidates = [(u, v, 1.0) for u in range(15) for v in range(u + 2, 15)][:90]
        with pytest.raises(ScaleError, match="121576 subsets"):
            greedy_augment(path15, 3, candidates, "inverse", mode="exhaustive")

    # 199 candidates on one pair were counted as 1,313,600 subsets, but one
    # pair admits one candidate: the search scores 200
    def test_exhaustive_budget_counts_scored_subsets(self, p3, monkeypatch):
        scored = []
        monkeypatch.setattr(design, "laplacian_spectrum", lambda graph, **options: (
            scored.append(graph) or laplacian_spectrum(graph, **options)))
        candidates = [(0, 2, float(w)) for w in range(1, 200)]
        report = greedy_augment(p3, 3, candidates, "inverse", mode="exhaustive")
        assert len(scored) == 200
        assert report.added == ((0, 2, 199.0),)

    # a candidate is checked as the constructor checks an edge
    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_defective_candidates_named_as_the_constructor_names_them(self, mode):
        graph = generate("erdos_renyi", 8, seed=3, p=0.4, weight_range=(0.5, 2.0))
        existing = {(u, v) for u, v, _ in graph.edges}
        u, v = next((u, v) for u in range(8) for v in range(u + 1, 8)
                    if (u, v) not in existing)
        for bad in [(1, 1, 1.0), (0, graph.n, 1.0), (u, v, -1.0), (u, v, 0.0)]:
            errors = []
            for build in (lambda: greedy_augment(graph, 1, [bad], "inverse", mode=mode),
                          lambda: WeightedGraph(graph.n, graph.edges + (bad,))):
                with pytest.raises(Exception) as excinfo:
                    build()
                errors.append((type(excinfo.value), str(excinfo.value)))
            assert errors[0] == errors[1]

    # every scored graph was kept by the LRU: about 190 MB after one greedy
    # step over 200 candidates on ER(400, 0.5)
    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_scored_graphs_stay_out_of_the_spectrum_cache(self, mode):
        graph = generate("cycle", 6)
        graph_spectrum.cache_clear()
        graph_spectrum(graph)  # the bound reads the original graph's spectrum
        candidates = [(0, 2, 1.0), (0, 3, 2.0), (1, 4, 0.5), (0, 2, 3.0)]
        report = greedy_augment(graph, 2, candidates, "inverse", mode=mode)
        assert len(report.added) == 2
        assert graph_spectrum.cache_info().currsize == 1


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
