"""Network design procedures: simplex-constrained weight allocation on a fixed
topology, exhaustive rewiring at small sizes, and edge augmentation with the
spectral lower bound on what any k added edges can achieve.

The weight-allocation problem (minimize a measure over nonnegative weights
summing to one) is convex; it is solved by projected gradient descent with an
Armijo line search instead of materializing the equivalent semidefinite
program, since the gradient of every catalog measure is available in closed
form through the eigensystem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConnectivityError, DomainError, InputError, ScaleError,
                     SolverError)
from .graphs import WeightedGraph, is_connected
from .measures import (_MEASURES, MeasureDescriptor, evaluate,
                       evaluate_eigenvalues, get_spectral_function)
from .spectral import Spectrum, graph_spectrum, laplacian_spectrum


# ---------------------------------------------------------------------------
# topology and weight allocation

@dataclass(frozen=True)
class Topology:
    """A fixed edge skeleton whose positive weights are to be chosen."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        normalized = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        if len(set(normalized)) != len(normalized):
            raise DomainError("topology has duplicate edges")
        object.__setattr__(self, "edges", normalized)
        probe = WeightedGraph.from_edges(self.n, [(u, v, 1.0) for u, v in normalized])
        if not is_connected(probe):
            raise ConnectivityError("topology is disconnected under positive weights")

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "Topology":
        return cls(n=graph.n, edges=tuple((u, v) for u, v, _ in graph.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def laplacian_of(self, weights: np.ndarray) -> np.ndarray:
        matrix = np.zeros((self.n, self.n))
        for (u, v), w in zip(self.edges, weights):
            matrix[u, u] += w
            matrix[v, v] += w
            matrix[u, v] -= w
            matrix[v, u] -= w
        return matrix

    def graph_of(self, weights: np.ndarray) -> WeightedGraph:
        return WeightedGraph.from_edges(
            self.n, [(u, v, w) for (u, v), w in zip(self.edges, weights) if w > 0.0])


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    descending = np.sort(v)[::-1]
    cumulative = np.cumsum(descending)
    indices = np.arange(1, v.size + 1)
    feasible = descending + (1.0 - cumulative) / indices > 0.0
    rho = int(np.nonzero(feasible)[0][-1])
    shift = (1.0 - cumulative[rho]) / (rho + 1.0)
    return np.maximum(v + shift, 0.0)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iters: int = 2000
    armijo: float = 1e-4
    step_init: float = 1.0
    max_backtracks: int = 60
    support_tol: float = 1e-12


@dataclass(frozen=True)
class WeightAllocationResult:
    weights: np.ndarray
    objective: float
    iterations: int
    stationarity_residual: float
    active_set: tuple[int, ...]
    history: tuple[float, ...] = field(repr=False, default=())

    def __post_init__(self):
        self.weights.setflags(write=False)


def _is_nonsmooth(measure: MeasureDescriptor) -> bool:
    return _MEASURES[measure.id].nonsmooth(measure)


def _edge_mode_squares(topology: Topology, spectrum: Spectrum) -> np.ndarray:
    """(m, n-1) array of (v_i[u] - v_i[v])^2 over edges and nonzero modes."""
    vectors = spectrum.eigenvectors[:, 1:]
    us = np.fromiter((u for u, _ in topology.edges), dtype=int)
    vs = np.fromiter((v for _, v in topology.edges), dtype=int)
    return (vectors[us, :] - vectors[vs, :]) ** 2


class _Objective:
    def __init__(self, topology: Topology, measure: MeasureDescriptor):
        self.topology = topology
        self.measure = measure
        self.entry = _MEASURES[measure.id]

    def _evaluate(self, weights: np.ndarray) -> tuple[Spectrum, np.ndarray, float]:
        matrix = self.topology.laplacian_of(weights)
        spectrum = laplacian_spectrum(matrix)
        degrees = np.diag(matrix)
        value = evaluate_eigenvalues(spectrum.nonzero, self.measure, degrees=degrees)
        return spectrum, degrees, value

    def value(self, weights: np.ndarray) -> float:
        return self._evaluate(weights)[2]

    def value_and_gradient(self, weights: np.ndarray) -> tuple[float, np.ndarray]:
        # chain rule: d lambda_i / d w_e is the squared difference of mode i
        # across edge e, and w_e adds to the degrees of both its endpoints
        spectrum, degrees, value = self._evaluate(weights)
        if self.entry.spectral:
            grad = self.entry.grad(spectrum.nonzero, self.measure, value)
            return value, _edge_mode_squares(self.topology, spectrum) @ grad
        grad = self.entry.grad(degrees, self.measure, value)
        us, vs = np.array(self.topology.edges).T
        return value, grad[us] + grad[vs]


def _stationarity_residual(weights: np.ndarray, gradient: np.ndarray,
                           support_tol: float) -> tuple[float, np.ndarray]:
    support = weights > support_tol
    supported = gradient[support]
    return float(np.abs(supported - supported.mean()).max()), support


def optimize_weights(topology: Topology, measure: MeasureDescriptor,
                     options: SolverOptions | None = None) -> WeightAllocationResult:
    """Minimize a measure over the unit simplex of edge weights.

    Projected gradient descent from the uniform start with Armijo
    backtracking along the projection arc; steps that disconnect the graph
    are rejected like failed line-search steps.  Measures that reduce to the
    reciprocal algebraic connectivity use a projected subgradient method with
    diminishing steps instead, tracking the best iterate.
    """
    options = options or SolverOptions()
    objective = _Objective(topology, measure)
    weights = np.full(topology.m, 1.0 / topology.m)
    if _is_nonsmooth(measure):
        return _optimize_subgradient(objective, weights, options)

    value, gradient = objective.value_and_gradient(weights)
    history = [value]
    step = options.step_init
    iterations = 0
    residual, support = _stationarity_residual(weights, gradient, options.support_tol)
    while residual > options.tol and iterations < options.max_iters:
        accepted = False
        t = step
        for _ in range(options.max_backtracks):
            candidate = project_simplex(weights - t * gradient)
            move = candidate - weights
            move_norm2 = float(move @ move)
            if move_norm2 == 0.0:
                break
            try:
                candidate_value = objective.value(candidate)
            except ConnectivityError:
                t *= 0.5
                continue
            if candidate_value <= value - (options.armijo / t) * move_norm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no descent step exists at this scale; re-check stationarity
            residual, support = _stationarity_residual(weights, gradient,
                                                       options.support_tol)
            if residual <= math.sqrt(options.tol):
                break
            raise SolverError(
                f"line search failed at residual {residual:.3e} (iteration {iterations})")
        weights, value = candidate, candidate_value
        step = 2.0 * t
        iterations += 1
        history.append(value)
        value, gradient = objective.value_and_gradient(weights)
        residual, support = _stationarity_residual(weights, gradient, options.support_tol)
    active = tuple(int(i) for i in np.nonzero(~support)[0])
    return WeightAllocationResult(weights=weights, objective=value,
                                  iterations=iterations,
                                  stationarity_residual=residual,
                                  active_set=active, history=tuple(history))


def _optimize_subgradient(objective: _Objective, weights: np.ndarray,
                          options: SolverOptions) -> WeightAllocationResult:
    value, gradient = objective.value_and_gradient(weights)
    best_weights, best_value = weights, value
    history = [value]
    iterations = 0
    for iteration in range(options.max_iters):
        norm = float(np.linalg.norm(gradient))
        if norm == 0.0:
            break
        t = options.step_init / ((1.0 + iteration) * norm)
        candidate = project_simplex(weights - t * gradient)
        try:
            candidate_value, candidate_gradient = objective.value_and_gradient(candidate)
        except ConnectivityError:
            weights = 0.5 * (weights + best_weights)
            value, gradient = objective.value_and_gradient(weights)
            continue
        weights, value, gradient = candidate, candidate_value, candidate_gradient
        iterations += 1
        history.append(value)
        if value < best_value:
            best_value, best_weights = value, weights
    _, best_gradient = objective.value_and_gradient(best_weights)
    residual, support = _stationarity_residual(best_weights, best_gradient,
                                               options.support_tol)
    active = tuple(int(i) for i in np.nonzero(~support)[0])
    return WeightAllocationResult(weights=best_weights, objective=best_value,
                                  iterations=iterations,
                                  stationarity_residual=residual,
                                  active_set=active, history=tuple(history))


# ---------------------------------------------------------------------------
# exhaustive rewiring over all connected graphs with n nodes and m edges

MAX_REWIRE_NODES = 8


@dataclass(frozen=True)
class RankingEntry:
    edges: tuple[tuple[int, int], ...]
    value: float
    refined: tuple[tuple[float, ...], float] | None = None


@dataclass(frozen=True)
class RewireResult:
    best: WeightedGraph
    value: float
    ranking: tuple[RankingEntry, ...]


def _connected_pairs(n: int, pairs: tuple[tuple[int, int], ...]) -> bool:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def canonical_edges(n: int, pairs: tuple[tuple[int, int], ...]
                    ) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest relabeling of an edge set over all node
    permutations; n is capped at MAX_REWIRE_NODES."""
    if n > MAX_REWIRE_NODES:
        raise ScaleError(f"canonical forms are enumerated only up to n={MAX_REWIRE_NODES}")
    best: tuple[tuple[int, int], ...] | None = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                                 for u, v in pairs))
        if best is None or relabeled < best:
            best = relabeled
    return best


def rewire_bruteforce(n: int, m: int, alpha: float, measure: MeasureDescriptor,
                      weight_refine=None) -> RewireResult:
    """Rank all connected n-node m-edge graphs (equal weights alpha/m) by a measure.

    Isomorphic labelings are merged through canonical forms, so the ranking is
    one entry per isomorphism class, ascending by value with lexicographic
    tie-breaking.  weight_refine, if given, is called per class with the
    equal-weight graph and may attach a refined (weights, value) pair; nothing
    is asserted about it.
    """
    if n > MAX_REWIRE_NODES:
        raise ScaleError(f"exhaustive rewiring supports n <= {MAX_REWIRE_NODES}, got {n}")
    if n < 2:
        raise DomainError("need at least 2 nodes")
    if not (alpha > 0):
        raise DomainError(f"total weight alpha must be positive, got {alpha}")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not (n - 1 <= m <= len(all_pairs)):
        raise DomainError(f"edge count m={m} infeasible for connected n={n}")
    weight = alpha / m
    classes: set[tuple[tuple[int, int], ...]] = set()
    for combo in itertools.combinations(all_pairs, m):
        if _connected_pairs(n, combo):
            classes.add(canonical_edges(n, combo))

    def score(pairs: tuple[tuple[int, int], ...]) -> RankingEntry:
        graph = WeightedGraph.from_edges(n, [(u, v, weight) for u, v in pairs])
        value = evaluate(graph, measure)
        refined = None
        if weight_refine is not None:
            refined = weight_refine(graph, measure)
        return RankingEntry(edges=pairs, value=value, refined=refined)

    entries = [score(pairs) for pairs in sorted(classes)]
    ranking = tuple(sorted(entries, key=lambda e: (e.value, e.edges)))
    best_entry = ranking[0]
    best_graph = WeightedGraph.from_edges(
        n, [(u, v, weight) for u, v in best_entry.edges])
    return RewireResult(best=best_graph, value=best_entry.value, ranking=ranking)


# ---------------------------------------------------------------------------
# edge augmentation and its spectral lower bound

@dataclass(frozen=True)
class AugmentationReport:
    added: tuple[tuple[int, int, float], ...]
    achieved: float
    bound: float
    gap: float


def fundamental_limit(graph: WeightedGraph, k: int, f_id: str) -> float:
    """Lower bound on sum-of-f measures after adding at most k weighted edges.

    Adding k edges is a rank-k positive update, so each eigenvalue climbs at
    most k index positions; the bound sums f over the original eigenvalues
    from position k+2 upward (1-based), and is 0 once that range is empty.
    """
    if k < 0:
        raise DomainError(f"edge budget k must be >= 0, got {k}")
    fn = get_spectral_function(f_id)
    if not fn.vanishes_at_infinity:
        raise DomainError(f"bound needs f with f(inf) = 0, got {fn.name!r}")
    lam = graph_spectrum(graph).eigenvalues
    tail = lam[k + 1:]
    if tail.size == 0:
        return 0.0
    return float(np.sum(fn.fn(tail)))


def _sum_measure(graph: WeightedGraph, fn) -> float:
    return float(np.sum(fn.fn(graph_spectrum(graph).nonzero)))


def _with_edge(graph: WeightedGraph, edge: tuple[int, int, float]) -> WeightedGraph:
    return WeightedGraph(n=graph.n, edges=graph.edges + (edge,))


def greedy_augment(graph: WeightedGraph, k: int,
                   candidates: list[tuple[int, int, float]], f_id: str,
                   mode: str = "greedy") -> AugmentationReport:
    """Add up to k candidate edges minimizing a sum-of-f measure.

    Greedy picks the best (edge, budget-weight) candidate one step at a time;
    mode="exhaustive" scans all candidate subsets of size <= k (bounded at
    1e5 subsets).  Candidates duplicating an existing edge are skipped.  The
    report carries the achieved value, the rank-k spectral bound computed from
    the original spectrum, and their gap.
    """
    if not candidates:
        raise InputError("empty candidate edge set")
    if k < 0:
        raise DomainError(f"edge budget k must be >= 0, got {k}")
    fn = get_spectral_function(f_id)
    if not fn.vanishes_at_infinity:
        raise DomainError(f"augmentation measure needs f(inf) = 0, got {fn.name!r}")
    normalized = []
    for u, v, w in candidates:
        u, v = (v, u) if u > v else (u, v)
        normalized.append((int(u), int(v), float(w)))
    bound = fundamental_limit(graph, k, f_id)

    if mode == "greedy":
        current = graph
        added: list[tuple[int, int, float]] = []
        pool = list(normalized)
        for _ in range(k):
            existing = {(u, v) for u, v, _ in current.edges}
            usable = [c for c in pool if (c[0], c[1]) not in existing]
            if not usable:
                break
            scored = sorted(
                ((_sum_measure(_with_edge(current, c), fn), c) for c in usable),
                key=lambda pair: (pair[0], pair[1]))
            best_value, best_edge = scored[0]
            current = _with_edge(current, best_edge)
            added.append(best_edge)
            pool.remove(best_edge)
        achieved = _sum_measure(current, fn)
    elif mode == "exhaustive":
        total = sum(math.comb(len(normalized), j) for j in range(k + 1))
        if total > 100_000:
            raise ScaleError(f"exhaustive augmentation over {total} subsets exceeds 1e5")
        existing = {(u, v) for u, v, _ in graph.edges}
        best: tuple[float, tuple[tuple[int, int, float], ...]] | None = None
        for size in range(k + 1):
            for subset in itertools.combinations(normalized, size):
                pairs = [(u, v) for u, v, _ in subset]
                if len(set(pairs)) != len(pairs) or any(p in existing for p in pairs):
                    continue
                candidate_graph = WeightedGraph(n=graph.n, edges=graph.edges + subset)
                value = _sum_measure(candidate_graph, fn)
                if best is None or (value, subset) < best:
                    best = (value, subset)
        achieved, chosen = best
        added = list(chosen)
    else:
        raise DomainError(f"unknown augmentation mode {mode!r}")
    return AugmentationReport(added=tuple(added), achieved=achieved, bound=bound,
                              gap=achieved - bound)
