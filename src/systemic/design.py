"""Network design procedures: simplex-constrained weight allocation on a fixed
topology, exhaustive rewiring at small sizes, and edge augmentation with the
spectral lower bound on what any k added edges can achieve.

The weight-allocation problem (minimize a measure over nonnegative weights
summing to one) is convex; it is solved by projected gradient descent with an
Armijo line search instead of materializing the equivalent semidefinite
program, since the gradient of every catalog measure is available in closed
form through the eigensystem; k/lambda_2 is descended through smooth
surrogates whose gradients also certify a lower bound on its optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConnectivityError, DomainError, InputError, NumericalError, ScaleError
from .graphs import (WeightedGraph, _check_integer, _check_tol, _connected, _degree_vector,
                     _laplacian_matrix, _read_edges, graph_add, is_connected)
from .measures import _MEASURES, MeasureDescriptor, evaluate, evaluate_eigenvalues
from .spectral import Spectrum, eig_sym, graph_spectrum, laplacian_spectrum


# ---------------------------------------------------------------------------
# topology and weight allocation

@dataclass(frozen=True)
class Topology:
    """A fixed edge skeleton whose positive weights are to be chosen: (u, v)
    pairs in either orientation, read by graphs._read_edges and checked as a
    unit-weight graph's edges, so a repeated pair is a GraphFormatError."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # a unit-weight graph's checks name the first defective pair in input
        # order, sort the pairs and decide connectivity
        self._adopt(WeightedGraph._from_arrays(*_read_edges(self.n, self.edges, 2)))

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "Topology":
        topology = object.__new__(cls)
        topology._adopt(graph)
        return topology

    def _adopt(self, graph: WeightedGraph) -> None:
        """Take the node count and the checked, sorted endpoint arrays of a graph."""
        if not is_connected(graph):
            raise ConnectivityError("topology is disconnected under positive weights")
        object.__setattr__(self, "n", graph.n)
        # (m, 2) endpoint array; raveled it interleaves u0, v0, u1, v1, ...
        pairs = np.column_stack((graph._us, graph._vs))
        pairs.setflags(write=False)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "edges", tuple(zip(graph._us.tolist(), graph._vs.tolist())))

    @property
    def m(self) -> int:
        return len(self._pairs)

    def degrees_of(self, weights: np.ndarray) -> np.ndarray:
        # in edge order, as a graph with these weights sums its degrees
        return _degree_vector(self.n, self._pairs.ravel(), np.asarray(weights, dtype=float))

    def laplacian_of(self, weights: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        us, vs = self._pairs.T
        return _laplacian_matrix(self.n, us, vs, weights, lambda: self.degrees_of(weights))

    def graph_of(self, weights: np.ndarray) -> WeightedGraph:
        weights = np.asarray(weights, dtype=float)
        support = weights > 0.0
        us, vs = self._pairs.T
        return WeightedGraph._from_arrays(self.n, us[support], vs[support], weights[support])


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0 or not np.isfinite(v).all():
        raise DomainError("only a finite vector has a projection onto the simplex")
    descending = np.sort(v)[::-1]
    cumulative = np.cumsum(descending)
    indices = np.arange(1, v.size + 1)
    feasible = descending + (1.0 - cumulative) / indices > 0.0
    rho = int(np.nonzero(feasible)[0][-1])
    shift = (1.0 - cumulative[rho]) / (rho + 1.0)
    return np.maximum(v + shift, 0.0)


ARMIJO = 1e-4  # sufficient-decrease constant of the line search
STEP_INIT = 1.0
MAX_BACKTRACKS = 60  # step halvings per line search
SUPPORT_TOL = 1e-12  # an edge whose weight is at most this is off the support


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        _check_tol(self.tol)
        _check_integer("max_iters", self.max_iters, 1)


@dataclass(frozen=True)
class WeightAllocationResult:
    weights: np.ndarray
    objective: float
    iterations: int
    stationarity_residual: float
    active_set: tuple[int, ...]
    gap: float  # an upper bound >= 0 on objective - optimum (g.w - min g if smooth)
    termination: str  # "converged", "line_search_stall" or "max_iters"
    history: tuple[float, ...] = field(repr=False, default=())

    def __post_init__(self):
        self.weights.setflags(write=False)


def _is_nonsmooth(measure: MeasureDescriptor) -> bool:
    return _MEASURES[measure.id].nonsmooth(measure)


class _Objective:
    def __init__(self, topology: Topology, measure: MeasureDescriptor):
        self.topology = topology
        self.measure = measure
        self.entry = _MEASURES[measure.id]

    def value_and_gradient(self, weights: np.ndarray) -> tuple[float, np.ndarray]:
        """The value and its edge gradient from one eigensolve (none for a degree-based
        measure); ConnectivityError when the weights disconnect the topology, and
        NumericalError when the value or the gradient is not finite."""
        # an overflow (an f' at a small lambda_2) is the NumericalError below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if self.entry.spectral:
                spectrum = eig_sym(self.topology.laplacian_of(weights))
                # a lambda_2 above the solve's error bound proves the nonzero spectrum positive
                if not spectrum.eigenvalues[1] > spectrum.error_bound:
                    raise ConnectivityError("lambda_2 is within the solve's error bound: "
                                            "the weights disconnect the topology")
                value, gradient = self._at(weights, spectrum)
            else:
                weights = np.asarray(weights, dtype=float)
                us, vs = self.topology._pairs[weights > 0.0].T
                if not _connected(self.topology.n, us, vs):
                    raise ConnectivityError("the weights disconnect the topology")
                degrees = self.topology.degrees_of(weights)
                value = self.entry.value(degrees, self.measure)
                grad = self.entry.grad(degrees, self.measure, value)
                us, vs = self.topology._pairs.T
                gradient = grad[us] + grad[vs]  # w_e adds to both end degrees
        if not (math.isfinite(value) and np.isfinite(gradient).all()):
            raise NumericalError(f"{self.measure.label()} or its gradient is not finite")
        return value, gradient

    def _at(self, weights: np.ndarray, spectrum: Spectrum) -> tuple[float, np.ndarray]:
        """The value and edge gradient at weights whose Laplacian has this spectrum."""
        # chain rule: d lambda_i / d w_e is (v_i[u] - v_i[v])^2 for edge e = (u, v)
        value = self.entry.value(spectrum.nonzero, self.measure)
        grad = self.entry.grad(spectrum.nonzero, self.measure, value)
        vectors = spectrum.eigenvectors[:, 1:]
        us, vs = self.topology._pairs.T
        return value, (vectors[us] - vectors[vs]) ** 2 @ grad


def _frank_wolfe_gap(weights: np.ndarray, gradient: np.ndarray) -> float:
    """g.w - min g: by convexity, f(w) - f* over the simplex is at most this
    for any (sub)gradient g at w (Jaggi, ICML 2013)."""
    return float(weights @ gradient - gradient.min())


def _allowance(value: float, tol: float) -> float:
    return tol * max(1.0, abs(value))


def _certified(weights: np.ndarray, value: float, gradient: np.ndarray, tol: float) -> bool:
    return _frank_wolfe_gap(weights, gradient) <= _allowance(value, tol)


def _allocation_result(weights: np.ndarray, value: float, gradient: np.ndarray,
                       iterations: int, history: list[float], tol: float,
                       stalled: bool = False, gap: float | None = None
                       ) -> WeightAllocationResult:
    """The result at `weights`; the gap is its Frank-Wolfe gap unless given,
    reported as 0.0 where rounding makes it negative (objective - optimum is
    not), which leaves the termination as it is."""
    gap = _frank_wolfe_gap(weights, gradient) if gap is None else gap
    gap = max(gap, 0.0)
    support = weights > SUPPORT_TOL
    supported = gradient[support]
    residual = float(np.abs(supported - supported.mean()).max())
    termination = ("converged" if gap <= _allowance(value, tol)
                   else "line_search_stall" if stalled else "max_iters")
    return WeightAllocationResult(weights=weights, objective=value, iterations=iterations,
                                  stationarity_residual=residual,
                                  active_set=tuple(int(i) for i in np.nonzero(~support)[0]),
                                  gap=gap, termination=termination, history=tuple(history))


def optimize_weights(topology: Topology, measure: MeasureDescriptor,
                     options: SolverOptions | None = None) -> WeightAllocationResult:
    """Minimize a measure over the unit simplex of edge weights.

    Projected gradient descent from the uniform start with Armijo
    backtracking along the projection arc; steps that disconnect the graph
    are rejected like failed line-search steps.  It stops once the iterate's
    gap g.w - min g is at most tol * max(1, |f|); else a failed line search
    or max_iters ends it, as `termination` says.  A measure k/lambda_2 is
    descended in stages on F_p = zeta_measure(p, k=1), p = FIRST_P *
    P_FACTOR^j, each from the point of largest lambda_2 so far to a relative
    gap of ln(n-1)/p, F_p's bias (1/lambda_2 <= F_p <= (n-1)^(1/p)/lambda_2);
    the last, where (n-1)^(1/p) rounds to 1, runs to the shared max_iters or
    a stall.  Its result is that point, with the gap of _Surrogate's bound
    and the objective after each stage as history.  No edges (one node):
    DomainError; a value or gradient that is not finite: NumericalError.
    """
    options = options or SolverOptions()
    if topology.m == 0:
        raise DomainError("the topology has no edges to weight")
    weights = np.full(topology.m, 1.0 / topology.m)
    if not _is_nonsmooth(measure):
        objective = _Objective(topology, measure)
        return _descend(objective, weights, *objective.value_and_gradient(weights),
                        options.max_iters, options.tol)
    surrogate = _Surrogate(topology, MeasureDescriptor("zeta_measure", p=FIRST_P))
    surrogate.value_and_gradient(weights)  # the uniform start is the first best point
    target = _Objective(topology, measure)
    history, iterations, p, last = [], 0, FIRST_P, False
    while True:
        weights, spectrum = surrogate.best
        objective, subgradient = target._at(weights, spectrum)
        history.append(objective)
        # objective * lambda_2 is k
        gap = objective * (1.0 - float(spectrum.nonzero[0]) * surrogate.lower)
        if (gap <= _allowance(objective, options.tol) or last
                or iterations == options.max_iters):
            return _allocation_result(weights, objective, subgradient, iterations, history,
                                      options.tol, stalled=iterations < options.max_iters,
                                      gap=gap)
        surrogate.measure = MeasureDescriptor("zeta_measure", p=p)
        last = (topology.n - 1) ** (1.0 / p) == 1.0
        iterations += _descend(surrogate, weights, *surrogate._at(weights, spectrum),
                               options.max_iters - iterations,
                               0.0 if last else math.log(topology.n - 1) / p).iterations
        p *= P_FACTOR


def _descend(objective: _Objective, weights: np.ndarray, value: float,
             gradient: np.ndarray, max_iters: int, tol: float) -> WeightAllocationResult:
    """Projected gradient descent from weights with this value and gradient."""
    history = [value]
    step = STEP_INIT
    iterations = 0
    while iterations < max_iters and not _certified(weights, value, gradient, tol):
        accepted = tried = None
        t = step
        for _ in range(MAX_BACKTRACKS):
            candidate = project_simplex(weights - t * gradient)
            move = candidate - weights
            move_norm2 = float(move @ move)
            if move_norm2 == 0.0:
                break
            # a saturated projection can give the point just rejected again;
            # the Armijo threshold only tightens as t halves, and a point
            # that disconnects the graph still does, so it is not solved again
            if tried is not None and np.array_equal(candidate, tried):
                t *= 0.5
                continue
            tried = candidate
            try:
                evaluated = objective.value_and_gradient(candidate)
            except ConnectivityError:
                t *= 0.5
                continue
            if evaluated[0] <= value - (ARMIJO / t) * move_norm2:
                accepted = evaluated
                break
            t *= 0.5
        if accepted is None:
            return _allocation_result(weights, value, gradient, iterations, history,
                                      tol, stalled=True)
        weights, (value, gradient) = candidate, accepted
        step = 2.0 * t
        iterations += 1
        history.append(value)
    return _allocation_result(weights, value, gradient, iterations, history, tol)


FIRST_P = 8.0  # the surrogate's exponent in the first stage
P_FACTOR = 4.0  # its growth from one stage to the next


class _Surrogate(_Objective):
    """zeta_measure(p, k=1), keeping the evaluated point of largest lambda_2 and
    the best lower bound on min 1/lambda_2: with h = dF/dlambda, Y = sum h_i
    v_i v_i^T / sum h gives lambda_2(w) <= <L(w), Y> <= max_e gradient_e / sum h
    on the simplex.  It is F S / (F + gap), S = sum lambda^(-p-1) / sum lambda^-p
    >= F / (n-1)^(1/p): at least the sandwich bound (F - gap) / (n-1)^(1/p)."""

    best: tuple[np.ndarray, Spectrum] | None = None
    lower = 0.0

    def _at(self, weights: np.ndarray, spectrum: Spectrum) -> tuple[float, np.ndarray]:
        value, gradient = super()._at(weights, spectrum)
        mixed = self.entry.grad(spectrum.nonzero, self.measure, value).sum()
        self.lower = max(self.lower, float(mixed / gradient.min()))
        if self.best is None or spectrum.nonzero[0] > self.best[1].nonzero[0]:
            self.best = weights, spectrum
        return value, gradient


# ---------------------------------------------------------------------------
# exhaustive rewiring over all connected graphs with n nodes and m edges

# one relabeling takes 5-15 us on a Xeon core, more with more edges: rewiring
# at (n, m) = (6, 7), 4,633,200 relabelings, takes 23 s, and (7, 10) hours
MAX_RELABELINGS = 5_000_000


@dataclass(frozen=True)
class RankingEntry:
    edges: tuple[tuple[int, int], ...]
    value: float


@dataclass(frozen=True)
class RewireResult:
    best: WeightedGraph
    value: float
    ranking: tuple[RankingEntry, ...]


def _check_relabelings(n: int, m: int | None = None) -> None:
    """ScaleError unless the n! node relabelings of one edge set, or of each
    of the C(n(n-1)/2, m) labeled m-edge sets, fit MAX_RELABELINGS.  n! is
    multiplied out only while it fits, so a large n is refused at once."""
    work = 1
    for factor in range(2, n + 1):
        work *= factor
        if work > MAX_RELABELINGS:
            break
    else:
        work *= 1 if m is None else math.comb(n * (n - 1) // 2, m)
    if work > MAX_RELABELINGS:
        sets = "one edge set" if m is None else f"C({n * (n - 1) // 2}, {m}) edge sets"
        raise ScaleError(f"canonical forms of {sets} on n={n} nodes need over "
                         f"{MAX_RELABELINGS} node relabelings")


def canonical_edges(n: int, pairs: tuple[tuple[int, int], ...]
                    ) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest relabeling of an edge set over all n! node
    permutations; ScaleError when n! exceeds MAX_RELABELINGS.  n and the
    pairs, in either orientation, are read and checked as a unit-weight graph's are."""
    WeightedGraph._from_arrays(*_read_edges(n, pairs, 2))
    _check_relabelings(n)
    best: tuple[tuple[int, int], ...] | None = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                                 for u, v in pairs))
        if best is None or relabeled < best:
            best = relabeled
    return best


def rewire_bruteforce(n: int, m: int, alpha: float,
                      measure: MeasureDescriptor) -> RewireResult:
    """Rank all connected n-node m-edge graphs (equal weights alpha/m) by a measure.

    Isomorphic labelings are merged through canonical forms, so the ranking is
    one entry per isomorphism class, ascending by value with lexicographic
    tie-breaking.  ScaleError, before any enumeration, when the labeled
    m-edge sets times their n! relabelings exceed MAX_RELABELINGS.
    """
    _check_integer("node count n", n, 2)
    _check_integer("edge count m", m, 0)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"total weight alpha must be positive and finite, got {alpha}")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise DomainError(f"edge count m={m} infeasible for connected n={n}")
    _check_relabelings(n, m)
    all_us, all_vs = np.triu_indices(n, 1)
    all_pairs = list(zip(all_us.tolist(), all_vs.tolist()))
    weight = alpha / m
    classes: set[tuple[tuple[int, int], ...]] = set()
    for combo in itertools.combinations(range(len(all_pairs)), m):
        chosen = np.array(combo)
        if _connected(n, all_us[chosen], all_vs[chosen]):
            classes.add(canonical_edges(n, tuple(all_pairs[i] for i in combo)))

    def graph_of(pairs: tuple[tuple[int, int], ...]) -> WeightedGraph:
        return WeightedGraph.from_edges(n, [(u, v, weight) for u, v in pairs])

    # edge sets are distinct, so (value, edges) orders the classes totally
    ranking = tuple(sorted((RankingEntry(edges=pairs, value=evaluate(graph_of(pairs), measure))
                            for pairs in classes), key=lambda e: (e.value, e.edges)))
    return RewireResult(best=graph_of(ranking[0].edges), value=ranking[0].value,
                        ranking=ranking)


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
    most k index positions; the bound is the schur_sum measure of the
    original eigenvalues from position k+2 upward (1-based), and 0 once that
    range is empty.
    An added edge of unbounded weight sends an eigenvalue to infinity, so the
    bound needs f(inf) = 0, which every f of get_spectral_function has.
    """
    _check_integer("edge budget k", k, 0)
    measure = MeasureDescriptor("schur_sum", f_id=f_id)
    tail = graph_spectrum(graph).eigenvalues[k + 1:]
    return evaluate_eigenvalues(tail, measure) if tail.size else 0.0


def greedy_augment(graph: WeightedGraph, k: int,
                   candidates: list[tuple[int, int, float]], f_id: str,
                   mode: str = "greedy") -> AugmentationReport:
    """Add up to k candidate edges minimizing a sum-of-f measure.

    The candidates are read by graphs._read_edges, each pair put as u < v,
    so an entry that is not a triple, an endpoint that is not an integer or
    does not fit in intp, or a weight that is not a real number is a
    GraphFormatError; other defects are named when scored.
    Greedy picks the best (edge, budget-weight) candidate one step at a time;
    mode="exhaustive" scores every subset of at most k candidates on distinct
    pairs, and raises ScaleError before scoring any when there are over 1e5.
    Candidates on an existing edge are skipped, and so is a second candidate
    on an added pair, so graph_add, which adds each candidate set to the
    graph, sums no weights.  Each augmented graph is solved values-only
    without graph_spectrum's cache, which it would only fill, and scored as
    its schur_sum measure, ties broken by the candidates.  The report carries
    the achieved value, the rank-k spectral bound computed from the original
    spectrum, and their gap.
    """
    if not candidates:
        raise InputError("empty candidate edge set")
    bound = fundamental_limit(graph, k, f_id)
    measure = MeasureDescriptor("schur_sum", f_id=f_id)
    _, *columns = _read_edges(graph.n, candidates, 3)
    normalized = list(zip(*(array.tolist() for array in columns)))
    existing = set(zip(graph._us.tolist(), graph._vs.tolist()))
    usable = [c for c in normalized if c[:2] not in existing]

    def score(subset: tuple[tuple[int, int, float], ...]) -> float:
        augmented = graph_add(graph, WeightedGraph.from_edges(graph.n, subset))
        nonzero = laplacian_spectrum(augmented, vectors=False).nonzero
        return evaluate_eigenvalues(nonzero, measure)

    if mode == "greedy":
        # with no edge added the value is the graph's own, from the spectrum the bound cached
        chosen: tuple[tuple[int, int, float], ...] = ()
        achieved = evaluate(graph, measure)
        for _ in range(k):
            if not usable:
                break
            achieved, best = min((score(chosen + (c,)), c) for c in usable)
            chosen += (best,)
            usable = [c for c in usable if c[:2] != best[:2]]
    elif mode == "exhaustive":
        by_pair: dict[tuple[int, int], list[int]] = {}
        for i, c in enumerate(usable):
            by_pair.setdefault(c[:2], []).append(i)
        # counts[j]: subsets of j candidates on distinct pairs, the elementary
        # symmetric polynomial e_j of the per-pair candidate counts
        counts = [1] + [0] * k
        for group in by_pair.values():
            for j in range(k, 0, -1):
                counts[j] += counts[j - 1] * len(group)
        total = sum(counts)
        if total > 100_000:
            raise ScaleError(f"exhaustive augmentation over {total} subsets exceeds 1e5")
        # each subset keeps its candidates in input order
        subsets = (tuple(usable[i] for i in sorted(picks)) for size in range(k + 1)
                   for groups in itertools.combinations(by_pair.values(), size)
                   for picks in itertools.product(*groups))
        achieved, chosen = min((score(subset), subset) for subset in subsets)
    else:
        raise DomainError(f"unknown augmentation mode {mode!r}")
    return AugmentationReport(added=chosen, achieved=achieved, bound=bound,
                              gap=achieved - bound)
