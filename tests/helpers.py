"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own spectral pipeline:
spanning trees are enumerated, reference spectra are analytic or come from
numpy's LAPACK bindings, and the grid search scans the weight simplex by
brute force.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from systemic import (DomainError, GenerationError, GraphFormatError, MeasureDescriptor,
                      SimConfig, Topology, WeightedGraph, generate, laplacian)
from systemic import sim


def brute_force_tree_weight(graph: WeightedGraph) -> float:
    """Sum over all spanning trees of the product of edge weights, by enumeration."""
    n = graph.n
    if n == 1:
        return 1.0
    total = 0.0
    for subset in itertools.combinations(graph.edges, n - 1):
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        components = n
        acyclic = True
        for u, v, _ in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
            components -= 1
        if acyclic and components == 1:
            product = 1.0
            for _, _, w in subset:
                product *= w
            total += product
    return total


def analytic_spectrum(family: str, n: int) -> np.ndarray:
    """Closed-form Laplacian spectra of the unit-weight graph families."""
    if family == "complete":
        values = [0.0] + [float(n)] * (n - 1)
    elif family == "cycle":
        values = [2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
    elif family == "path":
        values = [2.0 - 2.0 * math.cos(math.pi * k / n) for k in range(n)]
    elif family == "star":
        values = [0.0] + [1.0] * (n - 2) + [float(n)]
    else:
        raise ValueError(family)
    return np.sort(np.asarray(values))


def random_connected(seed: int, n_low: int = 3, n_high: int = 12,
                     weight_range: tuple[float, float] = (0.2, 5.0)) -> WeightedGraph:
    """Seeded random connected graph with moderate weights."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(n_low, n_high + 1))
    p = float(rng.uniform(0.35, 0.9))
    return generate("erdos_renyi", n, seed=int(rng.integers(2**62)), p=p,
                    weight_range=weight_range)


def simplex_grid(m: int, resolution: float) -> np.ndarray:
    """All points of the (m-1)-simplex on a grid with the given step."""
    steps = int(round(1.0 / resolution))
    if m == 2:
        first = np.arange(steps + 1) * resolution
        return np.column_stack([first, 1.0 - first])
    if m == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = (i + j) <= steps
        first = i[keep] * resolution
        second = j[keep] * resolution
        return np.column_stack([first, second, 1.0 - first - second])
    raise ValueError("grid oracle supports m in {2, 3}")


def loop_laplacian(graph: WeightedGraph) -> np.ndarray:
    """Loop reference for `graphs.laplacian`: the adjacency filled and the
    degrees summed edge by edge, in edge order."""
    n = graph.n
    adjacency = np.zeros((n, n))
    degrees = np.zeros(n)
    for u, v, w in graph.edges:
        adjacency[u, v] = w
        adjacency[v, u] = w
        degrees[u] += w
        degrees[v] += w
    return np.diag(degrees) - adjacency


def loop_validate(n: int, edges) -> tuple:
    """Loop reference for the `WeightedGraph` checks, which `from_edges`
    shares: the node count, then every edge read (three entries each, then
    the endpoints converted with index() in input order, each held by an
    int64, then the weights with unary plus, complex refused), each pair put
    as u <= v, then edge by edge in input order a self-loop, the range, the
    weight and a duplicate, named by the values read; returns the sorted
    edge tuple."""
    if n < 1:
        raise DomainError(f"node count must be positive, got {n}")
    for edge in edges:
        if not hasattr(edge, "__len__") or len(edge) != 3:
            raise GraphFormatError(f"edges must be (u, v, w) triples, got {edge!r}")
    ends = []
    try:
        for u, v, _ in edges:
            pair = (operator.index(u), operator.index(v))
            for end in pair:
                if not -2**63 <= end < 2**63:
                    raise GraphFormatError(f"edge endpoint {end} is out of range")
            ends.append((min(pair), max(pair)))
    except TypeError as exc:
        raise GraphFormatError(f"edge endpoints must be integers: {exc}") from None
    weights = []
    try:
        for _, _, w in edges:
            if isinstance(w, (complex, np.complexfloating)):
                raise GraphFormatError(f"edge weights must be numbers: {w!r} is complex")
            weights.append(float(+w))
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"edge weights must be numbers: {exc}") from None
    seen = set()
    for (u, v), w in zip(ends, weights):
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}")
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge ({u}, {v}) needs 0 <= u < v < {n}")
        if not (w > 0.0 and math.isfinite(w)):
            raise DomainError(f"edge ({u}, {v}) needs a positive finite weight, got {w}")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return tuple(sorted((u, v, w) for (u, v), w in zip(ends, weights)))


def loop_graph_add(g1: WeightedGraph, g2: WeightedGraph) -> tuple:
    """Loop reference for `graph_add`: the sorted edge tuple of the union,
    the weights of shared edges summed in a dict."""
    weights = {(u, v): w for u, v, w in g1.edges}
    for u, v, w in g2.edges:
        weights[(u, v)] = weights.get((u, v), 0.0) + w
    return tuple(sorted((u, v, w) for (u, v), w in weights.items()))


def loop_is_connected(n: int, edges) -> bool:
    """Loop reference for `is_connected`: depth-first search over an
    adjacency list built edge by edge."""
    if n == 1:
        return True
    neighbors = [[] for _ in range(n)]
    for u, v, *_ in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for other in neighbors[node]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == n


def loop_generate(family: str, n: int, *, seed: int = 0, p: float = 0.5,
                  weight_range: tuple[float, float] | None = None) -> tuple:
    """Loop reference for `generate`: the sorted edge tuple built pair by
    pair, drawing from the generator in the same order, at most 100
    Erdos-Renyi draws (`graphs.GENERATION_RETRIES`)."""
    if n < 2:
        raise DomainError(f"generators need n >= 2, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))

    def weighted(pairs):
        if weight_range is None:
            weights = np.ones(len(pairs))
        else:
            lo, hi = weight_range
            if not (0 < lo <= hi < math.inf):
                raise DomainError(
                    f"weight range must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
            weights = rng.uniform(lo, hi, size=len(pairs))
        return loop_validate(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])

    if family == "complete":
        return weighted([(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "cycle":
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        return weighted([(i, (i + 1) % n) for i in range(n)])
    if family == "path":
        return weighted([(i, i + 1) for i in range(n - 1)])
    if family == "star":
        return weighted([(0, i) for i in range(1, n)])
    if family != "erdos_renyi":
        raise DomainError(f"unknown family {family!r}")
    if not (0 < p <= 1):
        raise DomainError(f"edge probability must be in (0, 1], got {p}")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(100):
        mask = rng.random(len(all_pairs)) < p
        edges = weighted([pair for pair, hit in zip(all_pairs, mask) if hit])
        if loop_is_connected(n, edges):
            return edges
    raise GenerationError(f"no connected draw in 100 tries (n={n}, p={p})")


def loop_estimate_h2(graph: WeightedGraph, cfg: SimConfig) -> tuple[float, float]:
    """Serial reference for `sim.estimate_h2` on a valid configuration: the
    trials' noise drawn one trial after another for each chunk of steps,
    stacked, and only then stepped through, with a fresh state per step. A
    chunk is as many steps as fit trials x n doubles into
    `sim.NOISE_BUFFER_BYTES`, at least one and at most the run's steps."""
    n = graph.n
    total_steps = int(round(cfg.horizon / cfg.dt))
    burn_steps = int(round(cfg.burn_in / cfg.dt))
    chunk_steps = max(1, min(total_steps, sim.NOISE_BUFFER_BYTES // (8 * cfg.trials * n)))
    sqrt_dt = math.sqrt(cfg.dt)
    step_matrix = np.eye(n) - cfg.dt * laplacian(graph)
    initial = np.zeros(n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    state = np.tile(initial - initial.mean(), (cfg.trials, 1))
    generators = [np.random.Generator(np.random.Philox(key=np.array(
        [cfg.seed, trial], dtype=np.uint64)))
        for trial in range(cfg.trials)]
    sums = np.zeros(cfg.trials)
    kept = 0
    step = 0
    states = np.empty((cfg.trials, chunk_steps, n))  # trial-major, as the library sums
    while step < total_steps:
        chunk = min(chunk_steps, total_steps - step)
        noise = np.stack([g.standard_normal((chunk, n)) for g in generators], axis=1)
        noise -= noise.mean(axis=2, keepdims=True)
        noise *= sqrt_dt
        for local in range(chunk):
            state = state @ step_matrix + noise[local]
            states[:, local] = state
        first_kept = max(burn_steps - step, 0)
        if first_kept < chunk:
            sums += np.einsum("isj,isj->i", states[:, first_kept:chunk],
                              states[:, first_kept:chunk])
            kept += chunk - first_kept
        step += chunk
    per_trial = sums / kept
    estimate = float(np.mean(per_trial))
    if cfg.trials == 1:
        return estimate, math.nan
    return estimate, float(np.std(per_trial, ddof=1) / math.sqrt(cfg.trials))


def decay_rate(graph: WeightedGraph, cfg: SimConfig) -> float:
    """Oracle for lambda_2: the fitted exponential decay rate of the
    noise-free disagreement norm from cfg.x0, stepped with cfg.dt.

    With the disturbance switched off, the disagreement decays like
    exp(-lambda_2 t) once faster modes die out; the rate is fitted by least
    squares on the log-norm over the second half of the horizon. The matrix
    comes from `laplacian`, never from the package's spectra.
    """
    matrix = laplacian(graph)
    initial = np.zeros(graph.n) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    state = initial - initial.mean()
    norm0 = float(np.linalg.norm(state))
    if norm0 == 0.0:
        raise DomainError("x0 has no disagreement component; nothing decays")
    total_steps = cfg.total_steps
    norms = np.empty(total_steps + 1)
    norms[0] = norm0
    for step in range(total_steps):
        state = state - cfg.dt * (matrix @ state)
        norms[step + 1] = np.linalg.norm(state)
    start = total_steps // 2
    if np.any(norms[start:] <= 0.0):
        raise DomainError("disagreement reached zero; shorten the horizon")
    times = cfg.dt * np.arange(start, total_steps + 1)
    slope = np.polyfit(times, np.log(norms[start:]), 1)[0]
    return -float(slope)


def count_edge_reads(monkeypatch) -> list:
    """Wrap the `WeightedGraph.edges` property for the rest of the test; each
    read appends the graph's id to the returned list."""
    reads = []
    build = WeightedGraph.edges.fget

    def counted(graph):
        reads.append(id(graph))
        return build(graph)
    monkeypatch.setattr(WeightedGraph, "edges", property(counted))
    return reads


def loop_topology_laplacian(topology: Topology, weights: np.ndarray) -> np.ndarray:
    """Loop reference for `Topology.laplacian_of`: every entry accumulated
    edge by edge, in edge order."""
    matrix = np.zeros((topology.n, topology.n))
    for (u, v), w in zip(topology.edges, weights):
        matrix[u, u] += w
        matrix[v, v] += w
        matrix[u, v] -= w
        matrix[v, u] -= w
    return matrix


def batched_laplacians(topology: Topology, weights: np.ndarray) -> np.ndarray:
    batch = weights.shape[0]
    matrices = np.zeros((batch, topology.n, topology.n))
    for index, (u, v) in enumerate(topology.edges):
        w = weights[:, index]
        matrices[:, u, u] += w
        matrices[:, v, v] += w
        matrices[:, u, v] -= w
        matrices[:, v, u] -= w
    return matrices


def grid_min_energy1(topology: Topology, resolution: float = 1e-3,
                     chunk: int = 120_000) -> tuple[float, np.ndarray]:
    """Brute-force minimum of the first-order energy over the weight simplex."""
    return grid_min(topology, lambda nonzero: np.sum(0.5 / nonzero, axis=1),
                    resolution, chunk)


def grid_min_inverse_lambda2(topology: Topology, resolution: float = 1e-2
                             ) -> tuple[float, np.ndarray]:
    """Brute-force minimum of 1 / lambda_2 over the weight simplex."""
    return grid_min(topology, lambda nonzero: 1.0 / nonzero[:, 0], resolution)


def grid_min(topology: Topology, value, resolution: float,
             chunk: int = 120_000) -> tuple[float, np.ndarray]:
    """Brute-force minimum over the weight simplex of value(nonzero
    eigenvalues, one row per grid point); a point whose lambda_2 is at most
    1e-9 is disconnected and skipped.

    Eigenvalues come from numpy's eigvalsh, so this oracle is independent of
    the package eigensolver as well as of its optimizer.
    """
    points = simplex_grid(topology.m, resolution)
    best_value = np.inf
    best_weights = points[0]
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        lam = np.linalg.eigvalsh(batched_laplacians(topology, block))
        nonzero = lam[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(nonzero[:, 0] > 1e-9, value(nonzero), np.inf)
        local = int(np.argmin(values))
        if values[local] < best_value:
            best_value = float(values[local])
            best_weights = block[local]
    return best_value, best_weights


# At least one descriptor per catalog id, plus the parameter values where
# closed forms change regime: p = inf (1/lambda_2) and p = 2000 (the power
# sum leaves the floating-point range).
MEASURE_CASES = [
    MeasureDescriptor("zeta_measure", p=2.0, k=0.7),
    MeasureDescriptor("zeta_measure", p=math.inf),
    MeasureDescriptor("zeta_measure", p=2000.0),
    MeasureDescriptor("hp_norm", p=3.0),
    MeasureDescriptor("hp_norm", p=1.5),
    MeasureDescriptor("hp_norm", p=math.inf),
    MeasureDescriptor("hp_norm", p=2000.0),
    MeasureDescriptor("h2"),
    MeasureDescriptor("hinf"),
    MeasureDescriptor("energy1"),
    MeasureDescriptor("energy2"),
    MeasureDescriptor("convergence_time"),
    MeasureDescriptor("local_error"),
    MeasureDescriptor("entropy"),
    MeasureDescriptor("schur_sum", f_id="inverse_pow:2"),
    MeasureDescriptor("schur_sum", f_id="exp_decay:0.5"),
]
