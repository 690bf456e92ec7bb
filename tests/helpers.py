"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own spectral pipeline:
spanning trees are enumerated, reference spectra are analytic or come from
numpy's LAPACK bindings, and the grid search scans the weight simplex by
brute force.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from systemic import MeasureDescriptor, Topology, WeightedGraph, generate


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
                    weight_range=weight_range, max_retries=200)


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
    """Brute-force minimum of the first-order energy over the weight simplex.

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
            values = np.where(nonzero[:, 0] > 1e-9,
                              np.sum(0.5 / nonzero, axis=1), np.inf)
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
