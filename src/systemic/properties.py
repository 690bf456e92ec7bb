"""Empirical axiom checks: homogeneity, monotonicity, convexity, subadditivity,
orthogonal invariance and Schur-convexity, run as seeded falsification searches.

run_check(property_id, measure, ...) is the one entry point for a check.
Each property is one entry (salt, trial) of _PROPERTIES, so a new property is
a new entry.  A trial draws all of its randomness from a stream derived from
(seed, trial index, salt), so any recorded violation can be replayed
bit-for-bit with replay_trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import (WeightedGraph, _check_integer, generate, graph_add, laplacian,
                     scalar_mul)
from .measures import MeasureDescriptor, evaluate, evaluate_eigenvalues, is_spectral
from .spectral import eig_sym

DEFAULT_TOL = 1e-8
DEFAULT_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_NODE_RANGE = (3, 20)

# (lhs, rhs, allowance, description); a violation is lhs > rhs + allowance
Assertion = tuple[float, float, float, str]


@dataclass(frozen=True)
class Violation:
    trial: int
    description: str
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    measure: str
    trials: int
    violations: tuple[Violation, ...]
    seed: int
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_connected(rng: np.random.Generator) -> WeightedGraph:
    n = int(rng.integers(DEFAULT_NODE_RANGE[0], DEFAULT_NODE_RANGE[1] + 1))
    p = float(rng.uniform(0.35, 0.9))
    graph_seed = int(rng.integers(0, 2**63 - 1))
    return generate("erdos_renyi", n, seed=graph_seed, p=p,
                    weight_range=(0.2, 5.0), max_retries=200)


def _second_graph(rng: np.random.Generator, n: int) -> WeightedGraph:
    """A second Erdős–Rényi graph on n nodes; its seed is drawn before its p."""
    graph_seed = int(rng.integers(0, 2**63 - 1))
    return generate("erdos_renyi", n, seed=graph_seed, p=float(rng.uniform(0.35, 0.9)),
                    weight_range=(0.2, 5.0), max_retries=200)


def _random_positive(rng: np.random.Generator, n: int) -> WeightedGraph:
    """A sparse positively weighted graph on n nodes (connectivity not required)."""
    us, vs = np.triu_indices(n, 1)
    count = int(rng.integers(1, max(2, n)))
    chosen = rng.choice(us.size, size=min(count, us.size), replace=False)
    weights = rng.uniform(0.2, 5.0, size=chosen.size)
    return WeightedGraph.from_edges(n, list(zip(us[chosen], vs[chosen], weights)))


def _allowance(tol: float, *values: float) -> float:
    scale = max((abs(v) for v in values), default=0.0)
    return tol + tol * scale


def _homogeneity_trial(measure: MeasureDescriptor, rng: np.random.Generator,
                       tol: float) -> list[Assertion]:
    """Scaling weights by kappa must divide the measure by kappa."""
    graph = _random_connected(rng)
    kappa = float(rng.uniform(0.1, 10.0))
    base = evaluate(graph, measure)
    scaled = evaluate(scalar_mul(kappa, graph), measure)
    expected = base / kappa
    description = f"n={graph.n} m={graph.m} kappa={kappa!r}"
    return [(abs(scaled - expected), 0.0, tol * abs(base), description)]


def _monotonicity_trial(measure: MeasureDescriptor, rng: np.random.Generator,
                        tol: float) -> list[Assertion]:
    """Adding edges (shrinking the pseudo-inverse) must not increase the measure.

    The denser graph is the sparser one plus positively weighted edges, so
    its Laplacian dominates and its pseudo-inverse is smaller in the Loewner
    order by construction; the trial compares the measures alone.
    """
    sparser = _random_connected(rng)
    denser = graph_add(sparser, _random_positive(rng, sparser.n))
    description = f"n={sparser.n} m={sparser.m}->{denser.m}"
    lhs = evaluate(denser, measure)
    rhs = evaluate(sparser, measure)
    return [(lhs, rhs, _allowance(tol, lhs, rhs), description)]


def _mix(g1: WeightedGraph, g2: WeightedGraph, alpha: float) -> WeightedGraph:
    if alpha <= 0.0:
        return g2
    if alpha >= 1.0:
        return g1
    return graph_add(scalar_mul(alpha, g1), scalar_mul(1.0 - alpha, g2))


def _convexity_trial(measure: MeasureDescriptor, rng: np.random.Generator,
                     tol: float) -> list[Assertion]:
    """The measure of a Laplacian convex combination is at most the same
    combination of the measures, at each alpha of the grid."""
    first = _random_connected(rng)
    second = _second_graph(rng, first.n)
    value_first = evaluate(first, measure)
    value_second = evaluate(second, measure)
    assertions = []
    for alpha in DEFAULT_ALPHA_GRID:
        lhs = evaluate(_mix(first, second, alpha), measure)
        rhs = alpha * value_first + (1.0 - alpha) * value_second
        description = f"n={first.n} alpha={alpha!r}"
        assertions.append((lhs, rhs, _allowance(tol, lhs, rhs), description))
    return assertions


def _subadditivity_trial(measure: MeasureDescriptor, rng: np.random.Generator,
                         tol: float) -> list[Assertion]:
    """The measure of an edge union is at most the sum of the measures."""
    first = _random_connected(rng)
    second = _second_graph(rng, first.n)
    lhs = evaluate(graph_add(first, second), measure)
    rhs = evaluate(first, measure) + evaluate(second, measure)
    description = f"n={first.n} m1={first.m} m2={second.m}"
    return [(lhs, rhs, _allowance(tol, lhs, rhs), description)]


def _orthogonal_trial(measure: MeasureDescriptor, rng: np.random.Generator,
                      tol: float) -> list[Assertion]:
    """Conjugating the Laplacian by a random orthogonal matrix must not move
    an eigenvalue-based measure; the rotated matrix is generally not a
    Laplacian, so the measure is evaluated on its spectrum directly."""
    graph = _random_connected(rng)
    q, r = np.linalg.qr(rng.normal(size=(graph.n, graph.n)))
    u = q * np.sign(np.diag(r))  # Haar-distributed
    rotated = u @ laplacian(graph) @ u.T  # eig_sym symmetrizes it
    base = evaluate(graph, measure)
    conjugated = evaluate_eigenvalues(eig_sym(rotated, vectors=False).eigenvalues[1:], measure)
    description = f"n={graph.n} m={graph.m}"
    return [(abs(conjugated - base), 0.0, _allowance(tol, base), description)]


def _schur_trial(measure: MeasureDescriptor, rng: np.random.Generator,
                 tol: float) -> list[Assertion]:
    """A random doubly stochastic matrix (a Birkhoff combination of
    permutations) applied to a positive vector, read as a spectrum, must not
    increase the measure."""
    dim = int(rng.integers(max(2, DEFAULT_NODE_RANGE[0] - 1), DEFAULT_NODE_RANGE[1]))
    x = rng.uniform(0.1, 10.0, size=dim)
    terms = int(rng.integers(2, 6))
    theta = rng.dirichlet(np.ones(terms))
    mixed = np.zeros(dim)
    for weight in theta:
        mixed += weight * x[rng.permutation(dim)]
    lhs = evaluate_eigenvalues(mixed, measure)
    rhs = evaluate_eigenvalues(x, measure)
    description = f"dim={dim} birkhoff_terms={terms}"
    return [(lhs, rhs, _allowance(tol, lhs, rhs), description)]


# the salts decorrelate the properties' streams and stay fixed so violations replay
_PROPERTIES = {
    "homogeneity": (1, _homogeneity_trial),
    "monotonicity": (2, _monotonicity_trial),
    "convexity": (3, _convexity_trial),
    "subadditivity": (4, _subadditivity_trial),
    "orthogonal_invariance": (5, _orthogonal_trial),
    "schur_convexity": (6, _schur_trial),
}


def _trial(property_id: str, measure: MeasureDescriptor, seed: int, trial: int,
           tol: float) -> list[Assertion]:
    """One trial of a property, drawn from the stream of (seed, trial, salt)."""
    if property_id not in _PROPERTIES:
        raise DomainError(f"unknown property {property_id!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    _check_integer("seed", seed, 0)
    _check_integer("trial", trial, 0)
    salt, trial_fn = _PROPERTIES[property_id]
    if trial_fn in (_orthogonal_trial, _schur_trial) and not is_spectral(measure):
        raise DomainError(f"{measure.id} is not eigenvalue-based")
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(salt, trial))
    rng = np.random.Generator(np.random.PCG64(sequence))
    return trial_fn(measure, rng, tol)


def run_check(property_id: str, measure: MeasureDescriptor, trials: int = 200,
              seed: int = 0, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Run `trials` seeded trials of one property check and collect its violations.

    property_id names an entry of _PROPERTIES (homogeneity, monotonicity,
    convexity, subadditivity, orthogonal_invariance, schur_convexity); each
    trial function states its axiom.  Graphs are drawn with node counts in
    DEFAULT_NODE_RANGE, and the convexity check mixes at every alpha of
    DEFAULT_ALPHA_GRID.  The last two checks need an eigenvalue-based measure.
    """
    _check_integer("trials", trials, 1)
    violations = []
    for trial in range(trials):
        for lhs, rhs, allowance, description in _trial(property_id, measure, seed, trial, tol):
            margin = lhs - rhs - allowance
            if margin > 0.0:
                violations.append(Violation(trial=trial, description=description,
                                            lhs=lhs, rhs=rhs, margin=margin))
    return PropertyReport(property_id=property_id, measure=measure.label(), trials=trials,
                          violations=tuple(violations), seed=seed, tol=tol)


def replay_trial(property_id: str, measure: MeasureDescriptor, seed: int, trial: int,
                 tol: float = DEFAULT_TOL) -> list[Assertion]:
    """Re-run one trial of run_check; identical inputs give identical bits."""
    return _trial(property_id, measure, seed, trial, tol)
