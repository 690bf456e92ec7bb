"""Weighted undirected graphs: parsing, generators, Laplacians, graph algebra.

Graphs are finite, simple, undirected and positively weighted.  Edges are
stored canonically as (u, v, w) tuples with u < v, sorted by (u, v), which
makes equality, hashing and serialization deterministic.  A graph is immutable:
its hash and read-only endpoint and weight arrays are computed once, at
construction, and the Laplacian is assembled from those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index, itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, GenerationError, GraphFormatError

Edge = tuple[int, int, float]

GENERATOR_BITS = np.random.PCG64  # named, seedable 64-bit PRNG used everywhere


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with strictly positive edge weights."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"node count must be positive, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n):
                raise GraphFormatError(f"edge ({u}, {v}) needs 0 <= u < v < {self.n}")
            if not (w > 0.0 and math.isfinite(w)):
                raise DomainError(f"edge ({u}, {v}) has non-positive weight {w}")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        edges = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", edges)
        # the value the generated dataclass hash would recompute on every call
        object.__setattr__(self, "_hash", hash((self.n, edges)))
        m = len(edges)
        try:
            # index() refuses floats, which an intp array would truncate
            us, vs = (np.fromiter(map(index, map(itemgetter(column), edges)),
                                  dtype=np.intp, count=m) for column in (0, 1))
        except TypeError as exc:
            raise GraphFormatError(f"edge endpoints must be integers: {exc}") from None
        ws = np.fromiter(map(itemgetter(2), edges), dtype=float, count=m)
        for name, array in (("_us", us), ("_vs", vs), ("_ws", ws)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__, so copies and unpickled graphs recompute
        # the stored hash and arrays instead of carrying them over
        return type(self), (self.n, self.edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a graph, normalizing each pair to u < v."""
        normalized = []
        for u, v, w in edges:
            if u > v:
                u, v = v, u
            normalized.append((int(u), int(v), float(w)))
        return cls(n=n, edges=tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}


@dataclass(frozen=True)
class Laplacian:
    """Dense Laplacian of a weighted graph, with the degree vector alongside."""

    matrix: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.degrees.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def laplacian(graph: WeightedGraph) -> Laplacian:
    """Assemble the Laplacian as degree matrix minus adjacency matrix."""
    n = graph.n
    adjacency = np.zeros((n, n))
    adjacency[graph._us, graph._vs] = graph._ws
    adjacency[graph._vs, graph._us] = graph._ws
    degrees = adjacency.sum(axis=1)
    matrix = np.diag(degrees) - adjacency
    return Laplacian(matrix=matrix, degrees=degrees)


def centering_matrix(n: int) -> np.ndarray:
    """I - (1/n) * ones; projects onto the subspace orthogonal to the all-ones vector."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def graph_add(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Edge union; weights of shared edges add, so Laplacians add exactly."""
    if g1.n != g2.n:
        raise DimensionError(f"node counts differ: {g1.n} vs {g2.n}")
    weights = g1.weight_map()
    for (u, v), w in g2.weight_map().items():
        weights[(u, v)] = weights.get((u, v), 0.0) + w
    return WeightedGraph(n=g1.n, edges=tuple((u, v, w) for (u, v), w in weights.items()))


def scalar_mul(alpha: float, graph: WeightedGraph) -> WeightedGraph:
    """Scale every edge weight by alpha > 0."""
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise DomainError(f"scale factor must be positive, got {alpha}")
    return WeightedGraph(n=graph.n, edges=tuple((u, v, alpha * w) for u, v, w in graph.edges))


def is_connected(graph: WeightedGraph) -> bool:
    """True iff the graph has a single connected component (weights ignored)."""
    if graph.n == 1:
        return True
    neighbors: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v, _ in graph.edges:
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
    return len(seen) == graph.n


def spanning_tree_count(graph: WeightedGraph, drop_index: int = 0) -> float:
    """Weighted spanning-tree count via the determinant of the reduced Laplacian.

    Deleting any one row/column of the Laplacian and taking the determinant
    gives the sum over spanning trees of the product of their edge weights
    (Kirchhoff).  The determinant goes through LU with partial pivoting, so
    this is independent of the eigensolver and usable as an oracle against it.
    Disconnected graphs give 0 up to round-off.
    """
    if not (0 <= drop_index < graph.n):
        raise DomainError(f"drop_index {drop_index} out of range for n={graph.n}")
    full = laplacian(graph).matrix
    keep = [i for i in range(graph.n) if i != drop_index]
    reduced = full[np.ix_(keep, keep)]
    return float(np.linalg.det(reduced))


def parse_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format: comments (#), an `n <count>` header, then `u v w` lines."""
    n: int | None = None
    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphFormatError("expected header `n <count>`", line=lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"bad node count {tokens[1]!r}", line=lineno)
            if n < 1:
                raise GraphFormatError(f"node count must be positive, got {n}", line=lineno)
            continue
        if len(tokens) != 3:
            raise GraphFormatError("expected `u v w`", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise GraphFormatError(f"cannot parse edge line {line!r}", line=lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}", line=lineno)
        if u > v:
            u, v = v, u
        if not (0 <= u and v < n):
            raise GraphFormatError(f"edge ({u}, {v}) references a node >= n={n}", line=lineno)
        if w <= 0 or not math.isfinite(w):
            raise DomainError(f"line {lineno}: weight must be positive, got {w}")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", line=lineno)
        seen.add((u, v))
        edges.append((u, v, w))
    if n is None:
        raise GraphFormatError("empty input: missing `n <count>` header")
    return WeightedGraph(n=n, edges=tuple(edges))


def serialize_graph(graph: WeightedGraph) -> str:
    """Inverse of parse_graph; weights printed with 17 significant digits."""
    lines = [f"n {graph.n}"]
    lines.extend(f"{u} {v} {w:.17g}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"


def _edge_weights(rng: np.random.Generator, count: int,
                  weight_range: tuple[float, float] | None) -> np.ndarray:
    if weight_range is None:
        return np.ones(count)
    lo, hi = weight_range
    if not (0 < lo <= hi):
        raise DomainError(f"weight range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    return rng.uniform(lo, hi, size=count)


def generate(family: str, n: int, *, seed: int = 0, p: float = 0.5,
             weight_range: tuple[float, float] | None = None,
             max_retries: int = 100) -> WeightedGraph:
    """Deterministic graph generators: complete, cycle, path, star, erdos_renyi.

    Weights are 1 unless weight_range is given.  Erdos-Renyi draws are retried
    until connected, up to max_retries.
    """
    if n < 2:
        raise DomainError(f"generators need n >= 2, got {n}")
    rng = np.random.Generator(GENERATOR_BITS(seed))
    if family == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "cycle":
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        pairs = [(i, (i + 1) % n) for i in range(n)]
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    elif family == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif family == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif family == "erdos_renyi":
        if not (0 < p <= 1):
            raise DomainError(f"edge probability must be in (0, 1], got {p}")
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(max_retries):
            mask = rng.random(len(all_pairs)) < p
            pairs = [pair for pair, hit in zip(all_pairs, mask) if hit]
            weights = _edge_weights(rng, len(pairs), weight_range)
            graph = WeightedGraph.from_edges(
                n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
            if is_connected(graph):
                return graph
        raise GenerationError(
            f"no connected draw in {max_retries} tries (n={n}, p={p})")
    else:
        raise DomainError(f"unknown family {family!r}")
    weights = _edge_weights(rng, len(pairs), weight_range)
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
