"""Weighted undirected graphs: parsing, generators, Laplacians, graph algebra.

Graphs are finite, simple, undirected and positively weighted.  Edges are
stored canonically as (int, int, float) tuples with u < v, sorted by (u, v),
which makes equality, hashing and serialization deterministic.  A graph is
immutable and built from endpoint and weight arrays: one constructor checks
them with vectorized masks and stores the edge tuple, its hash and the
read-only arrays once.  Laplacians and connectivity read those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index, itemgetter, pos
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, GenerationError, GraphFormatError

Edge = tuple[int, int, float]


def _check_node_count(n: int) -> None:
    if n < 1:
        raise DomainError(f"node count must be positive, got {n}")


def _check_arity(edges: Sequence) -> None:
    wrong = np.fromiter(map(len, edges), dtype=np.intp, count=len(edges)) != 3
    if wrong.any():
        u, v, w = edges[int(np.argmax(wrong))]  # raises the unpacking error


def _integer_columns(edges: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint columns as intp arrays; index() refuses floats, which an
    intp array would truncate."""
    try:
        return tuple(np.fromiter(map(index, map(itemgetter(column), edges)),
                                 dtype=np.intp, count=len(edges)) for column in (0, 1))
    except TypeError as exc:
        raise GraphFormatError(f"edge endpoints must be integers: {exc}") from None


def _check_edges(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                 label: Callable[[int], tuple]) -> np.ndarray | None:
    """Raise for the first defective edge in input order, naming it by
    label(i), with the checks in per-edge order: self-loop, range, weight,
    duplicate.  Return the permutation that sorts the edges by (u, v), or
    None when they already are."""
    loops = us == vs
    outside = ~((0 <= us) & (us < vs) & (vs < n))
    weak = ~((ws > 0.0) & np.isfinite(ws))
    bad = loops | outside | weak
    order = None
    ascending = (us[1:] > us[:-1]) | ((us[1:] == us[:-1]) & (vs[1:] > vs[:-1]))
    if not ascending.all():
        # a stable sort keeps equal pairs in input order: all but the first repeat
        order = np.lexsort((vs, us))
        su, sv = us[order], vs[order]
        bad[order[1:]] |= (su[1:] == su[:-1]) & (sv[1:] == sv[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        u, v, w = label(i)
        if loops[i]:
            raise GraphFormatError(f"self-loop at node {u}")
        if outside[i]:
            raise GraphFormatError(f"edge ({u}, {v}) needs 0 <= u < v < {n}")
        if weak[i]:
            raise DomainError(f"edge ({u}, {v}) has non-positive weight {w}")
        raise GraphFormatError(f"duplicate edge ({u}, {v})")
    return order


def _connected(n: int, us: np.ndarray, vs: np.ndarray) -> bool:
    """Whether the edges (us, vs) connect all n nodes.

    Every node points at a smaller or equal one, so each tree's root is its
    smallest node.  Each round hooks roots onto the smallest root they share
    an edge with and jumps pointers until every node points at its root; the
    graph is connected once every node points at node 0, and disconnected
    when no edge joins two roots.  The first round hooks the endpoints
    themselves, since every node starts as a root.
    """
    if us.size < n - 1:
        return False
    parent = np.arange(n)
    high, low = vs, us
    while True:
        np.minimum.at(parent, high, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        if not parent.any():
            return True
        ru, rv = parent[us], parent[vs]
        joins = ru != rv
        if not joins.any():
            return False
        high, low = np.maximum(ru, rv)[joins], np.minimum(ru, rv)[joins]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with strictly positive edge weights."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        _check_node_count(self.n)
        edges = self.edges
        _check_arity(edges)
        try:
            us, vs = _integer_columns(edges)
            integral = True
        except GraphFormatError as exc:
            # check the edges as floats first, so that any other defect is
            # reported before a non-integer endpoint
            try:
                us, vs = (np.fromiter(map(itemgetter(column), edges), dtype=float,
                                      count=len(edges)) for column in (0, 1))
            except (TypeError, ValueError):
                raise exc from None
            integral = False
        # unary plus refuses str and None, which fromiter would parse or read as nan
        ws = np.fromiter(map(pos, map(itemgetter(2), edges)), dtype=float, count=len(edges))
        order = _check_edges(self.n, us, vs, ws, edges.__getitem__)
        if not integral:
            # raises, for the first non-integer endpoint in sorted order
            _integer_columns(sorted(edges))
        self._store(us, vs, ws, order)

    @classmethod
    def _from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray,
                     ws: np.ndarray) -> "WeightedGraph":
        """Build a graph from integer endpoint and float weight arrays, which
        it takes over and makes read-only."""
        _check_node_count(n)
        order = _check_edges(n, us, vs, ws,
                             lambda i: (int(us[i]), int(vs[i]), float(ws[i])))
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        graph._store(us, vs, ws, order)
        return graph

    def _store(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
               order: np.ndarray | None) -> None:
        if order is not None:
            us, vs, ws = us[order], vs[order], ws[order]
        us, vs, ws = (np.ascontiguousarray(array, dtype=dtype) for array, dtype in
                      ((us, np.intp), (vs, np.intp), (ws, float)))
        edges = tuple(zip(us.tolist(), vs.tolist(), ws.tolist()))
        object.__setattr__(self, "edges", edges)
        # the value the generated dataclass hash would recompute on every call
        object.__setattr__(self, "_hash", hash((self.n, edges)))
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
        """Build a graph, normalizing each pair to u < v.

        Endpoints must be integers (GraphFormatError otherwise); weights go
        through float().
        """
        edges = tuple(edges)
        _check_arity(edges)
        us, vs = _integer_columns(edges)
        ws = np.fromiter(map(float, map(itemgetter(2), edges)), dtype=float, count=len(edges))
        return cls._from_arrays(n, np.minimum(us, vs), np.maximum(us, vs), ws)

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
    return _connected(graph.n, graph._us, graph._vs)


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
    rng = np.random.Generator(np.random.PCG64(seed))
    if family == "complete":
        us, vs = np.triu_indices(n, 1)
    elif family == "cycle":
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        nodes = np.arange(n)
        successors = np.roll(nodes, -1)
        us, vs = np.minimum(nodes, successors), np.maximum(nodes, successors)
    elif family == "path":
        us = np.arange(n - 1)
        vs = us + 1
    elif family == "star":
        us, vs = np.zeros(n - 1, dtype=np.intp), np.arange(1, n)
    elif family == "erdos_renyi":
        if not (0 < p <= 1):
            raise DomainError(f"edge probability must be in (0, 1], got {p}")
        all_us, all_vs = np.triu_indices(n, 1)
        for _ in range(max_retries):
            mask = rng.random(all_us.size) < p
            weights = _edge_weights(rng, int(np.count_nonzero(mask)), weight_range)
            graph = WeightedGraph._from_arrays(n, all_us[mask], all_vs[mask], weights)
            if is_connected(graph):
                return graph
        raise GenerationError(
            f"no connected draw in {max_retries} tries (n={n}, p={p})")
    else:
        raise DomainError(f"unknown family {family!r}")
    weights = _edge_weights(rng, us.size, weight_range)
    return WeightedGraph._from_arrays(n, us, vs, weights)
