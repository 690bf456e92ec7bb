"""Weighted undirected graphs: parsing, generators, Laplacians, graph algebra.

Graphs are finite, simple, undirected and positively weighted.  A graph is
immutable, and three read-only arrays are its one representation: the
endpoints u < v (intp), sorted by (u, v), and the weights (float64), all
strictly positive and finite.  Equal graphs therefore have equal array bytes,
so equality compares the arrays and the hash, stored at construction, comes
from n and those bytes.  Every route in (the constructor, from_edges,
parse_graph, generate and the graph algebra) checks the arrays once, through
_check_edges, and stores the connectivity flag beside them; caller tuples
become arrays through _read_edges alone, and _edge_error alone names a
defective edge, with its line in a file.  The Laplacian, the degrees and
connectivity read the arrays; the (int, int, float) edge tuple is built on
each read of `edges` and never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index, itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import (ConnectivityError, DimensionError, DomainError, GenerationError,
                     GraphFormatError, NumericalError, ScaleError, SystemicError)

Edge = tuple[int, int, float]

# byte budget of one dense n x n float64 matrix, n <= 8192; every dense route
# over a graph starts from its Laplacian, whose eigensolve takes minutes at this size
DENSE_MATRIX_BYTES = 1 << 29


def _check_integer(name: str, value, low: int) -> None:
    """DomainError naming the argument unless value is an integer >= low;
    bool, an int subclass, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_node_count(n: int) -> int:
    """The node count as an int; index() refuses floats, and bool (an int
    subclass) is refused by name."""
    try:
        count = index(n)
    except TypeError:
        count = None
    if count is None or isinstance(n, bool):
        raise GraphFormatError(f"node count must be an integer, got {n!r}")
    if count < 1:
        raise DomainError(f"node count must be positive, got {count}")
    return count


# the integers an intp endpoint array holds
_INTP_RANGE = range(np.iinfo(np.intp).min, np.iinfo(np.intp).max + 1)


def _endpoint(value) -> int:
    """index(value), which refuses a float that intp would truncate;
    GraphFormatError for an integer intp cannot hold."""
    u = index(value)
    if u not in _INTP_RANGE:
        raise GraphFormatError(f"edge endpoint {u} is out of range")
    return u


def _weight(value):
    """+value, which refuses a str that float() would parse; GraphFormatError
    for a complex value, which a float cast would cut to its real part."""
    if isinstance(value, (complex, np.complexfloating)):
        raise GraphFormatError(f"edge weights must be numbers: {value!r} is complex")
    return +value


def _read_edges(n: int, edges: Iterable[Sequence], size: int, *, ordered: bool = True
                ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The node count (int), endpoint (intp) and weight (float64) arrays of
    n and a caller's (u, v) pairs (size 2, unit weights) or (u, v, w) triples
    (size 3), each pair put as u <= v when ordered.  The node count is
    checked first (_check_node_count); then GraphFormatError names the first
    entry not of this size, then the first endpoint in input order that
    _endpoint refuses, then the first weight _weight refuses.  _check_edges
    checks the arrays."""
    n = _check_node_count(n)
    edges = tuple(edges)
    try:
        sized = set(map(len, edges)) <= {size}
    except TypeError:
        sized = False
    if not sized:
        entry = next(e for e in edges if not (hasattr(e, "__len__") and len(e) == size))
        shape = "(u, v) pairs" if size == 2 else "(u, v, w) triples"
        raise GraphFormatError(f"edges must be {shape}, got {entry!r}")
    try:
        ends = np.fromiter(map(_endpoint, chain.from_iterable(map(itemgetter(0, 1), edges))),
                           dtype=np.intp, count=2 * len(edges))
    except TypeError as exc:
        raise GraphFormatError(f"edge endpoints must be integers: {exc}") from None
    us, vs = ends[0::2], ends[1::2]
    if ordered:
        us, vs = np.minimum(us, vs), np.maximum(us, vs)
    if size == 2:
        return n, us, vs, np.ones(len(edges))
    try:
        ws = np.fromiter(map(_weight, map(itemgetter(2), edges)), dtype=float,
                         count=len(edges))
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"edge weights must be numbers: {exc}") from None
    return n, us, vs, ws


def _check_edges(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                 lines: Sequence[int] | None = None) -> np.ndarray | None:
    """Raise _edge_error for the first defective edge i in input order, on
    line lines[i] of a file when lines are given.

    Each edge is checked for, in this order, a "self-loop", an endpoint out of
    "range" (0 <= u < v < n), a "weight" that is not positive and finite, and
    a "duplicate" of an earlier pair.  Return the permutation that sorts the
    edges by (u, v), or None when they already are.
    """
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
        defect = ("self-loop" if loops[i] else "range" if outside[i]
                  else "weight" if weak[i] else "duplicate")
        raise _edge_error(defect, n, int(us[i]), int(vs[i]), float(ws[i]),
                          None if lines is None else lines[i])
    return order


def _edge_error(defect: str, n: int, u, v, w, line: int | None = None) -> SystemicError:
    """The one error naming a defective edge (u, v, w), on every route; a
    file's names its line."""
    if defect == "weight":
        where = "" if line is None else f"line {line}: "
        return DomainError(f"{where}edge ({u}, {v}) needs a positive finite weight, got {w}")
    message = {"self-loop": f"self-loop at node {u}",
               "range": f"edge ({u}, {v}) needs 0 <= u < v < {n}",
               "duplicate": f"duplicate edge ({u}, {v})"}[defect]
    return GraphFormatError(message, line=line)


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


def _degree_vector(n: int, endpoints: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Weighted degrees.  endpoints interleaves u0, v0, u1, v1, ..., so bincount
    adds each weight to both ends of its edge in edge order, as a loop would."""
    return np.bincount(endpoints, weights=np.repeat(ws, 2), minlength=n)


def _laplacian_matrix(us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                      degrees: np.ndarray) -> np.ndarray:
    """Dense Laplacian: the degrees on the diagonal, each edge's 0.0 - w off
    it (so a zero weight leaves +0.0, as an untouched entry does).  ScaleError,
    before any allocation, when it would exceed DENSE_MATRIX_BYTES."""
    n = degrees.size
    if 8 * n * n > DENSE_MATRIX_BYTES:
        raise ScaleError(f"a dense Laplacian on n={n} nodes needs {8 * n * n} bytes, "
                         f"over the budget of {DENSE_MATRIX_BYTES} bytes")
    matrix = np.diag(degrees)
    off_diagonal = 0.0 - ws
    matrix[us, vs] = off_diagonal
    matrix[vs, us] = off_diagonal
    return matrix


@dataclass(frozen=True, eq=False, repr=False)
class WeightedGraph:
    """Simple undirected graph with strictly positive edge weights.

    WeightedGraph(n, edges) takes (u, v, w) triples in any order, each
    refused as _read_edges says; then the first edge that is a self-loop,
    has u >= v or an endpoint outside [0, n), a weight that is not positive
    and finite, or a repeated pair is named by the values read, so unlike
    from_edges it refuses (v, u).  Graphs are equal when they have the same
    n and the same weighted edges.
    """

    n: int

    def __init__(self, n: int, edges: Sequence[Edge]):
        self._init(*_read_edges(n, edges, 3, ordered=False))

    @classmethod
    def _from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                     connected: bool | None = None, lines: Sequence[int] | None = None
                     ) -> "WeightedGraph":
        graph = object.__new__(cls)
        graph._init(_check_node_count(n), us, vs, ws, connected, lines)
        return graph

    def _init(self, n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
              connected: bool | None = None, lines: Sequence[int] | None = None) -> None:
        """Check integer endpoint and float weight arrays (_check_edges, which
        names a defective edge by the values read and, for a file, its line
        in lines), then take them over and make them read-only.  connected,
        when given, is a caller's exact verdict on the edges (us, vs), from
        _connected or from the graphs they came from."""
        order = _check_edges(n, us, vs, ws, lines)
        if order is not None:
            us, vs, ws = us[order], vs[order], ws[order]
        us, vs, ws = (np.ascontiguousarray(array, dtype=dtype) for array, dtype in
                      ((us, np.intp), (vs, np.intp), (ws, float)))
        object.__setattr__(self, "n", n)
        for name, array in (("_us", us), ("_vs", vs), ("_ws", ws)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_hash", hash((n, us.tobytes(), vs.tobytes(), ws.tobytes())))
        if connected is None:
            connected = _connected(n, us, vs)
        object.__setattr__(self, "_is_connected", connected)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.n == other.n
                and np.array_equal(self._us, other._us)
                and np.array_equal(self._vs, other._vs)
                and np.array_equal(self._ws, other._ws))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        # rebuild from the arrays, so copies and unpickled graphs are checked
        # and recompute the stored hash and flag instead of carrying them over
        return type(self)._from_arrays, (self.n, self._us, self._vs, self._ws)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a graph from (u, v, w) triples, each pair put as u < v; read
        as the constructor reads its triples (_read_edges)."""
        return cls._from_arrays(*_read_edges(n, edges, 3))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The (u, v, w) triples, u < v, sorted by (u, v); built from the
        arrays on each read and never kept, so that a graph holds 24 bytes
        per edge."""
        return tuple(zip(self._us.tolist(), self._vs.tolist(), self._ws.tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree vector (read-only), summed on first read, so that
        a graph holds 24 bytes per edge until a Laplacian or a degree-based
        measure needs it."""
        degrees = _degree_vector(self.n, np.column_stack((self._us, self._vs)).ravel(),
                                 self._ws)
        degrees.setflags(write=False)
        return degrees

    @property
    def m(self) -> int:
        return self._us.size


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """The dense Laplacian (read-only), assembled from the graph's degree
    vector and edge weights."""
    matrix = _laplacian_matrix(graph._us, graph._vs, graph._ws, graph.degrees)
    matrix.setflags(write=False)
    return matrix


def graph_add(g1: WeightedGraph, g2: WeightedGraph) -> WeightedGraph:
    """Edge union; weights of shared edges add, so Laplacians add exactly."""
    if g1.n != g2.n:
        raise DimensionError(f"node counts differ: {g1.n} vs {g2.n}")
    us = np.concatenate((g1._us, g2._us))
    vs = np.concatenate((g1._vs, g2._vs))
    keys, first, pair = np.unique(us * g1.n + vs, return_index=True, return_inverse=True)
    # bincount adds from 0.0, so a shared edge gets w1 + w2 and any other its own w
    weights = np.bincount(pair, weights=np.concatenate((g1._ws, g2._ws)), minlength=keys.size)
    # the union keeps every edge, so a connected operand makes it connected
    return WeightedGraph._from_arrays(g1.n, us[first], vs[first], weights,
                                      connected=g1._is_connected or g2._is_connected or None)


def scalar_mul(alpha: float, graph: WeightedGraph) -> WeightedGraph:
    """Scale every edge weight by alpha > 0."""
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise DomainError(f"scale factor must be positive, got {alpha}")
    with np.errstate(over="ignore"):  # an overflow to inf is named by the check
        weights = alpha * graph._ws
    return WeightedGraph._from_arrays(graph.n, graph._us, graph._vs, weights)


def is_connected(graph: WeightedGraph) -> bool:
    """True iff the graph has a single connected component (weights ignored)."""
    return graph._is_connected


def _check_consensus(graph: WeightedGraph) -> None:
    """The precondition of every consensus route: at least 2 nodes
    (DomainError) and connected by the stored flag, an exact combinatorial
    fact, so a weak but present bridge is not a cut (ConnectivityError)."""
    if graph.n < 2:
        raise DomainError("consensus spectra need at least 2 nodes")
    if not is_connected(graph):
        raise ConnectivityError("graph is disconnected")


def spanning_tree_count(graph: WeightedGraph, *, log: bool = False) -> float:
    """Weighted spanning-tree count tau via the determinant of the reduced Laplacian.

    Deleting any one row/column of the Laplacian (here the first) and taking
    the determinant gives the sum over spanning trees of the product of their
    edge weights (Kirchhoff).  The graph's connectivity flag decides whether
    there is a tree: a disconnected graph gives exactly 0.0, and with log=True
    a ConnectivityError.  A connected graph takes one route, LU with partial
    pivoting through np.linalg.slogdet, which sums log tau from the pivots;
    this is independent of the eigensolver and usable as an oracle against
    it.  An LU sign that is not positive there is a NumericalError.

    tau itself overflows (K_180 has 180^178 trees) or underflows (weights of
    1e-90 on five nodes) long before its logarithm does: log=True returns log
    tau, and log=False exp(log tau), which is 0.0 past the underflow and a
    NumericalError past the overflow of a double.
    """
    if not is_connected(graph):
        if log:
            raise ConnectivityError("non-positive spanning tree weight: graph is disconnected")
        return 0.0
    sign, log_tau = np.linalg.slogdet(laplacian(graph)[1:, 1:])
    if not sign > 0:
        raise NumericalError(f"the reduced Laplacian of a connected graph has LU sign {sign}")
    if log:
        return float(log_tau)
    try:
        return math.exp(log_tau)
    except OverflowError:
        raise NumericalError(f"spanning tree weight exp({log_tau:.17g}) overflows a double"
                             ) from None


def _edge_columns(rows: list[list[str]]) -> tuple[np.ndarray, ...] | None:
    """The u, v and w columns of `u v w` token rows, or None when int() or
    float() rejects a token or an endpoint does not fit in intp."""
    try:
        return (*(np.fromiter(map(int, map(itemgetter(column), rows)), dtype=np.intp,
                              count=len(rows)) for column in (0, 1)),
                np.fromiter(map(float, map(itemgetter(2), rows)), dtype=float, count=len(rows)))
    except (ValueError, OverflowError):
        return None


def parse_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format: comments (#), an `n <count>` header, then `u v w` lines.

    The edge lines are read into arrays and checked once, by _check_edges;
    an error names the first defective line, and an edge defect is worded
    as on every other route (_edge_error).
    """
    lines = [raw.split() for raw in text.splitlines()]
    # the line numbers and tokens of every line that is not blank or a comment
    numbers = [lineno for lineno, tokens in enumerate(lines, start=1)
               if tokens and not tokens[0].startswith("#")]
    rows = [lines[lineno - 1] for lineno in numbers]
    if not rows:
        raise GraphFormatError("empty input: missing `n <count>` header")
    header, header_line = rows.pop(0), numbers.pop(0)
    if len(header) != 2 or header[0] != "n":
        raise GraphFormatError("expected header `n <count>`", line=header_line)
    try:
        n = int(header[1])
    except ValueError:
        raise GraphFormatError(f"bad node count {header[1]!r}", line=header_line)
    if n < 1:
        raise GraphFormatError(f"node count must be positive, got {n}", line=header_line)

    def check(us, vs, ws) -> WeightedGraph:
        return WeightedGraph._from_arrays(n, np.minimum(us, vs), np.maximum(us, vs), ws,
                                          lines=numbers)

    columns = _edge_columns(rows) if set(map(len, rows)) <= {3} else None
    if columns is not None:
        return check(*columns)
    # a row that does not convert: the rows before it are checked first
    first = next(i for i, row in enumerate(rows)
                 if len(row) != 3 or _edge_columns([row]) is None)
    check(*_edge_columns(rows[:first]))
    tokens, lineno = rows[first], numbers[first]
    if len(tokens) != 3:
        raise GraphFormatError("expected `u v w`", line=lineno)
    try:
        u, v, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
    except ValueError:
        line = text.splitlines()[lineno - 1].strip()
        raise GraphFormatError(f"cannot parse edge line {line!r}", line=lineno)
    # an endpoint beyond intp: a self-loop, or out of range for any usable n
    u, v = min(u, v), max(u, v)
    raise _edge_error("self-loop" if u == v else "range", n, u, v, w, lineno)


def serialize_graph(graph: WeightedGraph) -> str:
    """Inverse of parse_graph; weights printed with 17 significant digits."""
    fields = [None] * (3 * graph.m)
    fields[0::3], fields[1::3], fields[2::3] = (
        graph._us.tolist(), graph._vs.tolist(), graph._ws.tolist())
    return f"n {graph.n}\n" + ("%d %d %.17g\n" * graph.m) % tuple(fields)


def _edge_weights(rng: np.random.Generator, count: int,
                  weight_range: tuple[float, float] | None) -> np.ndarray:
    if weight_range is None:
        return np.ones(count)
    try:
        lo, hi = weight_range
    except (TypeError, ValueError):
        raise DomainError(f"weight range must be a pair (lo, hi), got {weight_range!r}") from None
    if not (0 < lo <= hi < math.inf):
        raise DomainError(f"weight range must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    return rng.uniform(lo, hi, size=count)


def generate(family: str, n: int, *, seed: int = 0, p: float = 0.5,
             weight_range: tuple[float, float] | None = None,
             max_retries: int = 100) -> WeightedGraph:
    """Deterministic graph generators: complete, cycle, path, star, erdos_renyi.

    Weights are 1 unless weight_range, a pair (lo, hi) with
    0 < lo <= hi < inf (DomainError otherwise), is given.  Erdos-Renyi
    draws are retried until connected, up to max_retries.  seed and
    max_retries are integers >= 0 (DomainError otherwise).
    """
    n = _check_node_count(n)
    if n < 2:
        raise DomainError(f"generators need n >= 2, got {n}")
    _check_integer("seed", seed, 0)
    _check_integer("max_retries", max_retries, 0)
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
            us, vs = all_us[mask], all_vs[mask]
            if _connected(n, us, vs):
                return WeightedGraph._from_arrays(n, us, vs, weights, connected=True)
        raise GenerationError(
            f"no connected draw in {max_retries} tries (n={n}, p={p})")
    else:
        raise DomainError(f"unknown family {family!r}")
    weights = _edge_weights(rng, us.size, weight_range)
    return WeightedGraph._from_arrays(n, us, vs, weights)
