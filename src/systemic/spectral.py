"""Symmetric eigensolver, Laplacian pseudo-inverse, and the PSD partial order.

eig_sym wraps LAPACK's symmetric eigensolver (syevd) in a contract: square,
finite, symmetric input; ascending eigenvalues; a LAPACK failure becomes
NumericalError. It has two modes, split as numpy splits eigh and eigvalsh:

* full (the default, np.linalg.eigh): orthonormal eigenvectors, and residual
  and orthonormality gates that turn an inaccurate result into
  NumericalError;
* values only (vectors=False, np.linalg.eigvalsh): no eigenvectors and no
  O(n^3) gate products. A moment gate checks that the eigenvalues are finite
  and ascending and that their sum and the sum of their squares match the
  trace and the squared Frobenius norm of the input.

In both modes the Spectrum carries the solve's error bound delta =
8 n eps ||A||_F, from one sum of the input's squares: each computed
eigenvalue is within delta of an exact one. The squares are summed for the
input divided by a power of two near its largest entry, so delta and the
moment gate stay finite and nonzero for entries far beyond 1e+-154, where
the plain sum of squares overflows or underflows.

Memory: eig_sym reads a float64 input in place and never writes it. Besides
LAPACK's workspace and its results it allocates one n x n scratch matrix,
which holds |A - A^T|, then A divided by the power of two and its squares,
and in the full mode the residual and Gram products in turn: a traced peak
of about 1.05 n^2 doubles values-only and 3.05 n^2 with eigenvectors at
n = 400. Exactly symmetric input is its own symmetrization; any other adds
one matrix.

The systemic measures are functions of the nonzero Laplacian eigenvalues
alone, so graph_spectrum caches values-only spectra, about n floats per
graph; pseudo_inverse and the weight-allocation gradient use the full mode,
and read the eigenvectors only through sign-free products. Identical input
bits give identical output bits on the same machine and BLAS build in either
mode, which the property-check machinery relies on for replayable trials.

laplacian_spectrum and pseudo_inverse take only a graph, which brings its
connectivity, an exact combinatorial fact, so a weak but present bridge is
not called a cut; eig_sym is the route for a raw matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from .graphs import WeightedGraph, _check_consensus, laplacian

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
SYMMETRY_TOL = 1e-12
# safety factor on the n * eps * ||A||_F backward-error bound of syevd
BACKWARD_ERROR_FACTOR = 8.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, with orthonormal eigenvector columns in the full mode.

    error_bound is the solve's delta (eig_sym). A values-only spectrum
    (eig_sym(..., vectors=False)) has eigenvectors and residual None; its
    eigenvalues passed the moment gate instead.
    """

    eigenvalues: np.ndarray
    error_bound: float
    eigenvectors: np.ndarray | None = None
    residual: float | None = None

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        if self.eigenvectors is not None:
            self.eigenvectors.setflags(write=False)

    @property
    def nonzero(self) -> np.ndarray:
        """Eigenvalues with the structural zero mode dropped (index >= 2 convention)."""
        return self.eigenvalues[1:]


def _check_moments(trace: float, d: np.ndarray, squares: float, delta: float) -> None:
    """The values-only gate: raise NumericalError unless the eigenvalues d of
    a symmetric matrix A are finite, ascending, and match its first two
    moments, trace(A) = sum(d) and ||A||_F^2 = sum(d^2) = squares.

    syevd returns the exact eigenvalues of A + E with ||E||_F <= delta. By
    Hoffman-Wielandt the eigenvalue errors e have ||e||_2 <= delta, so the sum
    is off by at most sqrt(n) * delta and the sum of squares by at most
    delta * (2 ||A||_F + delta); these bounds also cover the rounding of the
    sums themselves. The gate catches a shifted, lost or non-finite
    eigenvalue, a misordered result, and a compensating pair that keeps the
    trace but not the squares. It cannot catch a corruption that keeps the
    order and both moments, such as three eigenvalues moved by shifts e_i
    with sum(e) = 0 and sum(2 d_i e_i + e_i^2) = 0. eig_sym passes the
    moments of A, d and delta divided by the same power of two, which leaves
    the gate's verdict unchanged and keeps the squares representable.
    """
    if not np.isfinite(d).all():
        raise NumericalError("eigenvalues are not finite")
    if np.any(d[1:] < d[:-1]):
        raise NumericalError("eigenvalues are not ascending")
    trace_error = abs(float(np.sum(d)) - trace)
    if not trace_error <= math.sqrt(d.shape[0]) * delta:
        raise NumericalError(f"eigenvalue sum misses the trace by {trace_error:.3e}")
    square_error = abs(float(np.dot(d, d)) - squares)
    if not square_error <= delta * (2.0 * math.sqrt(squares) + delta):
        raise NumericalError(
            f"eigenvalue squares miss the Frobenius norm by {square_error:.3e}")


def eig_sym(matrix: np.ndarray, *, vectors: bool = True) -> Spectrum:
    """Spectrum of a symmetric matrix, eigenvalues ascending.

    LAPACK syevd on the symmetrized matrix A: np.linalg.eigh in the full mode,
    np.linalg.eigvalsh with vectors=False. The full mode applies the residual
    and orthonormality gates; the values-only mode returns eigenvectors None
    and applies the moment gate (_check_moments). Either way the spectrum's
    error_bound is delta = BACKWARD_ERROR_FACTOR * n * eps * ||A||_F: syevd
    returns the exact eigenvalues of A + E with ||E||_F <= delta, so by Weyl
    each computed eigenvalue is within delta of the exact one, and one within
    delta of zero cannot be told from zero. Identical input bits give
    identical output bits on the same machine and BLAS build.

    Raises DimensionError for non-square input, DomainError for non-finite or
    non-symmetric input, and NumericalError if LAPACK fails or a gate fails.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    # max and min propagate NaN, so this is the finiteness check too
    high, low = float(m.max(initial=0.0)), float(m.min(initial=0.0))
    if not (math.isfinite(high) and math.isfinite(low)):
        raise DomainError("matrix has non-finite entries")
    largest = max(high, -low)
    scratch = np.subtract(m, m.T, out=np.empty(m.shape))
    asym = float(np.abs(scratch, out=scratch).max(initial=0.0))
    if not asym <= SYMMETRY_TOL * max(1.0, largest):
        raise DomainError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    # 0.5 * (A + A^T) is A itself, bit for bit, when A is exactly symmetric
    symmetric = 0.5 * (m + m.T) if asym > 0.0 else m
    # The squares are summed for A / 2^k, 2^k the binade above max |a|, so the
    # sum neither overflows nor underflows; scaling by a power of two is exact,
    # so delta has the plain sum's bits wherever that sum is representable.
    k = int(np.frexp(largest)[1])
    unit = np.ldexp(symmetric, -k, out=scratch)
    unit_trace = float(np.trace(unit))
    unit_squares = float(np.square(unit, out=unit).sum())  # pairwise: rounding O(log n)
    unit_delta = BACKWARD_ERROR_FACTOR * m.shape[0] * _EPS * math.sqrt(unit_squares)
    delta = math.ldexp(unit_delta, k)
    try:
        if not vectors:
            d = np.linalg.eigvalsh(symmetric)
        else:
            d, v = np.linalg.eigh(symmetric)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigensolver failed: {exc}") from exc
    if not vectors:
        _check_moments(unit_trace, np.ldexp(d, -k), unit_squares, unit_delta)
        return Spectrum(eigenvalues=d, error_bound=delta)
    # both gates reuse the scratch matrix: A V - V diag(d), then V^T V - I
    product = np.matmul(m, v, out=scratch)
    product -= v * d
    residual = float(np.abs(product, out=product).max(initial=0.0))
    product = np.matmul(v.T, v, out=scratch)
    diagonal = np.arange(d.shape[0])
    product[diagonal, diagonal] -= 1.0
    gram_error = float(np.abs(product, out=product).max(initial=0.0))
    value_scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    if not gram_error <= ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvectors lost orthonormality ({gram_error:.3e})")
    if not residual <= RESIDUAL_TOL * value_scale:
        raise NumericalError(f"eigen residual too large ({residual:.3e})")
    return Spectrum(eigenvalues=d, error_bound=delta, eigenvectors=v, residual=residual)


def laplacian_spectrum(graph: WeightedGraph, *, vectors: bool = True) -> Spectrum:
    """Spectrum of a connected graph's Laplacian, the zero mode snapped to 0.

    eig_sym in the full mode, or values only with vectors=False. Before any
    eigensolve the graph passes the consensus gate of graphs: fewer than 2
    nodes raise DomainError, a disconnected graph ConnectivityError. A
    connected one whose smallest eigenvalue is not within the spectrum's
    error_bound delta of zero, or whose second is not above delta, raises
    NumericalError. An operand that is not a WeightedGraph raises
    DomainError: eig_sym takes a raw matrix.
    """
    if not isinstance(graph, WeightedGraph):
        raise DomainError(f"laplacian_spectrum takes a WeightedGraph, not "
                          f"{type(graph).__name__}; use eig_sym for a raw matrix")
    _check_consensus(graph)
    spec = eig_sym(laplacian(graph), vectors=vectors)
    lam, delta = spec.eigenvalues, spec.error_bound
    if not (abs(lam[0]) <= delta and lam[1] > delta):
        raise NumericalError(
            f"eigenvalues {lam[0]:.3e}, {lam[1]:.3e} of a connected graph are not "
            f"resolved by the solve's error bound {delta:.3e}")
    snapped = lam.copy()
    snapped[0] = 0.0
    return replace(spec, eigenvalues=snapped)


@lru_cache(maxsize=512)
def graph_spectrum(graph: WeightedGraph) -> Spectrum:
    """Cached values-only laplacian_spectrum keyed by the (immutable) graph."""
    return laplacian_spectrum(graph, vectors=False)


def pseudo_inverse(graph: WeightedGraph) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a connected graph's Laplacian.

    Assembled from laplacian_spectrum as sum over nonzero modes of
    v v^T / lambda, with its errors; the result is symmetric, doubly centered
    and positive semidefinite.
    """
    spec = laplacian_spectrum(graph)
    vectors = spec.eigenvectors[:, 1:]
    inverse = (vectors / spec.nonzero) @ vectors.T
    return 0.5 * (inverse + inverse.T)


def psd_order(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff a <= b in the positive semidefinite order, within tol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    gap = eig_sym(b - a, vectors=False)
    return bool(gap.eigenvalues[0] >= -tol)
