"""Symmetric eigensolver, Laplacian pseudo-inverse, and the PSD partial order.

eig_sym wraps LAPACK's symmetric eigensolver (syevd, via np.linalg.eigh) in a
contract: square, finite, symmetric input; ascending eigenvalues; orthonormal
eigenvectors with a fixed sign convention; and residual and orthonormality
gates that turn an inaccurate result into NumericalError.  Identical input
bits give identical output bits on the same machine and BLAS build, which the
property-check machinery relies on for replayable trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConnectivityError, DimensionError, DomainError, NumericalError
from .graphs import Laplacian, WeightedGraph, laplacian

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
ZERO_TOL_SCALE = 1e-8
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def nonzero(self) -> np.ndarray:
        """Eigenvalues with the structural zero mode dropped (index >= 2 convention)."""
        return self.eigenvalues[1:]


def _fix_signs(v: np.ndarray) -> None:
    """Make the first nonzero component of each eigenvector positive."""
    if v.size == 0:
        return
    leading = v[np.argmax(v != 0.0, axis=0), np.arange(v.shape[1])]
    v[:, leading < 0] *= -1.0


def eig_sym(matrix: np.ndarray) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues ascending.

    LAPACK syevd (np.linalg.eigh) on the symmetrized matrix; each
    eigenvector's first nonzero component is made positive.  Identical input
    bits give identical output bits on the same machine and BLAS build.

    Raises DimensionError for non-square input, DomainError for non-finite or
    non-symmetric input, and NumericalError if LAPACK fails or the residual or
    orthonormality error misses its bound.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    asym = float(np.abs(m - m.T).max(initial=0.0))
    if not asym <= SYMMETRY_TOL * scale:
        raise DomainError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        d, v = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigensolver failed: {exc}") from exc
    _fix_signs(v)
    residual = float(np.abs(m @ v - v * d).max(initial=0.0))
    gram_error = float(np.abs(v.T @ v - np.eye(d.shape[0])).max(initial=0.0))
    value_scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    if not gram_error <= ORTHONORMALITY_TOL:
        raise NumericalError(f"eigenvectors lost orthonormality ({gram_error:.3e})")
    if not residual <= RESIDUAL_TOL * value_scale:
        raise NumericalError(f"eigen residual too large ({residual:.3e})")
    return Spectrum(eigenvalues=d, eigenvectors=v, residual=residual)


def zero_tolerance(eigenvalues: np.ndarray) -> float:
    """Threshold separating the structural zero eigenvalue from the rest.

    Relative to the largest eigenvalue, so scaling every weight scales the
    threshold with it; an all-zero spectrum gets threshold 0.
    """
    top = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    return ZERO_TOL_SCALE * top


def _as_matrix(operand: WeightedGraph | Laplacian | np.ndarray) -> np.ndarray:
    if isinstance(operand, WeightedGraph):
        return laplacian(operand).matrix
    if isinstance(operand, Laplacian):
        return operand.matrix
    return np.asarray(operand, dtype=float)


def laplacian_spectrum(operand: WeightedGraph | Laplacian | np.ndarray) -> Spectrum:
    """Spectrum of a connected-graph Laplacian (or any matrix similar to one).

    The smallest eigenvalue must sit below the zero tolerance; it is snapped
    to exactly 0.  A second eigenvalue below the tolerance means the graph is
    disconnected and raises ConnectivityError.
    """
    matrix = _as_matrix(operand)
    if matrix.shape[0] < 2:
        raise DomainError("consensus spectra need at least 2 nodes")
    spec = eig_sym(matrix)
    tol = zero_tolerance(spec.eigenvalues)
    lam = spec.eigenvalues
    if abs(lam[0]) > tol:
        raise DomainError(
            f"smallest eigenvalue {lam[0]:.3e} is not a structural zero (tol {tol:.3e})")
    if lam[1] <= tol:
        raise ConnectivityError(
            f"second eigenvalue {lam[1]:.3e} below tolerance {tol:.3e}: graph is disconnected")
    snapped = lam.copy()
    snapped[0] = 0.0
    return Spectrum(eigenvalues=snapped, eigenvectors=spec.eigenvectors,
                    residual=spec.residual)


@lru_cache(maxsize=512)
def graph_spectrum(graph: WeightedGraph) -> Spectrum:
    """Cached laplacian_spectrum keyed by the (immutable) graph."""
    return laplacian_spectrum(graph)


def pseudo_inverse(operand: WeightedGraph | Laplacian | np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a connected-graph Laplacian.

    Assembled from the spectrum as sum over nonzero modes of v v^T / lambda;
    the result is symmetric, doubly centered and positive semidefinite.
    """
    spec = laplacian_spectrum(operand)
    vectors = spec.eigenvectors[:, 1:]
    inverse = (vectors / spec.nonzero) @ vectors.T
    return 0.5 * (inverse + inverse.T)


def psd_order(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff a <= b in the positive semidefinite order, within tol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    gap = eig_sym(b - a)
    return bool(gap.eigenvalues[0] >= -tol)
