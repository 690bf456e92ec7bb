"""Catalog of systemic performance/robustness measures on consensus networks.

Every measure is a function of the Laplacian spectrum (plus node degrees for
the local-error measure).  The closed-form H_p norm goes through the spectral
zeta function and a beta-function coefficient; hp_norm_numeric evaluates the
defining frequency integral instead and exists purely to cross-check the
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConnectivityError, DomainError, NumericalError
from .graphs import WeightedGraph, is_connected, laplacian, spanning_tree_count
from .spectral import graph_spectrum

MEASURE_IDS = (
    "zeta_measure", "hp_norm", "h2", "hinf", "energy1", "energy2",
    "convergence_time", "local_error", "entropy", "schur_sum",
)

ENTROPY_FORM_WARNING = (
    "the closed form log(n/tau) sometimes quoted for the entropy measure disagrees "
    "with the spectral value -sum(log lambda_i); the matrix-tree identity gives "
    "-log(n*tau) instead (unit triangle: -log 9 = -2.1972246 vs log(3/3) = 0). "
    "Reporting the matrix-tree-consistent value."
)


# ---------------------------------------------------------------------------
# registry of decreasing convex spectral functions (for schur_sum and bounds)

@dataclass(frozen=True)
class SpectralFunction:
    """A decreasing convex function applied to nonzero Laplacian eigenvalues."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    vanishes_at_infinity: bool


def _check_decreasing_convex(fn: Callable[[np.ndarray], np.ndarray], name: str) -> None:
    # Finite sampling on a log grid; rejects functions that are not
    # decreasing or not (midpoint-)convex on the positive axis.
    xs = np.logspace(-3.0, 3.0, 121)
    ys = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        raise DomainError(f"spectral function {name!r} is not finite on (0, inf)")
    scale = float(np.abs(ys).max()) + 1.0
    if np.any(np.diff(ys) > 1e-12 * scale):
        raise DomainError(f"spectral function {name!r} is not decreasing")
    t = (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
    chords = (1.0 - t) * ys[:-2] + t * ys[2:]
    if np.any(ys[1:-1] > chords + 1e-12 * scale):
        raise DomainError(f"spectral function {name!r} is not convex")


_FUNCTION_BUILDERS: dict[str, Callable[[float | None], SpectralFunction]] = {}


def register_spectral_function(name: str,
                               builder: Callable[[float | None], SpectralFunction]) -> None:
    """Register a builder; the built function is sampled for decreasing convexity."""
    _FUNCTION_BUILDERS[name] = builder


def get_spectral_function(f_id: str) -> SpectralFunction:
    """Resolve identifiers like 'inverse', 'inverse_pow:2.5' or 'exp_decay(0.3)'."""
    name, param = f_id, None
    for sep, close in ((":", ""), ("(", ")")):
        if sep in f_id:
            name, rest = f_id.split(sep, 1)
            rest = rest[:-1] if close and rest.endswith(close) else rest
            try:
                param = float(rest)
            except ValueError:
                raise DomainError(f"bad parameter in spectral function id {f_id!r}")
            break
    if name not in _FUNCTION_BUILDERS:
        raise DomainError(f"unknown spectral function {name!r}")
    spectral_fn = _FUNCTION_BUILDERS[name](param)
    _check_decreasing_convex(spectral_fn.fn, spectral_fn.name)
    return spectral_fn


def _build_inverse(param: float | None) -> SpectralFunction:
    if param is not None:
        raise DomainError("'inverse' takes no parameter")
    return SpectralFunction("inverse", lambda x: 0.5 / x, lambda x: -0.5 / x**2, True)


def _build_inverse_sq(param: float | None) -> SpectralFunction:
    if param is not None:
        raise DomainError("'inverse_sq' takes no parameter")
    return SpectralFunction("inverse_sq", lambda x: 0.5 / x**2, lambda x: -1.0 / x**3, True)


def _build_inverse_pow(param: float | None) -> SpectralFunction:
    if param is None or param <= 0:
        raise DomainError("'inverse_pow' needs a positive exponent, e.g. inverse_pow:2")
    q = float(param)
    return SpectralFunction(f"inverse_pow:{q:g}", lambda x: x**(-q),
                            lambda x: -q * x**(-q - 1.0), True)


def _build_exp_decay(param: float | None) -> SpectralFunction:
    if param is None or param <= 0:
        raise DomainError("'exp_decay' needs a positive rate, e.g. exp_decay:0.5")
    c = float(param)
    return SpectralFunction(f"exp_decay:{c:g}", lambda x: np.exp(-c * x),
                            lambda x: -c * np.exp(-c * x), True)


register_spectral_function("inverse", _build_inverse)
register_spectral_function("inverse_sq", _build_inverse_sq)
register_spectral_function("inverse_pow", _build_inverse_pow)
register_spectral_function("exp_decay", _build_exp_decay)


# ---------------------------------------------------------------------------
# measure descriptors

@dataclass(frozen=True)
class MeasureDescriptor:
    """Selects one measure from the catalog, with its parameters.

    p = math.inf is the distinguished infinite exponent, never a large float.
    """

    id: str
    p: float | None = None
    k: float | None = None
    f_id: str | None = None

    def __post_init__(self):
        if self.id not in MEASURE_IDS:
            raise DomainError(f"unknown measure id {self.id!r}")
        if self.id == "zeta_measure":
            if self.p is None:
                raise DomainError("zeta_measure needs an exponent p")
            if not (1.0 <= self.p):
                raise DomainError(f"zeta_measure needs 1 <= p <= inf, got {self.p}")
            if self.k is None:
                object.__setattr__(self, "k", 1.0)
            if not (self.k > 0):
                raise DomainError(f"zeta_measure needs k > 0, got {self.k}")
        elif self.id == "hp_norm":
            if self.p is None:
                raise DomainError("hp_norm needs an exponent p")
            if not (self.p > 1.0):
                raise DomainError(
                    f"hp_norm needs p > 1 (the defining integral diverges at p = 1), got {self.p}")
            if self.k is not None:
                raise DomainError("hp_norm takes no scale k")
        elif self.id == "schur_sum":
            if self.f_id is None:
                raise DomainError("schur_sum needs a spectral function id f_id")
            get_spectral_function(self.f_id)  # validates
        else:
            if self.p is not None or self.k is not None or self.f_id is not None:
                raise DomainError(f"measure {self.id!r} takes no parameters")

    def label(self) -> str:
        parts = [self.id]
        if self.p is not None:
            parts.append(f"p={self.p:g}")
        if self.k is not None:
            parts.append(f"k={self.k:g}")
        if self.f_id is not None:
            parts.append(f"f={self.f_id}")
        return "(" + ", ".join(parts) + ")" if len(parts) > 1 else self.id


def is_homogeneous(measure: MeasureDescriptor) -> bool:
    """True for measures scaling as 1/kappa under weight scaling by kappa."""
    if measure.id in ("convergence_time", "energy1", "local_error", "zeta_measure", "hinf"):
        return True
    return measure.id == "hp_norm" and measure.p == math.inf


def is_spectral(measure: MeasureDescriptor) -> bool:
    """True when the measure depends on the Laplacian only through eigenvalues."""
    return measure.id != "local_error"


def applicable_properties(measure: MeasureDescriptor) -> frozenset[str]:
    """Which axioms the catalog claims for this measure.

    Spectral-norm, higher-energy and entropy measures carry the orthogonal
    invariance / Schur-convexity axioms; the scaling-degree -1 measures carry
    homogeneity and subadditivity on top of monotonicity and convexity.
    """
    convex_axioms = {"monotonicity", "convexity"}
    scaled_axioms = {"homogeneity", "subadditivity"}
    spectral_axioms = {"orthogonal_invariance", "schur_convexity"}
    props = set(convex_axioms)
    if is_homogeneous(measure):
        props |= scaled_axioms
    if is_spectral(measure):
        props |= spectral_axioms
    return frozenset(props)


# ---------------------------------------------------------------------------
# core evaluations

def _nonzero_eigenvalues(graph: WeightedGraph) -> np.ndarray:
    return graph_spectrum(graph).nonzero


def zeta(graph: WeightedGraph, p: float) -> float:
    """Spectral zeta function: sum of nonzero Laplacian eigenvalues to the -p.

    Only p > 0 gives a systemic measure: p = 0 counts the n - 1 nonzero modes
    and p < 0 sums positive powers, and neither decreases as edges are added.
    """
    if not (p > 0):
        raise DomainError(f"zeta exponent p must be positive, got {p}")
    lam = _nonzero_eigenvalues(graph)
    return float(np.sum(lam ** (-float(p))))


def _zeta_root(lam: np.ndarray, p: float) -> float:
    """(sum lam^-p)^(1/p), falling back to log-space when the sum overflows."""
    with np.errstate(over="ignore"):
        total = float(np.sum(lam ** (-p)))
    if math.isfinite(total):
        return total ** (1.0 / p)
    logs = -p * np.log(lam)
    peak = float(logs.max())
    log_total = peak + math.log(float(np.sum(np.exp(logs - peak))))
    return math.exp(log_total / p)


def zeta_measure(graph: WeightedGraph, p: float, k: float) -> float:
    """k * zeta(p)^(1/p); the p = inf limit is k over the algebraic connectivity."""
    if not (k > 0):
        raise DomainError(f"scale k must be positive, got {k}")
    if not (p >= 1.0):
        raise DomainError(f"exponent p must satisfy 1 <= p <= inf, got {p}")
    lam = _nonzero_eigenvalues(graph)
    if p == math.inf:
        return k / float(lam.min())
    return k * _zeta_root(lam, float(p))


def _hp_coefficient(p: float) -> float:
    # 1/(2*pi) * B((p-1)/2, 1/2), the positive rewriting of the frequency
    # integral's constant; evaluated through log-gamma at positive arguments
    # only, so there is no cancellation from gamma at negative arguments.
    log_b = math.lgamma((p - 1.0) / 2.0) + math.lgamma(0.5) - math.lgamma(p / 2.0)
    return math.exp(log_b) / (2.0 * math.pi)


def _hp_root(lam: np.ndarray, p: float) -> float:
    """(coefficient(p) * sum lam^(1-p))^(1/p), in log-space when the sum overflows."""
    coefficient = _hp_coefficient(p)
    with np.errstate(over="ignore"):
        total = float(np.sum(lam ** (1.0 - p)))
    if math.isfinite(total):
        return (coefficient * total) ** (1.0 / p)
    logs = (1.0 - p) * np.log(lam)
    peak = float(logs.max())
    log_total = peak + math.log(float(np.sum(np.exp(logs - peak))))
    return math.exp((math.log(coefficient) + log_total) / p)


def hp_norm(graph: WeightedGraph, p: float) -> float:
    """Closed-form H_p norm of the disturbance-to-disagreement transfer function.

    Equals (coefficient(p) * zeta(p-1))^(1/p) for finite p > 1, and the
    reciprocal algebraic connectivity at p = inf.  p <= 1 is rejected: the
    defining frequency integral diverges there.
    """
    lam = _nonzero_eigenvalues(graph)
    if p == math.inf:
        return 1.0 / float(lam.min())
    if not (p > 1.0):
        raise DomainError(f"hp_norm needs p > 1, got {p}")
    return _hp_root(lam, float(p))


@dataclass(frozen=True)
class TransferModel:
    """Frequency response of the network seen through the centering output.

    The transfer function from disturbance to disagreement output has
    singular values (omega^2 + lambda_i^2)^(-1/2) over the nonzero modes;
    the consensus mode is annihilated by the output projection.
    """

    nonzero_eigenvalues: np.ndarray

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "TransferModel":
        return cls(nonzero_eigenvalues=graph_spectrum(graph).nonzero)

    def singular_values(self, omega: float) -> np.ndarray:
        return 1.0 / np.sqrt(omega**2 + self.nonzero_eigenvalues**2)

    def schatten_power(self, omega: float, p: float) -> float:
        """Schatten p-norm of the frequency response, raised to the p."""
        return float(np.sum((omega**2 + self.nonzero_eigenvalues**2) ** (-p / 2.0)))


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-9
    max_subdivisions: int = 200


def hp_norm_numeric(graph: WeightedGraph, p: float,
                    quad_settings: QuadratureSettings | None = None) -> float:
    """H_p norm by direct quadrature of the defining frequency integral.

    Substituting omega = tan(theta) maps the real line onto a finite interval;
    adaptive Gauss-Kronrod quadrature (with endpoint extrapolation) then
    handles the integrable endpoint behaviour for 1 < p < 2.  This route never
    touches the beta/zeta closed form, so it is an independent oracle for it.
    SciPy is imported here, not at module level, so that only this oracle
    pays for loading it.
    """
    from scipy.integrate import quad

    if not (1.0 < p < math.inf):
        raise DomainError(f"numeric hp norm needs finite p > 1, got {p}")
    settings = quad_settings or QuadratureSettings()
    model = TransferModel.from_graph(graph)

    def integrand(theta: float) -> float:
        t = math.tan(theta)
        return model.schatten_power(t, p) * (1.0 + t * t)

    try:
        result = quad(integrand, 0.0, math.pi / 2.0, epsabs=0.0,
                      epsrel=settings.rel_tol, limit=settings.max_subdivisions,
                      full_output=True)
    except ValueError as exc:
        raise NumericalError(f"quadrature tolerance {settings.rel_tol:g} "
                             f"is not achievable: {exc}")
    if len(result) > 3:
        raise NumericalError(f"frequency quadrature did not converge: {result[3]}")
    value, abs_err = result[0], result[1]
    if abs_err > 10.0 * settings.rel_tol * abs(value):
        raise NumericalError(
            f"frequency quadrature error {abs_err:.3e} exceeds budget for value {value:.6e}")
    # even integrand: the half-line integral is half of the full one, and the
    # norm includes the 1/(2*pi) prefactor.
    return (value / math.pi) ** (1.0 / p)


def evaluate_eigenvalues(lam: np.ndarray, measure: MeasureDescriptor,
                         degrees: np.ndarray | None = None) -> float:
    """Evaluate a measure from the nonzero eigenvalue vector (any order).

    local_error additionally needs the node degree vector and is rejected
    without one; every other measure is a symmetric function of lam.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0 or np.any(lam <= 0):
        raise DomainError("expected a nonempty strictly positive eigenvalue vector")
    mid = measure.id
    if mid == "zeta_measure":
        if measure.p == math.inf:
            return measure.k / float(lam.min())
        return measure.k * _zeta_root(lam, float(measure.p))
    if mid == "hp_norm":
        if measure.p == math.inf:
            return 1.0 / float(lam.min())
        return _hp_root(lam, float(measure.p))
    if mid == "h2":
        return float(math.sqrt(np.sum(0.5 / lam)))
    if mid in ("hinf", "convergence_time"):
        return 1.0 / float(lam.min())
    if mid == "energy1":
        return float(np.sum(0.5 / lam))
    if mid == "energy2":
        return float(np.sum(0.5 / lam**2))
    if mid == "entropy":
        return -float(np.sum(np.log(lam)))
    if mid == "schur_sum":
        fn = get_spectral_function(measure.f_id)
        return float(np.sum(fn.fn(lam)))
    if mid == "local_error":
        if degrees is None:
            raise DomainError("local_error is degree-based; eigenvalues alone cannot express it")
        return float(0.5 * np.sum(1.0 / degrees))
    raise DomainError(f"unknown measure id {mid!r}")


def evaluate(graph: WeightedGraph, measure: MeasureDescriptor) -> float:
    """Evaluate a catalog measure on a connected weighted graph."""
    if measure.id == "local_error":
        return evaluate_eigenvalues(
            _nonzero_eigenvalues(graph), measure, degrees=laplacian(graph).degrees)
    return evaluate_eigenvalues(_nonzero_eigenvalues(graph), measure)


def spectral_form(measure: MeasureDescriptor) -> Callable[[np.ndarray], float]:
    """The measure as a plain function of a positive eigenvalue vector."""
    if not is_spectral(measure):
        raise DomainError(f"{measure.id} has no spectrum-level form")
    return lambda x: evaluate_eigenvalues(np.asarray(x, dtype=float), measure)


def entropy_via_trees(graph: WeightedGraph) -> float:
    """Entropy measure from the spanning-tree count: -log(n * tau).

    The matrix-tree identity (product of nonzero eigenvalues = n * tau) makes
    this equal to -sum(log lambda_i).  See ENTROPY_FORM_WARNING for why the
    often-quoted log(n/tau) is not reproduced here.
    """
    if not is_connected(graph):
        raise ConnectivityError("spanning-tree entropy needs a connected graph")
    tau = spanning_tree_count(graph)
    if tau <= 0:
        raise ConnectivityError(f"non-positive spanning tree weight {tau}")
    return -math.log(graph.n * tau)
