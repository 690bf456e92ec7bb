"""Catalog of systemic performance/robustness measures on consensus networks.

Every measure is a function of the Laplacian spectrum (plus node degrees for
the local-error measure).  The closed-form H_p norm goes through the spectral
zeta function and a beta-function coefficient; hp_norm_numeric evaluates the
defining frequency integral instead and exists purely to cross-check the
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConnectivityError, DomainError, NumericalError
from .graphs import WeightedGraph, is_connected, spanning_tree_count
from .spectral import graph_spectrum

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
    _built_function.cache_clear()


def get_spectral_function(f_id: str) -> SpectralFunction:
    """Resolve identifiers like 'inverse', 'inverse_pow:2.5' or 'exp_decay(0.3)'.

    Each identifier is built and checked once, until the next registration.
    """
    return _built_function(f_id)


@lru_cache(maxsize=256)
def _built_function(f_id: str) -> SpectralFunction:
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
# the measure table: every per-measure fact in one entry

class _Param(NamedTuple):
    """A descriptor field a measure accepts.  ok(value) is falsy outside the
    field's domain (or raises DomainError itself), error is the message for
    such a value, and a missing value takes the default or is rejected."""

    ok: Callable[[object], object]
    error: str = ""
    default: float | None = None


class _Measure(NamedTuple):
    """A catalog measure.

    value(x, m) and grad(x, m, value) = d value / d x_i take x, the nonzero
    spectrum, or the node degree vector when spectral is False.
    homogeneous(m): the value scales as 1/kappa when all weights scale by
    kappa.  nonsmooth(m): the value is a multiple of 1/lambda_2, so grad is
    only a subgradient where lambda_2 is repeated.
    """

    value: Callable[[np.ndarray, "MeasureDescriptor"], float]
    grad: Callable[[np.ndarray, "MeasureDescriptor", float], np.ndarray]
    params: Mapping[str, _Param] = {}
    homogeneous: Callable[["MeasureDescriptor"], bool] = lambda m: False
    nonsmooth: Callable[["MeasureDescriptor"], bool] = lambda m: False
    spectral: bool = True


def _hp_coefficient(p: float) -> float:
    # 1/(2*pi) * B((p-1)/2, 1/2), the positive rewriting of the frequency
    # integral's constant; evaluated through log-gamma at positive arguments
    # only, so there is no cancellation from gamma at negative arguments.
    log_b = math.lgamma((p - 1.0) / 2.0) + math.lgamma(0.5) - math.lgamma(p / 2.0)
    return math.exp(log_b) / (2.0 * math.pi)


def _power_root(lam: np.ndarray, scale: float, s: float, p: float,
                coefficient: float = 1.0) -> float:
    """scale * (coefficient * sum lam^-s)^(1/p), in log-space when the sum is
    not a normal double; at p = inf, scale / lambda_2 (coefficient unused)."""
    if p == math.inf:
        return scale / float(lam.min())
    with np.errstate(over="ignore"):
        total = float(np.sum(lam ** (-s)))
    if 2.0 ** -1022 <= total < math.inf:
        return scale * (coefficient * total) ** (1.0 / p)
    logs = -s * np.log(lam)
    peak = float(logs.max())
    log_total = peak + math.log(float(np.sum(np.exp(logs - peak))))
    return scale * math.exp((math.log(coefficient) + log_total) / p)


def _power_root_grad(lam: np.ndarray, s: float, p: float, value: float) -> np.ndarray:
    """Gradient of value = _power_root(lam, scale, s, p, coefficient), as
    -(s/p) * value * w_i / lam_i with w_i = (lam_min/lam_i)^s / sum_j
    (lam_min/lam_j)^s: each ratio is at most 1, so nothing overflows where
    the value is finite.  At p = inf, w is one-hot at lambda_2."""
    if p == math.inf:
        one_hot = np.arange(lam.size) == np.argmin(lam)
        return np.where(one_hot, -value / lam, 0.0)
    ratios = (float(lam.min()) / lam) ** s
    return -(s / p) * value * (ratios / float(np.sum(ratios))) / lam


# 1 / lambda_2 is the p = inf member of the power-root family
_RECIPROCAL_LAMBDA2 = _Measure(
    value=lambda lam, m: _power_root(lam, 1.0, math.inf, math.inf),
    grad=lambda lam, m, value: _power_root_grad(lam, math.inf, math.inf, value),
    homogeneous=lambda m: True, nonsmooth=lambda m: True)

_MEASURES: dict[str, _Measure] = {
    "zeta_measure": _Measure(
        value=lambda lam, m: _power_root(lam, m.k, m.p, m.p),
        grad=lambda lam, m, value: _power_root_grad(lam, m.p, m.p, value),
        params={"p": _Param(lambda p: 1.0 <= p, "zeta_measure needs 1 <= p <= inf, got {}"),
                "k": _Param(lambda k: k > 0, "zeta_measure needs k > 0, got {}", 1.0)},
        homogeneous=lambda m: True, nonsmooth=lambda m: m.p == math.inf),
    "hp_norm": _Measure(
        value=lambda lam, m: _power_root(lam, 1.0, m.p - 1.0, m.p, _hp_coefficient(m.p)),
        grad=lambda lam, m, value: _power_root_grad(lam, m.p - 1.0, m.p, value),
        params={"p": _Param(lambda p: p > 1.0, "hp_norm needs p > 1 (the defining "
                                               "integral diverges at p = 1), got {}")},
        homogeneous=lambda m: m.p == math.inf, nonsmooth=lambda m: m.p == math.inf),
    "h2": _Measure(
        value=lambda lam, m: float(math.sqrt(np.sum(0.5 / lam))),
        grad=lambda lam, m, value: (-0.5 / lam**2) * (0.5 / value)),
    "hinf": _RECIPROCAL_LAMBDA2,
    "energy1": _Measure(
        value=lambda lam, m: float(np.sum(0.5 / lam)),
        grad=lambda lam, m, value: -0.5 / lam**2,
        homogeneous=lambda m: True),
    "energy2": _Measure(
        value=lambda lam, m: float(np.sum(0.5 / lam**2)),
        grad=lambda lam, m, value: -1.0 / lam**3),
    "convergence_time": _RECIPROCAL_LAMBDA2,
    "local_error": _Measure(
        value=lambda degrees, m: float(0.5 * np.sum(1.0 / degrees)),
        grad=lambda degrees, m, value: -0.5 / degrees**2,
        homogeneous=lambda m: True, spectral=False),
    "entropy": _Measure(
        value=lambda lam, m: -float(np.sum(np.log(lam))),
        grad=lambda lam, m, value: -1.0 / lam),
    # get_spectral_function is looked up on every call, not bound here, so
    # that a wrapper installed on the module attribute sees each call
    "schur_sum": _Measure(
        value=lambda lam, m: float(np.sum(get_spectral_function(m.f_id).fn(lam))),
        grad=lambda lam, m, value: np.asarray(
            get_spectral_function(m.f_id).derivative(lam), dtype=float),
        params={"f_id": _Param(lambda f_id: get_spectral_function(f_id))}),
}

MEASURE_IDS = tuple(_MEASURES)

# descriptor field -> (article, noun) for the error messages
_FIELDS = {"p": ("an", "exponent p"), "k": ("a", "scale k"),
           "f_id": ("a", "spectral function id f_id")}


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
        if self.id not in _MEASURES:
            raise DomainError(f"unknown measure id {self.id!r}")
        params = _MEASURES[self.id].params
        for name, (article, noun) in _FIELDS.items():
            value, param = getattr(self, name), params.get(name)
            if param is None and value is not None:
                raise DomainError(f"{self.id} takes no {noun}" if params
                                  else f"measure {self.id!r} takes no parameters")
            if param is None:
                continue
            if value is None:
                if param.default is None:
                    raise DomainError(f"{self.id} needs {article} {noun}")
                value = param.default
                object.__setattr__(self, name, value)
            if not param.ok(value):
                raise DomainError(param.error.format(value))

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
    return _MEASURES[measure.id].homogeneous(measure)


def is_spectral(measure: MeasureDescriptor) -> bool:
    """True when the measure depends on the Laplacian only through eigenvalues."""
    return _MEASURES[measure.id].spectral


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

def zeta(graph: WeightedGraph, p: float) -> float:
    """Spectral zeta function: sum of nonzero Laplacian eigenvalues to the -p.

    Only p > 0 gives a systemic measure: p = 0 counts the n - 1 nonzero modes
    and p < 0 sums positive powers, and neither decreases as edges are added.
    """
    if not (p > 0):
        raise DomainError(f"zeta exponent p must be positive, got {p}")
    lam = graph_spectrum(graph).nonzero
    return float(np.sum(lam ** (-float(p))))


def zeta_measure(graph: WeightedGraph, p: float, k: float) -> float:
    """k * zeta(p)^(1/p); the p = inf limit is k over the algebraic connectivity."""
    return evaluate(graph, MeasureDescriptor("zeta_measure", p=p, k=k))


def hp_norm(graph: WeightedGraph, p: float) -> float:
    """Closed-form H_p norm of the disturbance-to-disagreement transfer function.

    Equals (coefficient(p) * zeta(p-1))^(1/p) for finite p > 1, and the
    reciprocal algebraic connectivity at p = inf.  p <= 1 is rejected: the
    defining frequency integral diverges there.
    """
    return evaluate(graph, MeasureDescriptor("hp_norm", p=p))


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
    entry = _MEASURES[measure.id]
    if entry.spectral:
        return entry.value(lam, measure)
    if degrees is None:
        raise DomainError(
            f"{measure.id} is degree-based; eigenvalues alone cannot express it")
    return entry.value(degrees, measure)


def evaluate(graph: WeightedGraph, measure: MeasureDescriptor) -> float:
    """Evaluate a catalog measure on a connected weighted graph.

    A degree-based measure needs no eigensolve: it reads the graph's degree
    vector and its connectivity flag, so a weak but present bridge does not
    count as a cut.
    """
    entry = _MEASURES[measure.id]
    if entry.spectral:
        return evaluate_eigenvalues(graph_spectrum(graph).nonzero, measure)
    if graph.n < 2:
        raise DomainError("consensus measures need at least 2 nodes")
    if not is_connected(graph):
        raise ConnectivityError(f"{measure.id} needs a connected graph")
    return entry.value(graph.degrees, measure)


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
