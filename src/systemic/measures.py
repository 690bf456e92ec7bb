"""Catalog of systemic performance/robustness measures on consensus networks.

Every measure is a function of the Laplacian spectrum (plus node degrees for
the local-error measure).  schur_sum sums one of four fixed decreasing convex
functions over the spectrum, named 'name' or 'name:q' (get_spectral_function),
and design's augmentation bound reads the same table.  The closed-form H_p
norm goes through the spectral zeta function and a beta-function
coefficient; hp_norm_numeric evaluates the defining frequency integral
instead and exists purely to cross-check the closed form.  It uses the
trapezoidal rule in x = log omega, where the integrand is analytic in the
strip |Im x| < pi/2 and decays exponentially at both ends, so the rule
converges geometrically in the step.  The step is halved until two levels
agree to QuadratureSettings.rel_tol, within a fixed budget of integrand
terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .graphs import WeightedGraph, _check_consensus, spanning_tree_count
from .spectral import graph_spectrum

ENTROPY_FORM_WARNING = (
    "the closed form log(n/tau) sometimes quoted for the entropy measure disagrees "
    "with the spectral value -sum(log lambda_i); the matrix-tree identity gives "
    "-log(n*tau) instead (unit triangle: -log 9 = -2.1972246 vs log(3/3) = 0). "
    "Reporting the matrix-tree-consistent value."
)


# ---------------------------------------------------------------------------
# the decreasing convex spectral functions (for schur_sum and bounds)

@dataclass(frozen=True)
class SpectralFunction:
    """A decreasing convex function applied to nonzero Laplacian eigenvalues."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


# name -> (parameter noun or None, f(x, q), f'(x, q)).  Each f is decreasing
# and convex on (0, inf) for every q > 0, and vanishes at infinity.
_SPECTRAL_FUNCTIONS = {
    "inverse": (None, lambda x, q: 0.5 / x, lambda x, q: -0.5 / x**2),
    "inverse_sq": (None, lambda x, q: 0.5 / x**2, lambda x, q: -1.0 / x**3),
    "inverse_pow": ("exponent", lambda x, q: x**(-q), lambda x, q: -q * x**(-q - 1.0)),
    "exp_decay": ("rate", lambda x, q: np.exp(-q * x), lambda x, q: -q * np.exp(-q * x)),
}


@lru_cache(maxsize=256)
def get_spectral_function(f_id: str) -> SpectralFunction:
    """Resolve 'name' or 'name:q': inverse, inverse_sq, inverse_pow:q or
    exp_decay:q, with q finite and > 0.

    Each identifier is resolved once.  f is sampled on a log grid over
    [1e-3, 1e3], where it must be finite without an overflow on the way:
    inverse_pow:200 and exp_decay:1e308 are not.
    """
    name, sep, rest = f_id.partition(":")
    if name not in _SPECTRAL_FUNCTIONS:
        raise DomainError(f"unknown spectral function {name!r}")
    noun, fn, derivative = _SPECTRAL_FUNCTIONS[name]
    if noun is None:
        if sep:
            raise DomainError(f"{name!r} takes no parameter")
        q, label = None, name
    else:
        try:
            q = float(rest)
        except ValueError:
            q = math.nan
        if not (sep and 0.0 < q < math.inf):
            raise DomainError(f"{name!r} needs a finite positive {noun}, "
                              f"e.g. {name}:2, got {f_id!r}")
        label = f"{name}:{q:g}"
    try:
        with np.errstate(over="raise"):
            finite = np.isfinite(fn(np.logspace(-3.0, 3.0, 121), q)).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise DomainError(f"spectral function {label!r} is not finite on (0, inf)")
    return SpectralFunction(label, lambda x: fn(x, q), lambda x: derivative(x, q))


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
    kappa.  nonsmooth(m): the value is k/lambda_2, grad only a subgradient
    where lambda_2 repeats, so design descends zeta_measure(p) instead.
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
    try:
        log_b = math.lgamma((p - 1.0) / 2.0) + math.lgamma(0.5) - math.lgamma(p / 2.0)
    except OverflowError:
        # past p = 5e305: lgamma(x - 1/2) - lgamma(x) = -log(x)/2 + O(1/x), x = p/2
        log_b = math.lgamma(0.5) - 0.5 * math.log(p / 2.0)
    return math.exp(log_b) / (2.0 * math.pi)


def _min_ratios(lam: np.ndarray, s: float) -> tuple[float, np.ndarray]:
    """lam_min and the ratios (lam_min/lam_i)^s, each in [0, 1] and one of
    them 1, so that sum lam^-s = lam_min^-s * sum ratios with no overflow."""
    low = float(lam.min())
    return low, (low / lam) ** s


def _power_root(lam: np.ndarray, scale: float, s: float, p: float,
                coefficient: float = 1.0) -> float:
    """scale * (coefficient * sum lam^-s)^(1/p), in log-space when the sum is
    not a normal double, and inf where even that overflows; at p = inf,
    scale / lambda_2 (coefficient unused).  The log-space sum is taken over
    _min_ratios, and s/p is formed before it multiplies log lam_min, so
    neither overflows even at p near the largest double."""
    if p == math.inf:
        return scale / float(lam.min())
    with np.errstate(over="ignore"):
        total = float((lam ** (-s)).sum())
    if 2.0 ** -1022 <= total < math.inf:
        return scale * (coefficient * total) ** (1.0 / p)
    low, ratios = _min_ratios(lam, s)
    log_root = ((math.log(coefficient) + math.log(float(ratios.sum()))) / p
                - (s / p) * math.log(low))
    try:
        return scale * math.exp(log_root)
    except OverflowError:
        return math.inf


def _power_root_grad(lam: np.ndarray, s: float, p: float, value: float) -> np.ndarray:
    """Gradient of value = _power_root(lam, scale, s, p, coefficient), as
    -(s/p) * value * w_i / lam_i with w_i the _min_ratios over their sum:
    each ratio is at most 1, so nothing overflows where the value is
    finite.  At p = inf, w is one-hot at lambda_2."""
    if p == math.inf:
        one_hot = np.arange(lam.size) == np.argmin(lam)
        return np.where(one_hot, -value / lam, 0.0)
    _, ratios = _min_ratios(lam, s)
    return -(s / p) * value * (ratios / float(ratios.sum())) / lam


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
                "k": _Param(lambda k: 0 < k < math.inf,
                            "zeta_measure needs 0 < k < inf, got {}", 1.0)},
        homogeneous=lambda m: True, nonsmooth=lambda m: m.p == math.inf),
    "hp_norm": _Measure(
        value=lambda lam, m: _power_root(lam, 1.0, m.p - 1.0, m.p, _hp_coefficient(m.p)),
        grad=lambda lam, m, value: _power_root_grad(lam, m.p - 1.0, m.p, value),
        params={"p": _Param(lambda p: p > 1.0, "hp_norm needs p > 1 (the defining "
                                               "integral diverges at p = 1), got {}")},
        homogeneous=lambda m: m.p == math.inf, nonsmooth=lambda m: m.p == math.inf),
    "h2": _Measure(
        value=lambda lam, m: math.sqrt((0.5 / lam).sum()),
        grad=lambda lam, m, value: (-0.5 / lam**2) * (0.5 / value)),
    "hinf": _RECIPROCAL_LAMBDA2,
    "energy1": _Measure(
        value=lambda lam, m: float((0.5 / lam).sum()),
        grad=lambda lam, m, value: -0.5 / lam**2,
        homogeneous=lambda m: True),
    "energy2": _Measure(
        value=lambda lam, m: float((0.5 / lam**2).sum()),
        grad=lambda lam, m, value: -1.0 / lam**3),
    "convergence_time": _RECIPROCAL_LAMBDA2,
    "local_error": _Measure(
        value=lambda degrees, m: float(0.5 * (1.0 / degrees).sum()),
        grad=lambda degrees, m, value: -0.5 / degrees**2,
        homogeneous=lambda m: True, spectral=False),
    "entropy": _Measure(
        value=lambda lam, m: -float(np.log(lam).sum()),
        grad=lambda lam, m, value: -1.0 / lam),
    # get_spectral_function is looked up on every call, not bound here, so
    # that a wrapper installed on the module attribute sees each call
    "schur_sum": _Measure(
        value=lambda lam, m: float(get_spectral_function(m.f_id).fn(lam).sum()),
        grad=lambda lam, m, value: get_spectral_function(m.f_id).derivative(lam),
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

def _finite(value: Callable[[np.ndarray, object], float], x: np.ndarray, arg,
            name: MeasureDescriptor | str) -> float:
    """value(x, arg), or NumericalError naming the measure when that is not a
    finite double; a descriptor's label is formatted only then.  Where
    warnings are errors, NumPy raises its overflow warning before the value
    exists; the value is then computed again with NumPy's floating-point
    reports off, so the error is the same either way."""
    try:
        result = value(x, arg)
    except (FloatingPointError, RuntimeWarning):
        with np.errstate(all="ignore"):
            result = value(x, arg)
    if not math.isfinite(result):
        name = name if isinstance(name, str) else name.label()
        raise NumericalError(f"{name} is {result} in double precision")
    return result


def _power_sum(lam: np.ndarray, p: float) -> float:
    return float(np.sum(lam ** -p))


def zeta(graph: WeightedGraph, p: float) -> float:
    """Spectral zeta function: sum of nonzero Laplacian eigenvalues to the -p.

    Only a finite p > 0 gives a systemic measure: p = 0 counts the n - 1
    nonzero modes and p < 0 sums positive powers, and neither decreases as
    edges are added; at p = inf each term is 0 or inf.
    """
    if not (0 < p < math.inf):
        raise DomainError(f"zeta exponent p must be finite and positive, got {p}")
    return _finite(_power_sum, graph_spectrum(graph).nonzero, float(p), f"zeta({p:g})")


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
class QuadratureSettings:
    """rel_tol: two successive trapezoidal sums must agree to it, 0 < rel_tol < 1.
    The step is halved until they do; the budget of integrand terms is the
    only bound on the halvings."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and 0.0 < self.rel_tol < 1.0):
            raise DomainError(
                f"rel_tol must be finite with 0 < rel_tol < 1, got {self.rel_tol!r}")


# the quadrature oracle's budget of integrand terms (nodes times modes) per
# call, and how many it evaluates at once, which bounds its memory
_QUADRATURE_TERMS = 2**26
_BLOCK_TERMS = 2**16
_EPS = 2.0 ** -52  # double-precision machine epsilon


def _log_frequency_integrand(log_mu: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """omega * sum_i (omega^2 + mu_i^2)^(-p/2) at omega = exp(x), for each x.

    The transfer function from disturbance to disagreement output has
    singular values (omega^2 + mu_i^2)^(-1/2) over the nonzero modes mu_i; the
    consensus mode is annihilated by the output projection.  Each mode
    contributes exp(x - (p/2) logaddexp(2x, 2 log mu)), evaluated as
    exp(min(u, 0) - (p-1) max(x, log mu) - (p/2) log1p(exp(-2|u|))) with
    u = x - log mu: no power is formed, so every node is finite for any x, and
    the x - p x cancellation at high frequency is taken out.  Each term is at
    most 1 when every mu is at least 1.
    """
    x = x[:, None]
    u = x - log_mu
    # (p - 1) max(x, log mu) can overflow at p near the largest double, to
    # the -inf exponent of a term that vanishes
    with np.errstate(over="ignore"):
        exponent = (np.minimum(u, 0.0) - (p - 1.0) * np.maximum(x, log_mu)
                    - 0.5 * p * np.log1p(np.exp(-2.0 * np.abs(u))))
    return np.exp(exponent).sum(axis=1)


def _node_sum(log_mu: np.ndarray, p: float, start: float, step: float,
              count: int) -> float:
    """Sum of the log-frequency integrand over x = start + j * step, j < count."""
    block = max(1, _BLOCK_TERMS // log_mu.size)
    total = 0.0
    for first in range(0, count, block):
        x = start + step * np.arange(first, min(first + block, count))
        total += float(_log_frequency_integrand(log_mu, x, p).sum())
    return total


def hp_norm_numeric(graph: WeightedGraph, p: float,
                    quad_settings: QuadratureSettings | None = None) -> float:
    """H_p norm by direct quadrature of the defining frequency integral.

    I = int_0^inf sum_i (omega^2 + lambda_i^2)^(-p/2) d omega is taken in
    x = log omega, over the eigenvalues divided by lambda_2 (I scales as
    lambda_2^(1-p)).  In x the integrand is analytic in the strip
    |Im x| < pi/2 (omega = e^x meets the poles +-i lambda on its edges) and
    decays exponentially at both ends, so the plain trapezoidal rule with
    step h converges geometrically, with error about exp(-pi^2 / h)
    (Trefethen and Weideman, SIAM Rev. 56(3), 2014).  The sum runs over
    [-c, log(lambda_max / lambda_2) + c/(p-1)] with c = 2 log(1/rel_tol) +
    log(p)/2 + 2; the two tails outside hold less than rel_tol^2 of I.  The
    step starts at h = 1 and is halved, each level adding the midpoints to
    the previous sum, until two levels agree to rel_tol; the finer level's
    error is then about the square of that difference.

    A fixed budget of integrand terms caps the halvings and so the work,
    which is evaluated in blocks of bounded size.  A tolerance below 50 eps,
    an exponent so close to 1 that the range (which grows as 1/(p-1)) does
    not fit the budget, and a budget that runs out before two levels agree
    raise NumericalError.  This route never touches the beta/zeta closed
    form, so it is an independent oracle for it.
    """
    if not (1.0 < p < math.inf):
        raise DomainError(f"numeric hp norm needs finite p > 1, got {p}")
    tol = (quad_settings or QuadratureSettings()).rel_tol
    if tol < 50.0 * _EPS:
        raise NumericalError(f"quadrature tolerance {tol:g} is not achievable in double "
                             f"precision (below 50 eps = {50.0 * _EPS:.2g})")
    lam = graph_spectrum(graph).nonzero
    lambda_2 = float(lam.min())
    log_mu = np.log(lam / lambda_2)
    # With mu = lambda / lambda_2 >= 1, I >= K(p) sum mu^(1-p), where K(p) =
    # int_0^inf (1 + t^2)^(-p/2) dt >= max(e^(-1/2) / sqrt(p), 2^(-p/2) / (p-1)).
    # The integrand is at most e^x sum mu^-p below -c and (n-1) e^((1-p) x)
    # above log mu_max + c/(p-1), so the tails hold at most 0.22 and 0.39
    # rel_tol^2 of I.
    c = 2.0 * math.log(1.0 / tol) + 0.5 * math.log(p) + 2.0
    intervals = math.ceil(c + math.log(float(lam.max()) / lambda_2) + c / (p - 1.0))

    def within_budget(nodes: int, step: float) -> int:
        if nodes * lam.size > _QUADRATURE_TERMS:
            raise NumericalError(
                f"frequency quadrature at p = {p!r} needs {nodes:.3g} nodes on "
                f"{lam.size} modes at step {step:g}, over the budget of "
                f"{_QUADRATURE_TERMS} integrand terms")
        return nodes

    # level 0: x = -c + j for j <= intervals; each halving adds the midpoints
    step, nodes = 1.0, within_budget(intervals + 1, 1.0)
    total = _node_sum(log_mu, p, -c, step, nodes)
    estimate = step * total
    while True:  # ended by the budget, since every halving doubles the nodes
        added = nodes - 1  # one midpoint per interval
        nodes = within_budget(nodes + added, step / 2.0)
        total += _node_sum(log_mu, p, -c + step / 2.0, step, added)
        step /= 2.0
        previous, estimate = estimate, step * total
        if abs(estimate - previous) <= tol * estimate:
            # 1/(2 pi) times the full-line integral 2 I, and I back in lambda units
            return (estimate / math.pi) ** (1.0 / p) * lambda_2 ** ((1.0 - p) / p)


def evaluate_eigenvalues(lam: np.ndarray, measure: MeasureDescriptor) -> float:
    """Evaluate a measure from a caller's nonzero eigenvalue vector (any order).

    Every spectral measure is a symmetric function of lam; a degree-based
    measure (local_error) is rejected, and so is an input that is not a
    nonempty 1-D vector or has an entry that is not finite and positive (NaN,
    +-inf, 0 or below).
    """
    lam = np.asarray(lam, dtype=float)
    # min and max propagate NaN, which fails both comparisons
    if (lam.ndim != 1 or lam.size == 0
            or not (lam.min() > 0.0 and lam.max() < math.inf)):
        raise DomainError("expected a nonempty vector of finite positive eigenvalues")
    entry = _MEASURES[measure.id]
    if not entry.spectral:
        raise DomainError(
            f"{measure.id} is degree-based; eigenvalues alone cannot express it")
    return _finite(entry.value, lam, measure, measure)


def evaluate(graph: WeightedGraph, measure: MeasureDescriptor) -> float:
    """Evaluate a catalog measure on a connected weighted graph.

    A spectral measure reads the cached spectrum as it is: graph_spectrum's
    gates have already proved its nonzero part finite and above the solve's
    error bound, so it is not scanned again.  A value that is not a finite
    double (an eigenvalue near the underflow threshold sends 1/lambda to inf)
    is a NumericalError, here as in evaluate_eigenvalues and zeta.  A
    degree-based measure needs no eigensolve: it reads the graph's degree
    vector and its connectivity flag, so a weak but present bridge does not
    count as a cut.
    """
    entry = _MEASURES[measure.id]
    if entry.spectral:
        return _finite(entry.value, graph_spectrum(graph).nonzero, measure, measure)
    _check_consensus(graph)
    return _finite(entry.value, graph.degrees, measure, measure)


def entropy_via_trees(graph: WeightedGraph) -> float:
    """Entropy measure from the spanning-tree count: -log(n * tau).

    The matrix-tree identity (product of nonzero eigenvalues = n * tau) makes
    this equal to -sum(log lambda_i).  It is summed as -(log n + log tau) from
    the log-determinant, so it stays finite where tau over- or underflows.
    See ENTROPY_FORM_WARNING for why the often-quoted log(n/tau) is not
    reproduced here.
    """
    _check_consensus(graph)
    return -(math.log(graph.n) + spanning_tree_count(graph, log=True))
