"""Euler-Maruyama oracle for the noise-driven consensus dynamics.

Integrates the disagreement (centered) state under per-node white noise and
time-averages its squared norm; the stationary value of that average is the
squared H_2 measure, so the simulation cross-checks the spectral formulas
without touching them.  Noise streams are counter-based (Philox) keyed by
(seed, trial), which makes trials reproducible and order-independent.

`_integrate` steps trials 0 .. trials-1 and sums each one's squared states
after burn-in; `estimate_h2` averages those sums.  The recursion draws the
noise one chunk of steps ahead on two worker threads, each filling half of
the trials (NumPy releases the interpreter lock while it fills).  Every
trial reads only its own stream, so the result is bit-identical to drawing
the trials one after another, and independent of thread and BLAS
scheduling.

Memory: a chunk is as many steps as fit into NOISE_BUFFER_BYTES (2 MiB) for
all trials x n nodes, at least one step and at most the run's own.  The
recursion holds two noise buffers of that size and steps each chunk in
place: a step's state overwrites its own increment, and the time-average sums
read the states from the buffer.  That is 4.2 MB of buffers at 32 trials x 50
nodes (163-step chunks) however long the horizon, and each chunk is derived
as the loop reaches it; a step of all trials larger than the budget makes
one-step buffers.  The chunk length moves only the grouping of the
time-average sums, by ulps.
"""

from __future__ import annotations

import math
import numbers
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import WeightedGraph, laplacian
from .spectral import graph_spectrum

NOISE_BUFFER_BYTES = 2 << 20  # budget of each of a run's two noise buffers
MIXING_TIME_CONSTANTS = 5.0  # burn-in the mixing heuristic asks for, in units of 1/lambda_2


def _integer(name: str, value) -> int:
    """`value` as an int; a bool or a non-integral number is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; x0 is the initial state (defaults to zero).

    The seed is an integer in [0, 2**64), and the horizon leaves at least
    one step after the burn-in (ConfigError otherwise).  Stability needs
    dt * lambda_max < 2; the burn-in should cover at least
    MIXING_TIME_CONSTANTS / lambda_2 of mixing time (warned about, not
    enforced).
    """

    dt: float
    horizon: float
    burn_in: float
    trials: int
    seed: int
    x0: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("dt", "horizon", "burn_in"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (self.horizon > self.burn_in >= 0):
            raise ConfigError(
                f"need horizon > burn_in >= 0, got {self.horizon}, {self.burn_in}")
        # burn_in < horizon, so a finite horizon / dt bounds burn_in / dt too
        if not math.isfinite(float(self.horizon) / float(self.dt)):
            raise ConfigError(f"horizon / dt is not a finite step count: "
                              f"{self.horizon} / {self.dt}")
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        # a Philox key word holds the seed: any other integer would alias one in range
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.total_steps <= self.burn_steps:
            raise ConfigError("horizon leaves no steps after burn-in")
        if self.x0 is not None:
            try:
                x0 = tuple(float(v) for v in self.x0)
            except (TypeError, ValueError):
                raise ConfigError(f"x0 must be a sequence of numbers, got {self.x0!r}") from None
            if not all(math.isfinite(v) for v in x0):
                raise ConfigError(f"x0 entries must be finite, got {x0}")
            object.__setattr__(self, "x0", x0)

    @property
    def total_steps(self) -> int:
        """Euler-Maruyama steps over the horizon."""
        return int(round(self.horizon / self.dt))

    @property
    def burn_steps(self) -> int:
        """Steps before the time average starts."""
        return int(round(self.burn_in / self.dt))


def _chunk_steps(rows: int, n: int, total_steps: int) -> int:
    """Steps per noise chunk: as many as fit rows x n doubles each into
    NOISE_BUFFER_BYTES, at least one, and at most the run's total_steps."""
    return max(1, min(total_steps, NOISE_BUFFER_BYTES // (8 * rows * n)))


def _validate(graph: WeightedGraph, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    spectrum = graph_spectrum(graph)  # also enforces connectivity
    lam_max = float(spectrum.eigenvalues[-1])
    lam_2 = float(spectrum.nonzero[0])
    if cfg.dt * lam_max >= 2.0:
        raise ConfigError(
            f"explicit scheme unstable: dt * lambda_max = {cfg.dt * lam_max:.3f} >= 2")
    # lambda_2 carries rounding error (P3's comes out as 1 - 2**-52), so a
    # burn-in that meets the heuristic to a relative 1e-9 is not warned about
    mixing = MIXING_TIME_CONSTANTS / lam_2
    if cfg.burn_in < mixing * (1.0 - 1e-9):
        warnings.warn(
            f"burn_in {cfg.burn_in:g} is below the mixing heuristic "
            f"{MIXING_TIME_CONSTANTS:g}/lambda_2 = {mixing:g}; the estimate may be biased",
            stacklevel=3)
    matrix = laplacian(graph)
    if cfg.x0 is None:
        initial = np.zeros(graph.n)
    else:
        initial = np.asarray(cfg.x0, dtype=float)
        if initial.shape != (graph.n,):
            raise ConfigError(f"x0 has length {initial.shape[0]}, graph has {graph.n} nodes")
    return matrix, initial


def _trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The noise stream of one trial: Philox keyed by (seed, trial)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fill_noise(generators: list[np.random.Generator], block: np.ndarray,
                sqrt_dt: float) -> None:
    """Draw each trial's next steps into its row of `block` (trials, steps, n),
    then center every step across nodes and scale it by sqrt(dt), in place."""
    for generator, rows in zip(generators, block):
        generator.standard_normal(out=rows)
    block -= block.mean(axis=2, keepdims=True)
    block *= sqrt_dt


def _chunks(noise: np.ndarray, total_steps: int):
    """Yield (first step, block) for each chunk of a run of total_steps steps,
    as the loop reaches it: the chunks alternate between the two buffers of
    `noise` (2, trials, chunk_steps, n), and the last one may be short."""
    for index, step in enumerate(range(0, total_steps, noise.shape[2])):
        yield step, noise[index % 2, :, :total_steps - step]


def _fill_ahead(generators: list[np.random.Generator], noise: np.ndarray,
                total_steps: int, sqrt_dt: float, barrier: threading.Barrier,
                errors: list) -> None:
    """Worker: draw each chunk into its buffer of `noise` in turn (see
    _chunks), meeting the caller at `barrier` after each one. An exception is
    stored in `errors` and breaks the barrier; a broken barrier (the caller
    gave up) ends the worker."""
    try:
        for _, block in _chunks(noise, total_steps):
            _fill_noise(generators, block, sqrt_dt)
            barrier.wait()
    except threading.BrokenBarrierError:
        pass
    except BaseException as exc:
        errors.append(exc)
        barrier.abort()


def _integrate(matrix: np.ndarray, initial: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Euler-Maruyama recursion of trials 0 .. trials-1 in lockstep, each from
    the centered initial state on the noise stream of its id; returns each
    trial's sum of squared states over the steps after burn-in.  While a chunk
    is stepped, two worker threads draw the next chunk's noise, each for half
    of the trials; both are joined before this returns, and an error in either
    is raised here.
    """
    n, count, total_steps = initial.shape[0], cfg.trials, cfg.total_steps
    sqrt_dt = math.sqrt(cfg.dt)
    step_matrix = np.eye(n) - cfg.dt * matrix
    generators = [_trial_generator(cfg.seed, trial) for trial in range(count)]
    half = (count + 1) // 2
    halves = [(lo, hi) for lo, hi in ((0, half), (half, count)) if lo < hi]
    noise = np.empty((2, count, _chunk_steps(count, n, total_steps), n))
    product = np.empty((count, n))
    state = np.tile(initial - initial.mean(), (count, 1))
    sums = np.zeros(count)
    # the caller and the workers meet once per chunk: the chunk's noise is
    # drawn, and the buffer the workers fill next has been stepped through
    barrier = threading.Barrier(len(halves) + 1)
    errors: list[BaseException] = []
    workers = [threading.Thread(
        target=_fill_ahead,
        args=(generators[lo:hi], noise[:, lo:hi], total_steps, sqrt_dt, barrier, errors))
        for lo, hi in halves]
    try:
        for worker in workers:
            worker.start()
        for step, block in _chunks(noise, total_steps):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                raise errors[0] from None
            # each state x A + dW overwrites its own increment dW
            current = state
            for increment in block.swapaxes(0, 1):
                np.matmul(current, step_matrix, out=product)
                increment += product
                current = increment
            kept = block[:, max(cfg.burn_steps - step, 0):]  # empty in the burn-in
            sums += np.einsum("isj,isj->i", kept, kept)
            # copied out now: past the next barrier the workers refill this buffer
            state[...] = current
    finally:
        barrier.abort()
        for worker in workers:
            if worker.ident is not None:
                worker.join()
    return sums


def estimate_h2(graph: WeightedGraph, cfg: SimConfig) -> tuple[float, float]:
    """Monte-Carlo estimate of the squared H_2 measure with its standard error.

    The per-trial time averages are combined by numpy's pairwise-summation
    mean, so results are deterministic for a fixed seed.
    """
    matrix, initial = _validate(graph, cfg)
    per_trial = _integrate(matrix, initial, cfg) / (cfg.total_steps - cfg.burn_steps)
    estimate = float(np.mean(per_trial))
    if cfg.trials == 1:
        return estimate, math.nan
    stderr = float(np.std(per_trial, ddof=1) / math.sqrt(cfg.trials))
    return estimate, stderr
