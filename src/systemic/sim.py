"""Euler-Maruyama oracle for the noise-driven consensus dynamics.

Integrates the disagreement (centered) state under per-node white noise and
time-averages its squared norm; the stationary value of that average is the
squared H_2 measure, so the simulation cross-checks the spectral formulas
without touching them.  Noise streams are counter-based (Philox) keyed by
(seed, trial), which makes trials reproducible and order-independent.

`_integrate` is the one Euler-Maruyama recursion: `estimate_h2` averages over
trials 0 .. trials-1 and `simulate_output` records the path of its one trial,
so trial t of both reads the same noise.  It draws the noise one chunk of
steps ahead on two worker threads, each filling half of the trials (NumPy
releases the interpreter lock while it fills).  Every trial reads only its
own stream, so the result is bit-identical to drawing the trials one after
another, and independent of thread and BLAS scheduling.

Memory: a chunk is as many steps as fit into NOISE_BUFFER_BYTES (4 MiB) for
all trials x n nodes, at least one step and at most the run's own.  The
recursion holds two noise buffers and one buffer of states of that size,
about 13 MB at 32 trials x 50 nodes however long the horizon; a step of all
trials larger than the budget makes one-step buffers.  `simulate_output`
adds the path it returns.  The chunk length moves only the grouping of the
time-average sums, by ulps.
"""

from __future__ import annotations

import math
import numbers
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .graphs import WeightedGraph, laplacian
from .spectral import graph_spectrum

NOISE_BUFFER_BYTES = 4 << 20  # budget of each noise and state buffer of a run
MIXING_TIME_CONSTANTS = 5.0  # burn-in the mixing heuristic asks for, in units of 1/lambda_2


def _integer(name: str, value) -> int:
    """`value` as an int; a bool or a non-integral number is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; x0 is the initial state (defaults to zero).

    Stability needs dt * lambda_max < 2; the burn-in should cover at least
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
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.x0 is not None:
            x0 = tuple(float(v) for v in self.x0)
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


def _center(state: np.ndarray) -> np.ndarray:
    return state - state.mean(axis=-1, keepdims=True)


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
    """The noise stream of one trial: Philox keyed by (seed mod 2**64, trial)."""
    key = np.array([seed & ((1 << 64) - 1), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fill_noise(generators: list[np.random.Generator], block: np.ndarray,
                sqrt_dt: float) -> None:
    """Draw each trial's next steps into its row of `block` (trials, steps, n),
    then center every step across nodes and scale it by sqrt(dt), in place."""
    for generator, rows in zip(generators, block):
        generator.standard_normal(out=rows)
    block -= block.mean(axis=2, keepdims=True)
    block *= sqrt_dt


def _fill_ahead(generators: list[np.random.Generator], blocks: list[np.ndarray],
                sqrt_dt: float, barrier: threading.Barrier, errors: list) -> None:
    """Worker: fill each block in turn, meeting the caller at `barrier` after
    each one. An exception is stored in `errors` and breaks the barrier; a
    broken barrier (the caller gave up) ends the worker."""
    try:
        for block in blocks:
            _fill_noise(generators, block, sqrt_dt)
            barrier.wait()
    except threading.BrokenBarrierError:
        pass
    except BaseException as exc:
        errors.append(exc)
        barrier.abort()


def _integrate(matrix: np.ndarray, initial: np.ndarray, cfg: SimConfig,
               trials: list[int], consume: Callable[[int, np.ndarray], None]) -> None:
    """Euler-Maruyama recursion of the listed trials in lockstep, each from the
    centered initial state on the noise stream of its id.  After each chunk,
    consume(step, states) reads the states after steps step + 1 onward, shape
    (steps, trials, n), in a buffer the next chunk overwrites.  Two worker
    threads draw the next chunk's noise meanwhile, each for half of the
    trials; both are joined before this returns, and an error in either is
    raised here.
    """
    n, count, total_steps = initial.shape[0], len(trials), cfg.total_steps
    sqrt_dt = math.sqrt(cfg.dt)
    step_matrix = np.eye(n) - cfg.dt * matrix
    generators = [_trial_generator(cfg.seed, trial) for trial in trials]
    half = (count + 1) // 2
    halves = [(lo, hi) for lo, hi in ((0, half), (half, count)) if lo < hi]
    chunk_steps = _chunk_steps(count, n, total_steps)
    chunks = [(step, min(chunk_steps, total_steps - step))
              for step in range(0, total_steps, chunk_steps)]
    noise = np.empty((2, count, chunk_steps, n))
    states = np.empty((chunk_steps, count, n))
    state = np.tile(_center(initial), (count, 1))
    # the caller and the workers meet once per chunk: the chunk's noise is
    # drawn, and the buffer the workers fill next has been consumed
    barrier = threading.Barrier(len(halves) + 1)
    errors: list[BaseException] = []
    workers = [threading.Thread(
        target=_fill_ahead,
        args=(generators[lo:hi], [noise[index % 2, lo:hi, :chunk]
                                  for index, (_, chunk) in enumerate(chunks)],
              sqrt_dt, barrier, errors)) for lo, hi in halves]
    try:
        for worker in workers:
            worker.start()
        for index, (step, chunk) in enumerate(chunks):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                raise errors[0] from None
            increments = noise[index % 2, :, :chunk].swapaxes(0, 1)
            # `state` may view the last row of `states`, which is written last
            for out, increment in zip(states[:chunk], increments):
                np.matmul(state, step_matrix, out=out)
                out += increment
                state = out
            consume(step, states[:chunk])
    finally:
        barrier.abort()
        for worker in workers:
            if worker.ident is not None:
                worker.join()


def estimate_h2(graph: WeightedGraph, cfg: SimConfig) -> tuple[float, float]:
    """Monte-Carlo estimate of the squared H_2 measure with its standard error.

    The per-trial time averages are combined by numpy's pairwise-summation
    mean, so results are deterministic for a fixed seed.
    """
    matrix, initial = _validate(graph, cfg)
    burn_steps = cfg.burn_steps
    if cfg.total_steps <= burn_steps:
        raise ConfigError("horizon leaves no steps after burn-in")
    sums = np.zeros(cfg.trials)

    def accumulate(step: int, states: np.ndarray) -> None:
        nonlocal sums
        first_kept = max(burn_steps - step, 0)
        if first_kept < len(states):
            sums += np.einsum("sij,sij->i", states[first_kept:], states[first_kept:])

    _integrate(matrix, initial, cfg, list(range(cfg.trials)), accumulate)
    per_trial = sums / (cfg.total_steps - burn_steps)
    estimate = float(np.mean(per_trial))
    if cfg.trials == 1:
        return estimate, math.nan
    stderr = float(np.std(per_trial, ddof=1) / math.sqrt(cfg.trials))
    return estimate, stderr


def simulate_output(graph: WeightedGraph, cfg: SimConfig, trial: int = 0) -> np.ndarray:
    """Disagreement-output path of one trial, shape (steps + 1, n).

    The path depends on x0 only through its centered part, so shifting every
    node's initial value by the same constant leaves the output untouched.
    `trial` selects the noise stream and must be an integer in [0, 2**64).
    """
    trial = _integer("trial", trial)
    if not 0 <= trial < 1 << 64:
        raise ConfigError(f"trial must be in [0, 2**64), got {trial}")
    matrix, initial = _validate(graph, cfg)
    path = np.empty((cfg.total_steps + 1, graph.n))
    path[0] = _center(initial)

    def record(step: int, states: np.ndarray) -> None:
        path[step + 1:step + 1 + len(states)] = states[:, 0]

    _integrate(matrix, initial, cfg, [trial], record)
    return path


def decay_rate(graph: WeightedGraph, cfg: SimConfig) -> float:
    """Fitted exponential decay rate of the noise-free disagreement norm.

    With the disturbance switched off, the disagreement decays like
    exp(-lambda_2 t) once faster modes die out; the rate is fitted by least
    squares on the log-norm over the second half of the horizon.
    """
    matrix, initial = _validate(graph, cfg)
    state = _center(initial)
    norm0 = float(np.linalg.norm(state))
    if norm0 == 0.0:
        raise DomainError("x0 has no disagreement component; nothing decays")
    total_steps = cfg.total_steps
    norms = np.empty(total_steps + 1)
    norms[0] = norm0
    for step in range(total_steps):
        state = state - cfg.dt * (matrix @ state)
        norms[step + 1] = np.linalg.norm(state)
    start = total_steps // 2
    if np.any(norms[start:] <= 0.0):
        raise DomainError("disagreement reached zero; shorten the horizon")
    times = cfg.dt * np.arange(start, total_steps + 1)
    slope = np.polyfit(times, np.log(norms[start:]), 1)[0]
    return -float(slope)
