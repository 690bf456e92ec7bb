import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import decay_rate, loop_estimate_h2
from systemic import sim
from systemic import (ConfigError, DomainError, MeasureDescriptor, SimConfig,
                      estimate_h2, evaluate, generate, graph_spectrum)


def _quiet_estimate(graph, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return estimate_h2(graph, cfg)


class TestConfig:
    def test_dt_positive(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.0, horizon=1.0, burn_in=0.0, trials=1, seed=0)

    def test_horizon_exceeds_burn_in(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.1, horizon=1.0, burn_in=2.0, trials=1, seed=0)

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.1, horizon=1.0, burn_in=0.0, trials=0, seed=0)

    def test_stability_guard(self, k3):
        cfg = SimConfig(dt=0.7, horizon=10.0, burn_in=2.0, trials=2, seed=0)
        with pytest.raises(ConfigError, match="unstable"):
            estimate_h2(k3, cfg)  # dt * lambda_max = 2.1

    def test_x0_length_checked(self, k3):
        cfg = SimConfig(dt=0.01, horizon=10.0, burn_in=2.0, trials=1, seed=0,
                        x0=(1.0, 2.0))
        with pytest.raises(ConfigError, match="x0"):
            estimate_h2(k3, cfg)

    @pytest.mark.parametrize("field", ["dt", "horizon", "burn_in"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_times_finite(self, field, value):
        # horizon = inf used to pass and overflow in int(round(horizon / dt))
        kwargs = dict(dt=0.01, horizon=10.0, burn_in=1.0, trials=2, seed=1)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("x0", [(math.inf, 0.0, 0.0), (0.0, math.nan, 1.0),
                                    (0.0, 1.0, -math.inf)])
    def test_x0_finite(self, x0):
        # (inf, 0, 0) used to make estimate_h2 return (nan, nan) silently
        with pytest.raises(ConfigError, match="x0"):
            SimConfig(dt=0.01, horizon=10.0, burn_in=1.0, trials=2, seed=1, x0=x0)

    def test_step_count_finite(self):
        # horizon / dt overflowed to inf: accepted here, then an OverflowError
        # from int(round(inf)) in total_steps
        with pytest.raises(ConfigError, match="not a finite step count"):
            SimConfig(dt=1e-320, horizon=1e10, burn_in=0.0, trials=1, seed=1)
        # a finite count, however large, is accepted
        cfg = SimConfig(dt=1e-320, horizon=1e-300, burn_in=0.0, trials=1, seed=1)
        assert cfg.total_steps == round(1e-300 / 1e-320) > 10**19

    @pytest.mark.parametrize("x0", [3.0, ("a",) * 5, (None, 0.0)])
    def test_x0_not_numbers(self, x0):
        # a bare TypeError (3.0, None) or ValueError ("a") from float()
        with pytest.raises(ConfigError, match="x0 must be a sequence of numbers"):
            SimConfig(dt=0.01, horizon=10.0, burn_in=1.0, trials=2, seed=1, x0=x0)

    @pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", True),
                                              ("trials", 2.0), ("trials", "2"),
                                              ("seed", 1.5), ("seed", False),
                                              ("seed", None)])
    def test_counts_integer(self, field, value):
        kwargs = dict(dt=0.01, horizon=10.0, burn_in=1.0, trials=2, seed=1)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimConfig(**kwargs)

    def test_numpy_integers_stored_as_int(self, p3):
        # an np.int64 seed used to overflow when masked to 64 bits
        cfg = SimConfig(dt=0.01, horizon=3.0, burn_in=1.0, trials=np.int64(2),
                        seed=np.uint64(2**64 - 1))
        assert type(cfg.trials) is int and type(cfg.seed) is int
        plain = SimConfig(dt=0.01, horizon=3.0, burn_in=1.0, trials=2, seed=2**64 - 1)
        assert _quiet_estimate(p3, cfg) == _quiet_estimate(p3, plain)

    # the Philox key took the seed mod 2**64: 2**64 drew the noise of seed 0,
    # and -1 that of 2**64 - 1
    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 2**64, -2**64, 2**70])
    def test_seed_in_key_range(self, seed):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            SimConfig(dt=0.01, horizon=3.0, burn_in=1.0, trials=2, seed=seed)

    def test_no_steps_after_burn_in_refused_at_construction(self):
        # horizon 1.004 and burn-in 1.0 both round to 100 steps: the config was
        # accepted, and estimate_h2 refused it after an eigensolve and a warning
        with pytest.raises(ConfigError, match="horizon leaves no steps after burn-in"):
            SimConfig(dt=0.01, horizon=1.004, burn_in=1.0, trials=2, seed=1)
        assert SimConfig(dt=0.01, horizon=1.006, burn_in=1.0, trials=2, seed=1).total_steps == 101

    def test_mixing_warning(self, p3):
        cfg = SimConfig(dt=0.01, horizon=20.0, burn_in=1.0, trials=2, seed=0)
        with pytest.warns(UserWarning, match="burn_in"):
            estimate_h2(p3, cfg)

    def test_no_mixing_warning_at_the_heuristic(self, p3):
        # lambda_2(P3) = 1, so burn_in = 5 meets 5 / lambda_2 exactly
        cfg = SimConfig(dt=0.01, horizon=20.0, burn_in=5.0, trials=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_h2(p3, cfg)


class TestEstimate:
    def test_k3_within_three_sigma(self, k3):
        cfg = SimConfig(dt=1e-3, horizon=120.0, burn_in=5.0, trials=16, seed=9)
        estimate, stderr = estimate_h2(k3, cfg)
        closed = evaluate(k3, MeasureDescriptor("energy1"))
        assert abs(estimate - closed) <= 3.0 * stderr

    def test_p3_within_three_sigma(self, p3):
        cfg = SimConfig(dt=1e-3, horizon=120.0, burn_in=6.0, trials=16, seed=9)
        estimate, stderr = estimate_h2(p3, cfg)
        assert abs(estimate - 2.0 / 3.0) <= 3.0 * stderr

    def test_deterministic_given_seed(self, k3):
        cfg = SimConfig(dt=5e-3, horizon=30.0, burn_in=2.0, trials=4, seed=11)
        assert estimate_h2(k3, cfg) == estimate_h2(k3, cfg)

    def test_shifted_x0_bit_identical(self, c4):
        # n = 4 and dyadic values make the centering arithmetic error-free
        base = (0.0, 0.5, 1.0, 1.5)
        shifted = tuple(v + 2.0 for v in base)
        kwargs = dict(dt=1e-2, horizon=3.0, burn_in=0.0, trials=4, seed=3)
        first = _quiet_estimate(c4, SimConfig(x0=base, **kwargs))
        second = _quiet_estimate(c4, SimConfig(x0=shifted, **kwargs))
        assert [v.hex() for v in first] == [v.hex() for v in second]

    def test_bias_shrinks_with_dt(self, k3):
        # the Euler stationary variance exceeds the exact one by O(dt); the
        # dt grid is checked at a fixed seed with margins verified offline
        closed = 1.0 / 3.0
        biases = []
        for dt in (1e-2, 5e-3, 1e-3):
            cfg = SimConfig(dt=dt, horizon=400.0, burn_in=4.0, trials=50, seed=2)
            estimate, _ = estimate_h2(k3, cfg)
            biases.append(abs(estimate - closed))
        assert biases[0] > biases[1] > biases[2]


FAMILIES = ("complete", "cycle", "path", "star", "erdos_renyi")
TRIAL_COUNTS = (1, 2, 3, 5, 32)
STEP_COUNTS = (5, 1023, 1024, 1025, 2049)  # around a 1024-step noise chunk


def _chunk_budget(monkeypatch, trials: int, n: int, steps: int) -> None:
    """Shrink the noise buffer budget to `steps` steps of trials x n doubles."""
    monkeypatch.setattr(sim, "NOISE_BUFFER_BYTES", 8 * trials * n * steps)


class TestPipelinedNoise:
    # The noise is drawn on worker threads one chunk ahead of the recursion;
    # the serial reference draws it trial by trial, so any change in the
    # streams, their centering or the step order shows up bit for bit.
    @pytest.mark.parametrize("n", [3, 7, 20, 50])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_serial_loop(self, monkeypatch, family, n):
        graph = generate(family, n, seed=n) if family == "erdos_renyi" \
            else generate(family, n)
        dt = 1.0 / n  # lambda_max <= n on these unit-weight graphs
        cases = itertools.product(enumerate(TRIAL_COUNTS), enumerate(STEP_COUNTS))
        for (i, trials), (j, steps) in cases:
            _chunk_budget(monkeypatch, trials, n, 1024)
            variant = (i + j) % 4
            if variant % 2:  # burn-in ends on a chunk boundary
                burn_steps = 1024 if steps > 1024 else 0
            else:  # burn-in ends inside a chunk
                burn_steps = steps * 3 // 4
            x0 = tuple(np.linspace(-1.0, 2.0, n) ** 2) if variant >= 2 else None
            cfg = SimConfig(dt=dt, horizon=steps * dt, burn_in=burn_steps * dt,
                            trials=trials, seed=100 * n + trials, x0=x0)
            assert (cfg.total_steps, cfg.burn_steps) == (steps, burn_steps)
            got = np.array(_quiet_estimate(graph, cfg))
            want = np.array(loop_estimate_h2(graph, cfg))
            assert got.tobytes() == want.tobytes(), (trials, steps, burn_steps, x0)

    def test_bit_identical_at_the_default_budget(self):
        # 2 MiB holds 409 steps of 32 trials x 20 nodes: four chunks of 409, then 364
        graph = generate("cycle", 20)
        cfg = SimConfig(dt=0.05, horizon=100.0, burn_in=50.0, trials=32, seed=5)
        assert sim._chunk_steps(cfg.trials, graph.n, cfg.total_steps) == 409
        got = np.array(_quiet_estimate(graph, cfg))
        assert got.tobytes() == np.array(loop_estimate_h2(graph, cfg)).tobytes()

    def test_chunk_steps_from_the_byte_budget(self):
        assert sim._chunk_steps(32, 50, 10**6) == 163  # the catalog's path50
        assert sim._chunk_steps(32, 50, 100) == 100  # never more than the run
        assert sim._chunk_steps(4, 3, 2000) == 2000
        assert sim._chunk_steps(1000, 1000, 10) == 1  # one step beyond the budget

    @staticmethod
    def _traced_peak(graph, cfg) -> int:
        _quiet_estimate(graph, cfg)  # fills the spectrum cache
        tracemalloc.start()
        try:
            _quiet_estimate(graph, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_trials(self):
        cases = [
            # 200 trials on K100 used to ask for 2 x 200 x 1024 x 100 doubles of
            # noise and 200 x 1024 x 100 of states, about 0.5 GB, for 10 steps
            (generate("complete", 100),
             SimConfig(dt=0.01, horizon=0.1, burn_in=0.05, trials=200, seed=3)),
            # the catalog's shape, 32 trials x 50 nodes, over seven 163-step chunks
            (generate("path", 50),
             SimConfig(dt=0.1, horizon=100.0, burn_in=10.0, trials=32, seed=3)),
        ]
        for graph, cfg in cases:
            # the two noise buffers, plus 1 MiB for the step matrix, the state and
            # product rows and the workers' per-step means (1/n of a buffer)
            peak = self._traced_peak(graph, cfg)
            assert peak <= 2 * sim.NOISE_BUFFER_BYTES + 2**20, (graph.n, cfg.trials, peak)

    def test_memory_does_not_grow_with_the_horizon(self, monkeypatch):
        # 4-step chunks: 10x the steps is 10x the chunks, and a list of chunks
        # or of buffer views built up front held 0.4 MB more
        graph = generate("cycle", 3)
        _chunk_budget(monkeypatch, 3, 3, 4)
        short_run, long_run = (self._traced_peak(graph, SimConfig(
            dt=0.01, horizon=steps * 0.01, burn_in=1.0, trials=3, seed=1))
            for steps in (500, 5000))
        assert abs(long_run - short_run) <= 64 * 2**10, (short_run, long_run)

    def test_threads_do_not_outlive_call(self, k3):
        cfg = SimConfig(dt=1e-2, horizon=30.0, burn_in=2.0, trials=5, seed=4)
        before = threading.active_count()
        estimate_h2(k3, cfg)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing_call", [1, 2, 5])
    def test_worker_exception_raised_in_caller(self, monkeypatch, k3, failing_call):
        # calls 1 and 2 fill the first chunk, later calls fill chunks ahead
        _chunk_budget(monkeypatch, 5, 3, 1024)  # 4000 steps in four chunks
        real = sim._fill_noise
        calls = []

        def flaky(generators, block, sqrt_dt):
            calls.append(None)
            if len(calls) == failing_call:
                raise FloatingPointError("noise fill failed")
            real(generators, block, sqrt_dt)

        monkeypatch.setattr(sim, "_fill_noise", flaky)
        cfg = SimConfig(dt=1e-2, horizon=40.0, burn_in=2.0, trials=5, seed=4)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="noise fill failed"):
            estimate_h2(k3, cfg)
        assert threading.active_count() == before


class TestDecay:
    def test_rate_matches_connectivity(self, p3):
        cfg = SimConfig(dt=1e-3, horizon=15.0, burn_in=0.0, trials=1, seed=0,
                        x0=(1.0, 0.0, -0.5))
        rate = decay_rate(p3, cfg)
        lam2 = float(graph_spectrum(p3).nonzero[0])
        assert abs(rate - lam2) <= 0.05 * lam2

    def test_rate_star_graph(self):
        star = generate("star", 5)
        cfg = SimConfig(dt=1e-3, horizon=15.0, burn_in=0.0, trials=1, seed=0,
                        x0=(0.3, -1.0, 0.4, 0.9, 2.0))
        rate = decay_rate(star, cfg)
        assert abs(rate - 1.0) <= 0.05

    def test_zero_disagreement_rejected(self, p3):
        cfg = SimConfig(dt=1e-3, horizon=5.0, burn_in=0.0, trials=1, seed=0,
                        x0=(2.0, 2.0, 2.0))
        with pytest.raises(DomainError):
            decay_rate(p3, cfg)
