#!/usr/bin/env python3
"""Layer bench: cold and cached `evaluate` per catalog measure, with checks.

Times `measures.evaluate` for each of the twelve catalog descriptors on a
weighted Erdos-Renyi graph (p = min(1, 8/n), weights in [0.5, 2), seed n) at
n = 10, 50, 200 and 400.  A cold call starts from an empty spectrum cache, so
it pays one eigensolve (none for the degree-based local_error); a cached call
finds the spectrum cached.  Every value is checked, to a relative 1e-8,
against the measure's formula on `numpy.linalg.eigvalsh` of a Laplacian
assembled here from the edge list, so a fast wrong path posts no number.  The
bench also counts the eigensolves (`eig_sym` calls) and iterations of one
weight allocation per measure on ER(30, p = 0.2, seed 4), times it once,
checks its objective the same way, and writes a host record.  The package
is imported from this checkout's `src/`, and BLAS runs one thread.

    python scripts/bench_layers.py --out BENCH.json      # full run (about 10 s)
    python scripts/bench_layers.py --smoke               # checks, one call each
    python scripts/bench_layers.py --compare A.json B.json

A timing is the median (with quartiles) over rounds of per-call times, in
microseconds; `--compare` prints B/A for every metric of both files.  The
smoke mode runs the checks and sets no timing bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"  # before NumPy loads its BLAS
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from systemic import design, graphs, measures, spectral  # noqa: E402

SIZES = (10, 50, 200, 400)
RTOL = 1e-8
ROUNDS = 15
CACHED_CALLS = 200  # cached calls per timed round
ALLOCATION_MEASURES = ("energy1", "energy2", "h2", "hinf")

_md = measures.MeasureDescriptor
DESCRIPTORS = [_md("energy1"), _md("energy2"), _md("h2"), _md("hinf"),
               _md("convergence_time"), _md("entropy"), _md("local_error"),
               _md("zeta_measure", p=2.0), _md("zeta_measure", p=math.inf),
               _md("hp_norm", p=3.0), _md("schur_sum", f_id="inverse_pow:2"),
               _md("schur_sum", f_id="exp_decay:0.5")]

# each measure from its definition, on the nonzero eigenvalues and the degrees;
# hp_norm at p = 3 is (B(1, 1/2) / (2 pi) * sum lam^-2)^(1/3), and B(1, 1/2) = 2
ORACLES = {
    "energy1": lambda lam, deg: np.sum(0.5 / lam),
    "energy2": lambda lam, deg: np.sum(0.5 / lam ** 2),
    "h2": lambda lam, deg: math.sqrt(np.sum(0.5 / lam)),
    "hinf": lambda lam, deg: 1.0 / lam[0],
    "convergence_time": lambda lam, deg: 1.0 / lam[0],
    "entropy": lambda lam, deg: -np.sum(np.log(lam)),
    "local_error": lambda lam, deg: 0.5 * np.sum(1.0 / deg),
    "(zeta_measure, p=2, k=1)": lambda lam, deg: math.sqrt(np.sum(lam ** -2.0)),
    "(zeta_measure, p=inf, k=1)": lambda lam, deg: 1.0 / lam[0],
    "(hp_norm, p=3)": lambda lam, deg: (np.sum(lam ** -2.0) / math.pi) ** (1.0 / 3.0),
    "(schur_sum, f=inverse_pow:2)": lambda lam, deg: np.sum(lam ** -2.0),
    "(schur_sum, f=exp_decay:0.5)": lambda lam, deg: np.sum(np.exp(-0.5 * lam)),
}


def bench_graph(n: int) -> graphs.WeightedGraph:
    return graphs.generate("erdos_renyi", n, seed=n, p=min(1.0, 8.0 / n),
                           weight_range=(0.5, 2.0))


def reference(graph: graphs.WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues and degrees of a Laplacian assembled from the edge list."""
    matrix = np.zeros((graph.n, graph.n))
    for u, v, w in graph.edges:
        matrix[u, v] -= w
        matrix[v, u] -= w
        matrix[u, u] += w
        matrix[v, v] += w
    return np.linalg.eigvalsh(matrix)[1:], np.diag(matrix).copy()


def check(label: str, value: float, expected: float) -> None:
    expected = float(expected)
    if not (math.isfinite(value) and abs(value - expected) <= RTOL * max(1.0, abs(expected))):
        sys.exit(f"bench_layers: check failed: {label}: {value!r} vs reference {expected!r}")


def quartiles_us(seconds: list[float]) -> dict:
    us = sorted(1e6 * s for s in seconds)
    if len(us) < 2:
        return {"median": us[0], "q1": us[0], "q3": us[0]}
    q1, median, q3 = statistics.quantiles(us, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench_evaluate(rounds: int, calls: int) -> dict:
    metrics = {}
    for n in SIZES:
        graph = bench_graph(n)
        lam, degrees = reference(graph)
        for descriptor in DESCRIPTORS:
            label = descriptor.label()
            expected = ORACLES[label](lam, degrees)
            cold = []
            for _ in range(rounds):
                spectral.graph_spectrum.cache_clear()
                start = time.perf_counter()
                value = measures.evaluate(graph, descriptor)
                cold.append(time.perf_counter() - start)
                check(f"evaluate {label} n={n} (cold)", value, expected)
            cached = []
            for _ in range(rounds):
                start = time.perf_counter()
                for _ in range(calls):
                    value = measures.evaluate(graph, descriptor)
                cached.append((time.perf_counter() - start) / calls)
                check(f"evaluate {label} n={n} (cached)", value, expected)
            metrics[f"evaluate.cold_us.{label}.n{n}"] = {"unit": "us", **quartiles_us(cold)}
            metrics[f"evaluate.cached_us.{label}.n{n}"] = {"unit": "us",
                                                           **quartiles_us(cached)}
    return metrics


def count_allocation_eigensolves() -> dict:
    topology = design.Topology.from_graph(
        graphs.generate("erdos_renyi", 30, seed=4, p=0.2))
    solves = 0
    eig_sym = spectral.eig_sym

    def counting_eig_sym(matrix, **kwargs):
        nonlocal solves
        solves += 1
        return eig_sym(matrix, **kwargs)

    metrics = {}
    # the allocator calls eig_sym through design's own binding
    spectral.eig_sym = design.eig_sym = counting_eig_sym
    try:
        for measure_id in ALLOCATION_MEASURES:
            solves = 0
            descriptor = _md(measure_id)
            start = time.perf_counter()
            result = design.optimize_weights(topology, descriptor)
            wall = time.perf_counter() - start
            lam, degrees = reference(topology.graph_of(result.weights))
            check(f"optimize_weights {measure_id} objective", result.objective,
                  ORACLES[measure_id](lam, degrees))
            metrics[f"optimize_weights.eig_sym_calls.{measure_id}.er30_s4"] = {
                "unit": "count", "median": solves}
            metrics[f"optimize_weights.iterations.{measure_id}.er30_s4"] = {
                "unit": "count", "median": result.iterations}
            metrics[f"optimize_weights.wall_us.{measure_id}.er30_s4"] = {
                "unit": "us", **quartiles_us([wall])}
    finally:
        spectral.eig_sym = design.eig_sym = eig_sym
    return metrics


def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy before 1.25 only prints its config
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def compare(path_a: str, path_b: str) -> None:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8"))["metrics"] for p in (path_a, path_b))
    names = [name for name in a if name in b]
    width = max(len(name) for name in names)
    print(f"{'metric':{width}}  {'A':>10}  {'B':>10}  {'B/A':>6}")
    logs: dict[str, list[float]] = {}  # "<layer>.<metric>" -> log ratios
    for name in names:
        value_a, value_b = a[name]["median"], b[name]["median"]
        ratio = value_b / value_a if value_a else math.nan
        print(f"{name:{width}}  {value_a:10.4g}  {value_b:10.4g}  {ratio:6.3f}")
        if ratio > 0:
            logs.setdefault(".".join(name.split(".")[:2]), []).append(math.log(ratio))
    for group, values in logs.items():
        print(f"geometric mean B/A of {group} ({len(values)} metrics): "
              f"{math.exp(sum(values) / len(values)):.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="one call per timing, checks only")
    parser.add_argument("--out", help="write the JSON record here instead of stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print B/A for each metric of two bench files")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    rounds, calls = (1, 1) if args.smoke else (ROUNDS, CACHED_CALLS)
    metrics = {**bench_evaluate(rounds, calls), **count_allocation_eigensolves()}
    if args.smoke:
        print(f"bench_layers --smoke: {len(metrics)} metrics, every value checked")
        return 0
    record = json.dumps({"host": host_record(),
                         "settings": {"sizes": SIZES, "rounds": rounds,
                                      "cached_calls_per_round": calls, "rtol": RTOL},
                         "metrics": metrics}, indent=1)
    if args.out:
        Path(args.out).write_text(record + "\n", encoding="utf-8")
    else:
        print(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
