"""Benchmark of the systemic package: one workload per run, checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from anywhere; the checkout is the parent of this file's directory. The
package is not installed: every benchmark process gets the checkout's `src/`
on PYTHONPATH, and one BLAS thread. Workloads, metrics and units are read from
BENCHMARK.json.

With --trace 0 the last stdout line holds the end-to-end metrics. `setup_s`
is the median of three fresh interpreters timed from start to the end of
set-up; the last of them goes on to run whole passes over the workload's ops
for at least --seconds.

With --trace 1 an untraced process and a traced one each run for half of
--seconds; the last line holds the per-layer metrics of one set-up plus one
pass, and `trace.overhead_ratio` is the untraced over the traced op rate.
Spans go to .perfbench/trace-<workload>-seed<seed>.json.

--quick runs every workload at minimal size, traced and untraced, through the
same gate, and checks that each gate rejects corrupted outputs.

The environment record goes to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SETUP_SAMPLES = 3
PROBE_SAMPLES = 3
RUN_DEADLINE_S = 170
BLAS_THREADS = "1"
clock = time.perf_counter

# Per-layer metrics that must be nonzero in a quick traced run of each
# workload. Every declared `.calls` metric is named here at least once, so a
# wrapper that records nothing fails the quick run instead of reading 0.
QUICK_EXPECTED = {
    "catalog": ("graphs.generate.calls", "graphs.laplacian.calls",
                "graphs.spanning_tree_count.calls", "spectral.eig_sym.calls",
                "spectral.eig_sym.n3_sum", "spectral.laplacian_spectrum.calls",
                "spectral.graph_spectrum.calls", "spectral.graph_spectrum.hits",
                "spectral.graph_spectrum.misses", "measures.evaluate.calls",
                "measures.get_spectral_function.calls", "measures.hp_norm_numeric.calls",
                "measures.entropy_via_trees.calls", "sim.estimate_h2.calls",
                "sim.estimate_h2.steps"),
    "cli": ("cli.compute_s", "measures.evaluate.calls", "graphs.spanning_tree_count.calls",
            "properties.run_check.calls", "properties.trials",
            "design.optimize_weights.calls", "design.optimize_weights.iterations",
            "design.project_simplex.calls",
            "design.greedy_augment.calls", "design.greedy_augment.eigensolves",
            "design.canonical_edges.calls", "design.rewire_bruteforce.calls",
            "design.rewire_bruteforce.classes"),
}


class Fatal(Exception):
    """The benchmark itself cannot run; exit non-zero without a result."""


def _alarm(signum, frame):
    raise Fatal(f"run exceeded {RUN_DEADLINE_S} s")


def _terminated(signum, frame):
    # so that a run stopped from outside still ends its workers (main's finally)
    raise Fatal(f"stopped by signal {signum}")


def child_env() -> dict:
    env = dict(os.environ)
    source = str(REPO / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One client, so one BLAS thread: on a shared 2-CPU machine, 20 eigh(200)
    # calls took 0.33-4.4 s with two OpenBLAS threads and 0.11-0.16 s with one.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker.py process; `setup_s` is process start to its READY line.

    Each worker leads its own process group, so that `kill` also ends a CLI
    child it may be waiting for. Workers register in `live` before anything
    can fail, and main() kills whatever is still running there.
    """

    def __init__(self, args: list[str], env: dict, live: list):
        start = clock()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=REPO, start_new_session=True)
        live.append(self)
        line = self.process.stdout.readline()
        self.setup_s = clock() - start
        if line.strip() != "READY":
            self.finish()
            raise Fatal(f"worker failed during set-up (exit {self.process.returncode})")

    def finish(self) -> dict | None:
        out, _ = self.process.communicate()
        if self.process.returncode != 0:
            raise Fatal(f"worker exited with {self.process.returncode}")
        lines = [line for line in out.splitlines() if line.strip()]
        return json.loads(lines[-1]) if lines else None

    def kill(self) -> None:
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait()


def worker_args(options, workdir: Path, trace: Path | None = None,
                setup_only: bool = False, quick: bool = False,
                seconds: float | None = None) -> list[str]:
    seconds = options.seconds if seconds is None else seconds
    args = ["--workload", options.workload, "--seed", str(options.seed),
            "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace is not None:
        args += ["--trace", str(trace)]
    if setup_only:
        args.append("--setup-only")
    if quick:
        args.append("--quick")
    return args


def probe_seconds(code: str, env: dict) -> float:
    """Median wall time of `python -c code` over a few fresh interpreters."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO, check=True)
        samples.append(clock() - start)
    return statistics.median(samples)


def run_untraced(options, env, workdir, live: list) -> tuple[dict, float]:
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        worker = Worker(worker_args(options, workdir / f"setup{index}", setup_only=True), env,
                        live)
        worker.finish()
        setups.append(worker.setup_s)
    worker = Worker(worker_args(options, workdir / "run"), env, live)
    setups.append(worker.setup_s)
    return worker.finish(), statistics.median(setups)


def layer_metrics(declared: list[dict], untraced: dict, traced: dict,
                  interpreter_s: float, import_s: float) -> dict:
    layers = traced["layers"]
    values = {}
    for kind in ("calls", "self_s"):
        for name, value in layers[kind].items():
            values[f"{name}.{kind}"] = value
    values.update(layers["counts"])
    hits = values.get("spectral.graph_spectrum.hits", 0)
    lookups = hits + values.get("spectral.graph_spectrum.misses", 0)
    values["spectral.graph_spectrum.hit_ratio"] = hits / lookups if lookups else 0.0
    values["cli.interpreter_s"] = interpreter_s
    values["cli.import_s"] = import_s
    if untraced["workload"] == "cli":
        compute = values.get("cli.compute_s", 0.0) / untraced["ops_per_pass"]
        values["cli.compute_s"] = compute
        values["cli.overhead_s"] = 1.0 / untraced["ops_per_s"] - interpreter_s - import_s - compute
    values["fail_ratio"] = untraced["failed"] / untraced["attempted"]
    values["trace.overhead_ratio"] = untraced["ops_per_s"] / traced["ops_per_s"]
    return {entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                            "unit": entry["unit"]} for entry in declared}


def environment(options, declared: dict, result: dict, env: dict) -> dict:
    commit = "unknown"  # the benchmark may run from an export that is no git checkout
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=REPO,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == REPO:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    why = {entry["name"]: entry["why"] for entry in declared["workloads"]}
    return {
        "commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), **result.get("versions", {}),
        "blas_threads": env["OPENBLAS_NUM_THREADS"], "workload": options.workload,
        "seed": options.seed, "seconds": options.seconds, "why": why.get(options.workload),
        "ops_per_pass": result.get("ops_per_pass"), "passes": result.get("passes"),
        "tail_percentile": result.get("tail_percentile"),
        "failures": result.get("misses"), "first_unexpected": result.get("first_unexpected"),
    }


def run(options, declared: dict, live: list) -> dict:
    env = child_env()
    names = [entry["name"] for entry in declared["workloads"]]
    if options.workload not in names:
        raise Fatal(f"unknown workload {options.workload!r}; choose from {names}")
    scratch = REPO / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    try:
        if options.trace:
            # half of --seconds each, so that a traced run takes about as long
            # as an untraced one
            half = options.seconds / 2
            untraced = Worker(worker_args(options, workdir / "untraced", seconds=half), env,
                              live).finish()
            spans = scratch / f"trace-{options.workload}-seed{options.seed}.json"
            traced = Worker(worker_args(options, workdir / "traced", trace=spans, seconds=half),
                            env, live).finish()
            interpreter_s = probe_seconds("pass", env)
            import_s = probe_seconds("import systemic", env) - interpreter_s
            metrics = layer_metrics(declared["per_layer"], untraced, traced,
                                    interpreter_s, import_s)
            result = dict(untraced, unexpected=untraced["unexpected"] + traced["unexpected"])
        else:
            result, setup_s = run_untraced(options, env, workdir, live)
            measured = dict(result, setup_s=setup_s)
            metrics = {entry["name"]: {"value": float(measured[entry["name"]]),
                                       "unit": entry["unit"]}
                       for entry in declared["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("perfbench environment: " + json.dumps(environment(options, declared, result, env)),
          file=sys.stderr)
    return {"correct": result["unexpected"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quick(declared: dict, live: list) -> bool:
    """Every workload at minimal size, untraced and traced, through the gate."""
    env = child_env()
    expected = {key for keys in QUICK_EXPECTED.values() for key in keys}
    unchecked = [entry["name"] for entry in declared["per_layer"]
                 if entry["name"].endswith(".calls") and entry["name"] not in expected]
    if unchecked:
        print(f"declared per-layer metrics no quick run checks: {unchecked}", flush=True)
    ok = not unchecked
    workdir = REPO / ".perfbench" / f"quick-{os.getpid()}"
    try:
        for entry in declared["workloads"]:
            name = entry["name"]
            options = argparse.Namespace(workload=name, seed=1, seconds=0.0)
            results = []
            for trace in (None, workdir / f"trace-{name}.json"):
                worker = Worker(worker_args(options, workdir / name, trace=trace, quick=True),
                                env, live)
                results.append(worker.finish())
            plain, traced = results
            layers = {**{f"{k}.calls": v for k, v in traced["layers"]["calls"].items()},
                      **traced["layers"]["counts"]}
            silent = [key for key in QUICK_EXPECTED[name] if not layers.get(key)]
            problems = []
            for result in results:
                problems += result["first_unexpected"]
                problems += result["gate_escapes"]
            if silent:
                problems.append(f"wrappers recorded nothing for {silent}")
            status = "ok" if not problems else "FAIL"
            ok = ok and not problems
            probes = plain["gate_probes"]
            print(f"{name:8s} {status}: {plain['attempted']} ops, "
                  f"{probes - len(plain['gate_escapes'])} of {probes} corrupted outputs "
                  f"rejected", flush=True)
            for problem in problems:
                print(f"    {problem}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    options = parser.parse_args()

    live: list[Worker] = []
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if not (REPO / "src" / "systemic" / "__init__.py").is_file():
            raise Fatal(f"no package source at {REPO / 'src' / 'systemic'}")
        declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
        if options.quick:
            return 0 if quick(declared, live) else 1
        if options.workload is None:
            raise Fatal("--workload is required")
        outcome = run(options, declared, live)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        for worker in live:
            worker.kill()
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
