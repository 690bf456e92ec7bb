"""One benchmark process: import the package, build a workload, run passes.

Started by run.py in a fresh interpreter with the checkout's `src/` on
PYTHONPATH. It prints `READY` once set-up is done (run.py times set-up from
process start to that line), then runs whole passes over the workload's ops
until `--seconds` have gone by (without starting a pass that would likely end
after 1.5 times `--seconds`), and prints one JSON line with the results.
One client, closed loop: each op starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

clock = time.perf_counter


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten ops of one pass beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / ops_per_pass)))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=Path, default=None,
                        help="record spans and write them to this file")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    import numpy as np

    import systemic  # set-up includes the package import

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    tracer = None
    if args.trace is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    repo = Path(__file__).resolve().parent.parent
    child_traces = args.workdir / "cli-traces"
    if tracer is not None:
        child_traces.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(
        args.workload, args.seed, quick=args.quick, workdir=args.workdir / "inputs",
        env=dict(os.environ),
        launcher=workloads.cli_launcher(repo, child_traces if tracer is not None else None))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    spectrum_cache = systemic.spectral.graph_spectrum
    setup_stats = tracer.snapshot() if tracer is not None else None
    latencies: list[float] = []
    misses: dict[str, int] = {}
    unexpected: list[str] = []
    passes = 0
    start_time = clock()
    deadline = start_time + args.seconds
    while True:
        # every pass starts with an empty spectrum cache, so passes do the same work
        spectrum_cache.cache_clear()
        last_outputs = []
        for op in ops:
            before = spectrum_cache.cache_info() if tracer is not None else None
            start = clock()
            try:
                output = op.call()
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                output, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            last_outputs.append(output)
            if tracer is not None:
                after = spectrum_cache.cache_info()
                tracer.counts["spectral.graph_spectrum.hits"] += after.hits - before.hits
                tracer.counts["spectral.graph_spectrum.misses"] += after.misses - before.misses
                with tracer.paused():
                    miss = _check(op, output, error)
            else:
                miss = _check(op, output, error)
            if miss is not None:
                key = f"{'known' if miss.known else 'unexpected'}: {op.label}"
                misses[key] = misses.get(key, 0) + 1
                if not miss.known and len(unexpected) < 20:
                    unexpected.append(f"{op.label}: {miss.reason}")
        passes += 1
        # Stop at the first pass boundary after --seconds, and do not start a
        # pass that would likely end beyond 1.5 times --seconds.
        now = clock()
        if now >= deadline or now + (now - start_time) / passes > deadline + 0.5 * args.seconds:
            break

    if args.quick:
        probes = 0
        escaped = []
        for op, output in zip(ops, last_outputs):
            for wrong in workloads.corrupted(output):
                probes += 1
                miss = _check(op, wrong, None)
                # quick inputs are too small for any known defect to apply
                if miss is None or miss.known:
                    escaped.append(f"gate of {op.label} accepted a corrupted output "
                                   f"{wrong!r:.80}" + (" as a known defect" if miss else ""))

    lat = np.array(latencies)
    ops_per_pass = len(ops)
    tail = tail_percentile(ops_per_pass)
    result = {
        "workload": args.workload,
        "passes": passes,
        "ops_per_pass": ops_per_pass,
        "attempted": len(latencies),
        "failed": sum(misses.values()),
        "unexpected": sum(count for key, count in misses.items()
                          if key.startswith("unexpected")),
        "misses": misses,
        "first_unexpected": unexpected,
        "ops_per_s": len(latencies) / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "tail_percentile": tail,
        "op_tail_ms": 1e3 * float(np.percentile(lat, tail)),
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"numpy": np.__version__, "scipy": metadata.version("scipy"),
                     "blas": _blas()},
    }
    if args.quick:
        result["gate_probes"] = probes
        result["gate_escapes"] = escaped
    if tracer is not None:
        for path in sorted(child_traces.glob("*.json")):
            tracer.merge(json.loads(path.read_text(encoding="utf-8")))
        result["layers"] = tracing.per_pass(setup_stats, tracer.snapshot(), passes)
        tracer.dump(args.trace)
    print(json.dumps(result), flush=True)
    return 0


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _check(op, output, error):
    from workloads import Miss
    if error is not None:
        return Miss(f"raised {error}")
    try:
        return op.check(output)
    except Exception as exc:  # a check that cannot read the output is a miss
        return Miss(f"check raised {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
