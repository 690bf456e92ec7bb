"""Traced CLI process: install the timing wrappers, then run `systemic.cli`.

Usage: python cli_child.py TRACE_DIR <systemic CLI arguments...>

Writes this process's spans, per-function aggregates and spectrum-cache
counts to TRACE_DIR/<pid>.json, and exits with the CLI's exit code.
"""

import os
import sys
from pathlib import Path

import systemic.cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402


def main() -> int:
    trace_dir = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return systemic.cli.main(sys.argv[2:])
    finally:
        info = systemic.spectral.graph_spectrum.cache_info()
        tracer.counts["spectral.graph_spectrum.hits"] += info.hits
        tracer.counts["spectral.graph_spectrum.misses"] += info.misses
        tracer.dump(trace_dir / f"{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
