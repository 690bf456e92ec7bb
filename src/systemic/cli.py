"""Command-line interface.

Every subcommand prints one JSON report to stdout (human diagnostics go to
stderr) so invocations compose in pipelines.  Exit codes: 0 success, 1 a
property violation or bound breach was found, 2 input/format errors, 3
numerical failures.

Each subcommand loads only the layers it calls: `graphs`, `spectral` and
`measures` at import.  A subcommand that needs `design`, `properties` or `sim`
names it as its `layer` next to its arguments in `build_parser`; `main`
imports it before the report's clock starts and passes it to the body.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import measures
from .errors import NumericalError, SystemicError
from .graphs import (WeightedGraph, is_connected, laplacian, parse_graph,
                     serialize_graph, spanning_tree_count)
from .measures import ENTROPY_FORM_WARNING, MeasureDescriptor
from .spectral import graph_spectrum, laplacian_spectrum

SCHEMA_VERSION = "1.0.0"
BOUND_BREACH_TOL = 1e-9

_clock = time.perf_counter  # patchable for deterministic report tests


def _load_graph(path: str) -> WeightedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemicError(f"cannot read graph file {path}: {exc}")
    return parse_graph(text)


def _descriptor(args: argparse.Namespace) -> MeasureDescriptor:
    return MeasureDescriptor(id=args.measure, p=args.p, k=args.k, f_id=args.f)


def _sanitize(value):
    """Make a report tree JSON-safe with deterministic float text (repr)."""
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def emit_report(command: str, inputs: dict, results: dict,
                warning_list: list[str], timing: float) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": _sanitize(inputs),
        "results": _sanitize(results),
        "warnings": list(warning_list),
        "timing": timing,
    }
    print(json.dumps(report, indent=2, allow_nan=False))


# `props --property` name -> property id of the properties table
_PROPERTY_NAMES = {
    "homogeneity": "homogeneity",
    "monotonicity": "monotonicity",
    "convexity": "convexity",
    "orthogonal": "orthogonal_invariance",
    "schur": "schur_convexity",
    "subadditivity": "subadditivity",
}


def _measure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", required=True, choices=measures.MEASURE_IDS)
    parser.add_argument("--p", type=float, default=None,
                        help="exponent for zeta_measure / hp_norm ('inf' allowed)")
    parser.add_argument("--k", type=float, default=None,
                        help="finite positive scale for zeta_measure")
    parser.add_argument("--f", default=None,
                        help="spectral function id for schur_sum, e.g. inverse, inverse_pow:2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systemic",
        description="Performance/robustness measures of consensus networks "
                    "over weighted graphs: evaluation, verification, design.")
    # each subparser names its body as `run` and, if it needs one, its `layer`
    parser.set_defaults(layer=None)
    sub = parser.add_subparsers(dest="command", required=True)
    graph_file = argparse.ArgumentParser(add_help=False)
    graph_file.add_argument("--graph", required=True)

    p = sub.add_parser("measure", parents=[graph_file],
                       help="evaluate one catalog measure on a graph")
    _measure_args(p)
    p.set_defaults(run=_run_measure)

    p = sub.add_parser("zeta", parents=[graph_file], help="spectral zeta function of a graph")
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(run=_run_zeta)

    p = sub.add_parser("hpnorm", parents=[graph_file],
                       help="H_p norm, closed form and optional quadrature")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--numeric", action="store_true",
                   help="also evaluate the frequency integral numerically")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative tolerance of the quadrature")
    p.set_defaults(run=_run_hpnorm)

    p = sub.add_parser("trees", parents=[graph_file],
                       help="spanning-tree count and the entropy cross-check")
    p.set_defaults(run=_run_trees)

    p = sub.add_parser("props", help="run one axiom check as a falsification search")
    _measure_args(p)
    p.add_argument("--property", required=True, choices=list(_PROPERTY_NAMES))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=_run_props, layer="properties")

    p = sub.add_parser("optimize-weights",
                       help="minimize a measure over simplex edge weights")
    p.add_argument("--topology", required=True,
                   help="edge-list file; its weights are ignored")
    _measure_args(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=2000)
    p.set_defaults(run=_run_optimize_weights, layer="design")

    p = sub.add_parser("rewire", help="rank all connected (n, m) graphs by a measure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    _measure_args(p)
    p.set_defaults(run=_run_rewire, layer="design")

    p = sub.add_parser("augment", parents=[graph_file],
                       help="greedy edge augmentation with spectral bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--candidates", required=True,
                   help="edge-list file of candidate edges with budget weights")
    p.add_argument("--f", required=True,
                   help="decreasing convex spectral function id, e.g. inverse")
    p.set_defaults(run=_run_augment, layer="design")

    p = sub.add_parser("simulate-h2", parents=[graph_file],
                       help="Monte-Carlo estimate of the squared H_2 measure")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=float, default=None,
                   help="discarded prefix; defaults to min(5/lambda_2, horizon/4)")
    p.set_defaults(run=_run_simulate_h2, layer="sim")

    p = sub.add_parser("validate", parents=[graph_file],
                       help="parse a graph file and audit its invariants")
    p.set_defaults(run=_run_validate)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: (args, the --graph file's graph or None, the subcommand's
# layer module or None) -> (results, exit code)

def _run_measure(args, graph, layer) -> tuple[dict, int]:
    descriptor = _descriptor(args)
    value = measures.evaluate(graph, descriptor)
    return {"measure": descriptor.label(), "value": value}, 0


def _run_zeta(args, graph, layer) -> tuple[dict, int]:
    return {"p": args.p, "value": measures.zeta(graph, args.p)}, 0


def _run_hpnorm(args, graph, layer) -> tuple[dict, int]:
    settings = measures.QuadratureSettings(rel_tol=args.tol)  # a bad --tol exits 2
    closed = measures.hp_norm(graph, args.p)
    results = {"p": args.p, "closed_form": closed}
    if args.numeric:
        numeric = measures.hp_norm_numeric(graph, args.p, settings)
        results["numeric"] = numeric
        results["difference"] = closed - numeric
        results["relative_difference"] = abs(closed - numeric) / abs(closed)
    return results, 0


def _run_trees(args, graph, layer) -> tuple[dict, int]:
    warnings.warn(ENTROPY_FORM_WARNING)
    spectral_entropy = measures.evaluate(graph, MeasureDescriptor("entropy"))
    matrix_tree_entropy = measures.entropy_via_trees(graph)
    log_tau = spanning_tree_count(graph, log=True)
    # tau over- or underflows long before log tau does (K200 has 200^198 trees)
    tau = math.exp(log_tau) if log_tau < math.log(sys.float_info.max) else math.inf
    results = {"tau": tau} if 0.0 < tau < math.inf else {}
    results.update({
        "log_tau": log_tau,
        "entropy_spectral": spectral_entropy,
        "entropy_matrix_tree": matrix_tree_entropy,
        "entropy_literal_form": math.log(graph.n) - log_tau,
    })
    return results, 0


def _run_props(args, graph, properties) -> tuple[dict, int]:
    if args.tol is None:
        args.tol = properties.DEFAULT_TOL  # echoed in the report's inputs
    descriptor = _descriptor(args)
    report = properties.run_check(_PROPERTY_NAMES[args.property], descriptor,
                                  trials=args.trials, seed=args.seed, tol=args.tol)
    results = {
        "property": report.property_id,
        "measure": report.measure,
        "trials": report.trials,
        "seed": report.seed,
        "tol": report.tol,
        "violation_count": len(report.violations),
        "violations": [asdict(v) for v in report.violations],
    }
    return results, (1 if report.violations else 0)


def _run_optimize_weights(args, graph, design) -> tuple[dict, int]:
    topology = design.Topology.from_graph(_load_graph(args.topology))
    descriptor = _descriptor(args)
    options = design.SolverOptions(tol=args.tol, max_iters=args.max_iters)
    result = design.optimize_weights(topology, descriptor, options)
    if result.termination != "converged":
        bound = args.tol * max(1.0, abs(result.objective))
        warnings.warn(f"weight allocation stopped by {result.termination} with gap "
                      f"{result.gap:.3e} above tol * max(1, |objective|) = {bound:.3e}")
    results = {
        "edges": [[u, v] for u, v in topology.edges],
        "weights": list(result.weights),
        "objective": result.objective,
        "iterations": result.iterations,
        "stationarity_residual": result.stationarity_residual,
        "gap": result.gap,
        "termination": result.termination,
        "active_set": list(result.active_set),
    }
    return results, 0


def _run_rewire(args, graph, design) -> tuple[dict, int]:
    descriptor = _descriptor(args)
    outcome = design.rewire_bruteforce(args.n, args.m, args.alpha, descriptor)
    results = {
        "best_edges": [[u, v] for u, v in outcome.ranking[0].edges],
        "best_value": outcome.value,
        "edge_weight": args.alpha / args.m,
        "ranking": [{"edges": [[u, v] for u, v in entry.edges], "value": entry.value}
                    for entry in outcome.ranking],
    }
    return results, 0


def _run_augment(args, graph, design) -> tuple[dict, int]:
    candidates_graph = _load_graph(args.candidates)
    if candidates_graph.n != graph.n:
        raise SystemicError(
            f"candidate file is on {candidates_graph.n} nodes, graph on {graph.n}")
    candidates = [(u, v, w) for u, v, w in candidates_graph.edges]
    report = design.greedy_augment(graph, args.k, candidates, args.f)
    return asdict(report), (1 if report.gap < -BOUND_BREACH_TOL else 0)


def _run_simulate_h2(args, graph, sim) -> tuple[dict, int]:
    spectrum = graph_spectrum(graph)
    lam2 = float(spectrum.nonzero[0])
    burn_in = args.burn_in
    if burn_in is None:
        burn_in = min(sim.MIXING_TIME_CONSTANTS / lam2, args.horizon / 4.0)
    cfg = sim.SimConfig(dt=args.dt, horizon=args.horizon, burn_in=burn_in,
                        trials=args.trials, seed=args.seed)
    estimate, stderr = sim.estimate_h2(graph, cfg)
    closed_form = measures.evaluate(graph, MeasureDescriptor("energy1"))
    z_score = (estimate - closed_form) / stderr if stderr and stderr > 0 else math.nan
    results = {
        "estimate": estimate,
        "stderr": stderr,
        "closed_form": closed_form,
        "z_score": z_score,
        "burn_in": burn_in,
        "steps": cfg.total_steps,
    }
    return results, 0


def _run_validate(args, graph, layer) -> tuple[dict, int]:
    row_sum = float(np.abs(laplacian(graph).sum(axis=1)).max())
    connected = is_connected(graph)
    results = {
        "n": graph.n,
        "edge_count": graph.m,
        "connected": connected,
        "weights_positive": True,  # enforced by the parser
        "max_laplacian_row_sum": row_sum,
        "round_trip_ok": parse_graph(serialize_graph(graph)) == graph,
    }
    if connected and graph.n >= 2:
        spectrum = laplacian_spectrum(graph)  # the full mode: it has a residual
        results["zero_eigenvalue_count"] = int(
            np.sum(np.abs(spectrum.eigenvalues) <= spectrum.error_bound))
        results["algebraic_connectivity"] = float(spectrum.nonzero[0])
        results["eigen_residual"] = spectrum.residual
    return results, 0


def _inputs_echo(args: argparse.Namespace) -> dict:
    skip = {"command", "run", "layer"}
    echo = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        echo[key] = value
    return echo


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # imported here so that `timing` is compute only
    layer = importlib.import_module(f"{__package__}.{args.layer}") if args.layer else None
    start = _clock()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = _load_graph(args.graph) if "graph" in args else None
            results, code = args.run(args, graph, layer)
        warning_list = [str(w.message) for w in caught]
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timing = _clock() - start
    emit_report(args.command, _inputs_echo(args), results, warning_list, timing)
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
