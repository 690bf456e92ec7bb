#!/usr/bin/env python3
"""Run the simplex weight-allocation solver on a few fixed topologies and
print the optimum next to the uniform-weight baseline, plus an optional CSV
of the per-iteration objective trace for convergence plots."""

import argparse
import csv
import sys

import numpy as np

from systemic import (MeasureDescriptor, Topology, evaluate, generate,
                      optimize_weights)

TOPOLOGIES = {
    "path3": Topology(n=3, edges=((0, 1), (1, 2))),
    "path4": Topology(n=4, edges=((0, 1), (1, 2), (2, 3))),
    "star4": Topology(n=4, edges=((0, 1), (0, 2), (0, 3))),
    "cycle5": Topology.from_graph(generate("cycle", 5)),
    "wheel5": Topology(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4),
                                   (1, 2), (2, 3), (3, 4), (1, 4))),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--measure", default="energy1",
                        choices=["energy1", "energy2", "entropy", "h2",
                                 "local_error", "convergence_time"])
    parser.add_argument("--trace-csv", default=None,
                        help="write (topology, iteration, objective) rows here")
    args = parser.parse_args()
    descriptor = MeasureDescriptor(args.measure)

    traces = []
    print(f"measure: {args.measure}")
    for name, topology in TOPOLOGIES.items():
        uniform = np.full(topology.m, 1.0 / topology.m)
        uniform_value = evaluate(topology.graph_of(uniform), descriptor)
        result = optimize_weights(topology, descriptor)
        gain = uniform_value - result.objective
        weights = ", ".join(f"{w:.4f}" for w in result.weights)
        print(f"{name:8s} uniform {uniform_value:.6f} -> optimal "
              f"{result.objective:.6f} (gain {gain:.2e}, "
              f"{result.iterations} iters, {result.termination})  weights [{weights}]")
        traces.extend((name, i, value) for i, value in enumerate(result.history))

    if args.trace_csv:
        with open(args.trace_csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["topology", "iteration", "objective"])
            writer.writerows(traces)
        print(f"wrote objective traces to {args.trace_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
