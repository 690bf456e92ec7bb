"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; every tolerance below is fixed, nothing is calibrated at
run time.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from systemic import (MeasureDescriptor, Topology, WeightedGraph,
                      applicable_properties, cli, entropy_via_trees, evaluate,
                      fundamental_limit, generate, get_spectral_function,
                      graph_spectrum, hp_norm, hp_norm_numeric,
                      laplacian_spectrum, optimize_weights, rewire_bruteforce,
                      run_check)
from systemic.design import canonical_edges
from systemic.measures import ENTROPY_FORM_WARNING
from systemic.sim import SimConfig, estimate_h2

from helpers import analytic_spectrum, grid_min_energy1, random_connected


def _emit(name: str, ok: bool, start: float, detail: str) -> None:
    elapsed = time.perf_counter() - start
    print(f"{'PASS' if ok else 'FAIL'} {name} [{elapsed:.2f} s] {detail}")


def test_criterion_1_closed_form_spectra():
    start = time.perf_counter()
    worst = 0.0
    for family in ("complete", "cycle", "path", "star"):
        for n in range(3, 13):
            spectrum = laplacian_spectrum(generate(family, n)).eigenvalues
            error = float(np.abs(spectrum - analytic_spectrum(family, n)).max())
            worst = max(worst, error)
    ok = worst < 1e-9
    _emit("criterion 1: family generators match analytic spectra (1e-9 abs)",
          ok, start, f"worst abs error {worst:.2e}")
    assert ok


def test_criterion_2_hp_closed_form_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        graph = random_connected(11_000 + seed, n_low=3, n_high=20)
        for p in (1.5, 2.0, 3.0, 4.0, 7.0):
            closed = hp_norm(graph, p)
            numeric = hp_norm_numeric(graph, p)
            worst = max(worst, abs(closed - numeric) / closed)
    ok = worst < 1e-6
    _emit("criterion 2: H_p closed form vs frequency quadrature (1e-6 rel, "
          "50 graphs, p in {1.5,2,3,4,7})", ok, start, f"worst rel diff {worst:.2e}")
    assert ok


def test_criterion_3_h2_consistency_triangle():
    start = time.perf_counter()
    energy = MeasureDescriptor("energy1")
    k3 = generate("complete", 3)
    p3 = generate("path", 3)

    worst_identity = 0.0
    for graph in [k3, p3] + [random_connected(12_000 + s) for s in range(10)]:
        squared = hp_norm(graph, 2.0) ** 2
        reference = evaluate(graph, energy)
        worst_identity = max(worst_identity, abs(squared - reference) / reference)
    identity_ok = worst_identity < 1e-12

    sim_ok = True
    details = []
    for graph, name, burn in ((k3, "K3", 5.0), (p3, "P3", 6.0)):
        cfg = SimConfig(dt=1e-3, horizon=200.0, burn_in=burn, trials=20, seed=1)
        estimate, stderr = estimate_h2(graph, cfg)
        closed = evaluate(graph, energy)
        z = abs(estimate - closed) / stderr
        details.append(f"{name} z={z:.2f}")
        sim_ok = sim_ok and z <= 3.0
    ok = identity_ok and sim_ok
    _emit("criterion 3: H2 triangle (closed/energy 1e-12 rel; simulation "
          "within 3 stderr)", ok, start,
          f"identity worst {worst_identity:.2e}; {'; '.join(details)}")
    assert ok


def test_criterion_4_matrix_tree_entropy(tmp_path):
    start = time.perf_counter()
    entropy = MeasureDescriptor("entropy")
    worst = 0.0
    for seed in range(100):
        graph = random_connected(13_000 + seed, n_low=3, n_high=15)
        spectral = evaluate(graph, entropy)
        via_trees = entropy_via_trees(graph)
        worst = max(worst, abs(spectral - via_trees) / abs(via_trees))
    identity_ok = worst < 1e-8

    graph_file = tmp_path / "k3.txt"
    graph_file.write_text("n 3\n0 1 1\n0 2 1\n1 2 1\n")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["trees", "--graph", str(graph_file)])
    report = json.loads(buffer.getvalue())
    warning_ok = (code == 0 and ENTROPY_FORM_WARNING in report["warnings"]
                  and "-log 9" in ENTROPY_FORM_WARNING
                  and "log(3/3) = 0" in ENTROPY_FORM_WARNING)
    ok = identity_ok and warning_ok
    _emit("criterion 4: entropy equals -log(n*tau) (1e-8 rel, 100 graphs); "
          "report flags the log(n/tau) deviation with the triangle counterexample",
          ok, start, f"worst rel diff {worst:.2e}; warning={'yes' if warning_ok else 'no'}")
    assert ok


CATALOG_TABLE = [
    MeasureDescriptor("convergence_time"),
    MeasureDescriptor("energy1"),
    MeasureDescriptor("energy2"),
    MeasureDescriptor("zeta_measure", p=2.0, k=1.0),
    MeasureDescriptor("local_error"),
    MeasureDescriptor("hp_norm", p=3.0),
    MeasureDescriptor("entropy"),
]


def test_criterion_5_axiom_suites():
    start = time.perf_counter()
    failures = []
    runs = 0
    for index, descriptor in enumerate(CATALOG_TABLE):
        for prop in sorted(applicable_properties(descriptor)):
            report = run_check(prop, descriptor, trials=200,
                               seed=1000 + 17 * index, tol=1e-8)
            runs += 1
            if not report.ok:
                failures.append((descriptor.label(), prop, len(report.violations)))
    ok = not failures
    _emit("criterion 5: catalog axiom suites, 200 trials each at tol 1e-8",
          ok, start, f"{runs} property runs, failures: {failures or 'none'}")
    assert ok


def test_criterion_6_weight_allocation():
    start = time.perf_counter()
    energy = MeasureDescriptor("energy1")
    details = []

    p3_topology = Topology(n=3, edges=((0, 1), (1, 2)))
    result = optimize_weights(p3_topology, energy)
    p3_ok = (np.abs(result.weights - 0.5).max() < 1e-4
             and abs(result.objective - 4.0 / 3.0) < 1e-6)
    details.append(f"P3 weight err {np.abs(result.weights - 0.5).max():.1e}")

    uniform_ok = True
    for family, n in (("cycle", 5), ("complete", 4)):
        topology = Topology.from_graph(generate(family, n))
        uniform = np.full(topology.m, 1.0 / topology.m)
        uniform_value = evaluate(topology.graph_of(uniform), energy)
        solved = optimize_weights(topology, energy)
        gap = abs(solved.objective - uniform_value)
        uniform_ok = uniform_ok and gap < 1e-8
        details.append(f"{family}{n} gap {gap:.1e}")

    grid_ok = True
    fixtures = [
        p3_topology,
        Topology(n=3, edges=((0, 1), (0, 2), (1, 2))),
        Topology(n=4, edges=((0, 1), (0, 2), (0, 3))),
        Topology(n=4, edges=((0, 1), (1, 2), (2, 3))),
    ]
    for topology in fixtures:
        grid_value, _ = grid_min_energy1(topology, resolution=1e-3)
        solved = optimize_weights(topology, energy)
        margin = solved.objective - grid_value
        grid_ok = grid_ok and margin <= 1e-5
        details.append(f"m={topology.m} grid margin {margin:+.1e}")
    ok = p3_ok and uniform_ok and grid_ok
    _emit("criterion 6: weight allocation (P3 exact; uniform on C5/K4 at 1e-8; "
          "1e-3 grid never wins by >1e-5)", ok, start, "; ".join(details))
    assert ok


def test_criterion_7_rewiring_claims():
    start = time.perf_counter()
    energy = MeasureDescriptor("energy1")
    outcome = rewire_bruteforce(4, 4, 4.0, energy)
    cycle_first = (len(outcome.ranking) == 2
                   and abs(outcome.ranking[0].value - 5.0 / 8.0) < 1e-9
                   and abs(outcome.ranking[1].value - 19.0 / 24.0) < 1e-9
                   and outcome.ranking[0].value < outcome.ranking[1].value)

    all_pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    removals = {1: [(0, 1)], 2: [(0, 1), (2, 3)]}
    measures_checked = [MeasureDescriptor("energy1"), MeasureDescriptor("energy2"),
                        MeasureDescriptor("entropy"),
                        MeasureDescriptor("convergence_time")]
    disjoint_ok = True
    for k, removed in removals.items():
        expected = canonical_edges(
            5, tuple(p for p in all_pairs if p not in removed))
        for descriptor in measures_checked:
            ranked = rewire_bruteforce(5, 10 - k, float(10 - k), descriptor)
            best = ranked.ranking[0]
            strictly_best = (len(ranked.ranking) == 1
                             or best.value < ranked.ranking[1].value - 1e-12)
            disjoint_ok = disjoint_ok and best.edges == expected and strictly_best
    ok = cycle_first and disjoint_ok
    _emit("criterion 7: rewiring (C4 beats the paw at n=4,m=4; K5 minus k "
          "disjoint edges wins for k in {1,2})", ok, start,
          f"C4 ranking ok={cycle_first}, disjoint-removal ok={disjoint_ok}")
    assert ok


def test_criterion_8_augmentation_bound_and_interlacing():
    start = time.perf_counter()
    function_ids = ["inverse", "inverse_sq", "inverse_pow:1.5", "inverse_pow:2.5",
                    "exp_decay:0.3", "exp_decay:1.0"]
    bound_worst = math.inf
    interlace_ok = True
    bound_ok = True
    checked = 0
    instance = 0
    while checked < 500:
        instance += 1
        rng = np.random.Generator(np.random.PCG64(14_000 + instance))
        graph = random_connected(15_000 + instance, n_low=4, n_high=12)
        pairs = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)]
        existing = {(u, v) for u, v, _ in graph.edges}
        missing = [p for p in pairs if p not in existing]
        if not missing:
            continue
        k = int(rng.integers(1, 4))
        k = min(k, len(missing))
        chosen = [missing[i] for i in rng.choice(len(missing), size=k, replace=False)]
        weights = 10.0 ** rng.uniform(-2.0, 3.0, size=k)
        f_id = function_ids[int(rng.integers(len(function_ids)))]
        fn = get_spectral_function(f_id)
        augmented = WeightedGraph(
            n=graph.n,
            edges=graph.edges + tuple((u, v, float(w))
                                      for (u, v), w in zip(chosen, weights)))
        achieved = float(np.sum(fn.fn(graph_spectrum(augmented).nonzero)))
        bound = fundamental_limit(graph, k, f_id)
        margin = achieved - bound
        bound_worst = min(bound_worst, margin)
        bound_ok = bound_ok and margin >= -1e-9
        old = graph_spectrum(graph).eigenvalues
        new = graph_spectrum(augmented).eigenvalues
        for i in range(graph.n - k):
            interlace_ok = interlace_ok and new[i] <= old[i + k] + 1e-9
        checked += 1
    ok = bound_ok and interlace_ok
    _emit("criterion 8: augmentation bound and rank-k interlacing over 500 "
          "seeded instances", ok, start,
          f"min(achieved - bound) {bound_worst:.3e}; interlacing ok={interlace_ok}")
    assert ok
