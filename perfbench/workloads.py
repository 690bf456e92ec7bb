"""The two workloads: seeded inputs, the ops of one pass, and an oracle per op.

An op is one call into the package (or, for `cli`, one fresh CLI process).
Every op's output is checked against an oracle outside the timed region. The
oracles avoid the package's own spectral pipeline where they can: reference
spectra are closed forms for the unit-weight families and LAPACK
(`numpy.linalg.eigvalsh`) on a Laplacian assembled here for weighted graphs,
and the measure formulas are restated here from their definitions.

A miss is either unexpected, which makes the run incorrect, or explained by a
known defect of the package, which still counts as a failed op:

* `spanning_tree_count` takes a plain determinant, which overflows to inf
  from about 180 nodes on complete graphs (and on the weighted n = 400
  Erdos-Renyi graph), so `entropy_via_trees` returns -inf there. Only -inf
  on the graphs in TREE_OVERFLOW counts as this defect.
"""

from __future__ import annotations

import functools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import systemic
from systemic import design, graphs, measures, properties, sim, spectral

# estimate_h2 gate: |estimate - target| <= SIM_Z_GATE standard errors, where
# the target is energy1 plus the exact stationary offset of the Euler-Maruyama
# chain. At 3 standard errors a correct simulator misses on about 0.6% of
# seeded graphs (measured over 1200 draws with 32 trials); every run draws
# new graphs, so the gate sits at 5.
SIM_Z_GATE = 5.0
SIM_TRIALS = 32
VALUE_RTOL = 1e-8
HP_NUMERIC_RTOL = 1e-6
CLI_RTOL = 1e-12

# catalog graphs on which the determinant in spanning_tree_count overflows
TREE_OVERFLOW = ("complete200", "complete400", "erdos_renyi400")

@dataclass(frozen=True)
class Miss:
    reason: str
    known: bool = False


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Miss | None]


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _close(value: float, reference: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rtol * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# reference spectra and measure formulas (the oracle side)

def analytic_eigenvalues(family: str, n: int) -> np.ndarray:
    """Closed-form Laplacian spectra of the unit-weight families, ascending."""
    k = np.arange(n)
    if family == "complete":
        values = np.where(k == 0, 0.0, float(n))
    elif family == "cycle":
        values = 4.0 * np.sin(np.pi * k / n) ** 2
    elif family == "path":
        values = 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2
    elif family == "star":
        values = np.where(k == 0, 0.0, np.where(k == n - 1, float(n), 1.0))
    else:
        raise ValueError(family)
    return np.sort(values)


def reference_laplacian(graph) -> np.ndarray:
    edges = np.array(graph.edges, dtype=float).reshape(-1, 3)
    u, v, w = edges[:, 0].astype(int), edges[:, 1].astype(int), edges[:, 2]
    matrix = np.zeros((graph.n, graph.n))
    np.add.at(matrix, (u, v), -w)
    np.add.at(matrix, (v, u), -w)
    matrix[np.diag_indices(graph.n)] = -matrix.sum(axis=1)
    return matrix


class Reference:
    """Nonzero eigenvalues and degrees of one graph, from the oracle side."""

    def __init__(self, graph, family: str | None = None):
        matrix = reference_laplacian(graph)
        if family is None:
            lam = np.linalg.eigvalsh(matrix)
        else:
            lam = analytic_eigenvalues(family, graph.n)
        self.lam = lam[1:]
        self.degrees = np.diag(matrix).copy()

    def measure(self, descriptor) -> float:
        lam = self.lam
        mid = descriptor.id
        if mid == "energy1":
            return float(np.sum(0.5 / lam))
        if mid == "energy2":
            return float(np.sum(0.5 / lam ** 2))
        if mid == "h2":
            return math.sqrt(np.sum(0.5 / lam))
        if mid in ("hinf", "convergence_time"):
            return 1.0 / float(lam[0])
        if mid == "entropy":
            return -float(np.sum(np.log(lam)))
        if mid == "local_error":
            return 0.5 * float(np.sum(1.0 / self.degrees))
        if mid == "zeta_measure":
            if descriptor.p == math.inf:
                return descriptor.k / float(lam[0])
            return descriptor.k * float(np.sum(lam ** -descriptor.p)) ** (1.0 / descriptor.p)
        if mid == "hp_norm":
            from scipy.special import beta
            p = descriptor.p
            coefficient = beta((p - 1.0) / 2.0, 0.5) / (2.0 * math.pi)
            return (coefficient * float(np.sum(lam ** (1.0 - p)))) ** (1.0 / p)
        if mid == "schur_sum":
            name, parameter = descriptor.f_id.split(":")
            if name == "inverse_pow":
                return float(np.sum(lam ** -float(parameter)))
            if name == "exp_decay":
                return float(np.sum(np.exp(-float(parameter) * lam)))
        raise ValueError(f"no reference formula for {descriptor.label()}")

    def sim_offset(self, dt: float) -> float:
        """Stationary E|x|^2 of the Euler-Maruyama chain minus energy1:
        sum of 1/(lam (2 - dt lam)) - 1/(2 lam) over the nonzero modes."""
        return float(np.sum(dt / (2.0 * (2.0 - dt * self.lam))))


# ---------------------------------------------------------------------------
# catalog: every measure and oracle on fixed graph families

def catalog_descriptors() -> list:
    md = measures.MeasureDescriptor
    return [md("energy1"), md("energy2"), md("h2"), md("hinf"), md("convergence_time"),
            md("entropy"), md("local_error"), md("zeta_measure", p=2.0),
            md("zeta_measure", p=math.inf), md("hp_norm", p=3.0),
            md("schur_sum", f_id="inverse_pow:2"), md("schur_sum", f_id="exp_decay:0.5")]


def _sim_config(reference: Reference, noise_seed: int):
    lam2, lam_max = float(reference.lam[0]), float(reference.lam[-1])
    dt = 0.5 / lam_max
    burn_in = 6.0 / lam2  # clear of the simulator's 5 / lambda_2 mixing warning
    horizon = burn_in + max(15.0 / lam2, 4000.0 * dt)
    return sim.SimConfig(dt=dt, horizon=horizon, burn_in=burn_in,
                         trials=SIM_TRIALS, seed=noise_seed)


def build_catalog(seed: int, quick: bool, **_) -> list[Op]:
    sizes = (10,) if quick else (10, 50, 200, 400)
    families = ("complete", "cycle", "path", "star", "erdos_renyi")
    descriptors = catalog_descriptors()
    hp3 = measures.MeasureDescriptor("hp_norm", p=3.0)
    ops = []
    for n in sizes:
        for slot, family in enumerate(families):
            if family == "erdos_renyi":
                graph = graphs.generate(family, n, seed=derived_seed(seed, 2, n),
                                        p=min(1.0, 8.0 / n), weight_range=(0.5, 2.0))
            else:
                graph = graphs.generate(family, n)
            # computed on first use, outside set-up and outside the timed ops
            reference = functools.cache(functools.partial(
                Reference, graph, None if family == "erdos_renyi" else family))
            tag = f"{family}{n}"
            for descriptor in descriptors:

                def call(graph=graph, descriptor=descriptor):
                    return measures.evaluate(graph, descriptor)

                def check(value, reference=reference, descriptor=descriptor):
                    expected = reference().measure(descriptor)
                    if not _close(value, expected, VALUE_RTOL):
                        return Miss(f"{value!r} vs reference {expected!r}")
                    return None

                ops.append(Op(f"evaluate:{descriptor.label()}:{tag}", call, check))

            def check_hp(value, reference=reference):
                expected = reference().measure(hp3)
                if not _close(value, expected, HP_NUMERIC_RTOL):
                    return Miss(f"quadrature {value!r} vs closed form {expected!r}")
                return None

            ops.append(Op(f"hp_norm_numeric:p=3:{tag}",
                          lambda graph=graph: measures.hp_norm_numeric(graph, 3.0), check_hp))

            def check_trees(value, reference=reference, tag=tag):
                expected = reference().measure(measures.MeasureDescriptor("entropy"))
                if _close(value, expected, VALUE_RTOL):
                    return None
                known = tag in TREE_OVERFLOW and value == -math.inf
                cause = " (spanning_tree_count overflow)" if known else ""
                return Miss(f"matrix-tree {value!r} vs spectral {expected!r}{cause}", known)

            ops.append(Op(f"entropy_via_trees:{tag}",
                          lambda graph=graph: measures.entropy_via_trees(graph), check_trees))

            if n <= 50:
                cfg = _sim_config(reference(), derived_seed(seed, 3, n, slot))
                target = reference().measure(measures.MeasureDescriptor("energy1")) \
                    + reference().sim_offset(cfg.dt)

                def check_sim(output, target=target):
                    estimate, stderr = output
                    z = (estimate - target) / stderr
                    if not abs(z) <= SIM_Z_GATE:
                        return Miss(f"estimate {estimate!r} is {z:.2f} standard errors "
                                    f"from {target!r}")
                    return None

                ops.append(Op(f"estimate_h2:{tag}",
                              lambda graph=graph, cfg=cfg: sim.estimate_h2(graph, cfg),
                              check_sim))
    return ops


# ---------------------------------------------------------------------------
# candidate non-edges, the input of the cli workload's `augment`

def candidate_edges(graph, count: int, seed: int) -> list[tuple[int, int, float]]:
    """Up to `count` seeded non-edges of `graph`, with weights in [0.5, 2)."""
    existing = {(u, v) for u, v, _ in graph.edges}
    missing = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n)
               if (u, v) not in existing]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(missing), size=min(count, len(missing)), replace=False)
    return [(missing[i][0], missing[i][1], float(w))
            for i, w in zip(chosen, rng.uniform(0.5, 2.0, size=chosen.size))]


# ---------------------------------------------------------------------------
# cli: one fresh `python -m systemic.cli` process per op

def _schema():
    import jsonschema
    path = Path(systemic.__file__).with_name("report.schema.json")
    return jsonschema.Draft202012Validator(json.loads(path.read_text(encoding="utf-8")))


class CliWorkload:
    """Graph files, the argument lists and the in-process expectations."""

    def __init__(self, seed: int, quick: bool, workdir: Path, launcher: list[str], env: dict):
        md = measures.MeasureDescriptor
        workdir.mkdir(parents=True, exist_ok=True)
        self.launcher = launcher
        self.env = env
        self.workdir = workdir
        self.validator = None
        p3 = graphs.generate("path", 3)
        er12 = graphs.generate("erdos_renyi", 12, seed=derived_seed(seed, 7), p=0.4,
                               weight_range=(0.5, 2.0))
        candidates = graphs.WeightedGraph.from_edges(
            12, candidate_edges(er12, 8, derived_seed(seed, 8)))
        files = {"p3": p3, "er12": er12, "cand12": candidates}
        path = {}
        for name, graph in files.items():
            path[name] = str(workdir / f"{name}.txt")
            Path(path[name]).write_text(graphs.serialize_graph(graph), encoding="utf-8")
        props_seed = derived_seed(seed, 9) % 100_000
        sim_seed = derived_seed(seed, 10) % 100_000
        sim_cfg = sim.SimConfig(dt=0.01, horizon=20.0, burn_in=5.0, trials=4, seed=sim_seed)
        energy1, inverse = md("energy1"), md("schur_sum", f_id="inverse")

        # (argv, expected exit code, in-process expectation: results key -> thunk)
        self.commands = [
            (["measure", "--graph", path["p3"], "--measure", "energy1"], 0,
             {"value": lambda: measures.evaluate(p3, energy1)}),
            (["measure", "--graph", path["er12"], "--measure", "schur_sum", "--f", "inverse"], 0,
             {"value": lambda: measures.evaluate(er12, inverse)}),
            (["zeta", "--graph", path["er12"], "--p", "2"], 0,
             {"value": lambda: measures.zeta(er12, 2.0)}),
            (["hpnorm", "--graph", path["er12"], "--p", "3", "--numeric"], 0,
             {"closed_form": lambda: measures.hp_norm(er12, 3.0),
              "numeric": lambda: measures.hp_norm_numeric(er12, 3.0)}),
            (["trees", "--graph", path["er12"]], 0,
             {"tau": lambda: graphs.spanning_tree_count(er12),
              "entropy_matrix_tree": lambda: measures.entropy_via_trees(er12),
              "entropy_spectral": lambda: measures.evaluate(er12, md("entropy"))}),
            (["validate", "--graph", path["er12"]], 0,
             {"connected": lambda: True,
              "algebraic_connectivity": lambda: float(spectral.graph_spectrum(er12).nonzero[0])}),
            (["props", "--measure", "energy1", "--property", "convexity", "--trials", "3",
              "--seed", str(props_seed)], 0,
             {"violation_count": lambda: len(properties.run_check(
                 "convexity", energy1, trials=3, seed=props_seed).violations)}),
            (["rewire", "--n", "4", "--m", "4", "--alpha", "4", "--measure", "energy1"], 0,
             {"best_value": lambda: design.rewire_bruteforce(4, 4, 4.0, energy1).value}),
            (["augment", "--graph", path["er12"], "--k", "2", "--candidates", path["cand12"],
              "--f", "inverse"], 0,
             {"achieved": lambda: design.greedy_augment(
                 er12, 2, list(candidates.edges), "inverse").achieved}),
            (["optimize-weights", "--topology", path["er12"], "--measure", "energy1"], 0,
             {"objective": lambda: design.optimize_weights(
                 design.Topology.from_graph(er12), energy1).objective}),
            (["simulate-h2", "--graph", path["p3"], "--dt", "0.01", "--horizon", "20",
              "--trials", "4", "--seed", str(sim_seed), "--burn-in", "5"], 0,
             {"estimate": lambda: sim.estimate_h2(p3, sim_cfg)[0]}),
        ]
        if quick:
            # one command per layer the CLI reaches: measures, graphs, properties, design
            self.commands = [self.commands[i] for i in (0, 4, 6, 7, 8, 9)]
        self.expected: dict[int, dict] = {}

    def ops(self) -> list[Op]:
        ops = []
        for _ in range(2):  # each subcommand twice per pass, so that a pass has 22 ops
            for index, (argv, code, expectations) in enumerate(self.commands):
                ops.append(Op(f"cli:{argv[0]}:{index}",
                              lambda argv=argv: self.run(argv),
                              lambda output, index=index: self.check(index, output)))
        return ops

    def run(self, argv: list[str]):
        completed = subprocess.run(self.launcher + argv, capture_output=True, text=True,
                                   env=self.env, cwd=self.workdir, timeout=120)
        return completed.returncode, completed.stdout, completed.stderr

    def check(self, index: int, output) -> Miss | None:
        argv, code, expectations = self.commands[index]
        returncode, stdout, stderr = output
        if returncode != code:
            return Miss(f"exit code {returncode}, expected {code}: {stderr.strip()[-200:]}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return Miss(f"report does not parse: {exc}")
        if self.validator is None:
            self.validator = _schema()
        errors = [error.message for error in self.validator.iter_errors(report)]
        if errors:
            return Miss(f"report fails the schema: {errors[0]}")
        if report["command"] != argv[0]:
            return Miss(f"report names command {report['command']!r}")
        if index not in self.expected:
            self.expected[index] = {key: thunk() for key, thunk in expectations.items()}
        for key, expected in self.expected[index].items():
            got = report["results"].get(key)
            if isinstance(expected, bool) or isinstance(expected, int):
                same = got == expected
            else:
                same = isinstance(got, float) and math.isclose(got, expected, rel_tol=CLI_RTOL)
            if not same:
                return Miss(f"results[{key!r}] = {got!r}, in-process {expected!r}")
        return None


def build_cli(seed: int, quick: bool, workdir: Path, launcher: list[str], env: dict,
              **_) -> list[Op]:
    return CliWorkload(seed, quick, workdir, launcher, env).ops()


def corrupted(output):
    """Wrong variants of an op's output; the quick mode checks that every gate
    rejects each of them."""
    if isinstance(output, float):
        yield output * (1.0 + 1e-3) + 1e-3
        yield math.nan
        yield -math.inf
    elif isinstance(output, tuple) and isinstance(output[0], float):
        estimate, stderr = output
        yield estimate + 6.0 * stderr + 1e-3, stderr
    elif isinstance(output, tuple) and isinstance(output[0], int):
        returncode, stdout, stderr = output
        yield returncode + 1, stdout, stderr
        yield returncode, stdout[: len(stdout) // 2], stderr
        report = json.loads(stdout)
        report["results"] = {key: _nudge(value) for key, value in report["results"].items()}
        yield returncode, json.dumps(report), stderr
    else:
        raise TypeError(f"no corruption for {type(output).__name__}")


def _nudge(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1.0 + 1e-6) + 1e-9
    return value


BUILDERS = {"catalog": build_catalog, "cli": build_cli}


def build(name: str, seed: int, quick: bool = False, **context) -> list[Op]:
    ops = BUILDERS[name](seed, quick, **context)
    # One fixed order that mixes the kinds of op, so that the ops which set the
    # median or the tail are spread over the whole pass instead of being timed
    # in one stretch of it: on a shared machine, speed drifts within seconds.
    random.Random(0).shuffle(ops)
    return ops


def cli_launcher(repo: Path, trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "systemic.cli"]
    return [sys.executable, str(repo / "perfbench" / "cli_child.py"), str(trace_path)]
