import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import systemic
from systemic import cli, serialize_graph, generate

SCHEMA = json.loads(files("systemic").joinpath("report.schema.json").read_text())

P3_TEXT = "n 3\n0 1 1\n1 2 1\n"
K3_TEXT = "n 3\n0 1 1\n0 2 1\n1 2 1\n"


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    for name, text in [("p3", P3_TEXT), ("k3", K3_TEXT),
                       ("bad", "n 3\n0 1 2.5\n0 1 1\n"),
                       ("candidates", "n 3\n0 2 1\n")]:
        target = tmp_path / f"{name}.txt"
        target.write_text(text)
        paths[name] = str(target)
    return paths


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report, captured.err


class TestMeasure:
    def test_energy1_p3(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["measure", "--graph", graph_files["p3"],
                                           "--measure", "energy1"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_value_serialized_shortest_roundtrip(self, capsys, graph_files):
        cli.main(["measure", "--graph", graph_files["p3"], "--measure", "energy1"])
        out = capsys.readouterr().out
        assert '"value": 0.6666666666666666' in out

    def test_descriptor_params(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "measure", "--graph", graph_files["k3"], "--measure", "zeta_measure",
            "--p", "inf", "--k", "1.0"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(1.0 / 3.0)
        assert report["inputs"]["p"] == "inf"

    def test_schur_sum_with_f(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "measure", "--graph", graph_files["k3"], "--measure", "schur_sum",
            "--f", "inverse"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(1.0 / 3.0)


class TestZetaAndHp:
    def test_zeta(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["zeta", "--graph", graph_files["p3"],
                                           "--p", "1"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(4.0 / 3.0)

    def test_zeta_nonpositive_exponent_exits_two(self, capsys, graph_files):
        for p in ("0", "-1"):
            code, report, err = run_cli(capsys, ["zeta", "--graph", graph_files["p3"],
                                                 "--p", p])
            assert code == 2
            assert report is None
            assert "positive" in err

    def test_hpnorm_closed(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["hpnorm", "--graph", graph_files["k3"],
                                           "--p", "2"])
        assert code == 0
        assert report["results"]["closed_form"] == pytest.approx(math.sqrt(1 / 3))

    def test_hpnorm_numeric_difference(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["hpnorm", "--graph", graph_files["k3"],
                                           "--p", "3", "--numeric"])
        assert code == 0
        results = report["results"]
        assert results["relative_difference"] < 1e-8
        assert results["numeric"] == pytest.approx(results["closed_form"], rel=1e-8)

    def test_hpnorm_rejects_p_one(self, capsys, graph_files):
        code, report, err = run_cli(capsys, ["hpnorm", "--graph", graph_files["k3"],
                                             "--p", "1"])
        assert code == 2
        assert report is None
        assert "p > 1" in err

    def test_unachievable_quad_tolerance_exits_three(self, capsys, graph_files):
        code, report, err = run_cli(capsys, [
            "hpnorm", "--graph", graph_files["k3"], "--p", "1.05",
            "--numeric", "--tol", "1e-15"])
        assert code == 3
        assert report is None
        assert "tolerance" in err


class TestTrees:
    def test_k3_report(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["trees", "--graph", graph_files["k3"]])
        assert code == 0
        results = report["results"]
        assert results["tau"] == pytest.approx(3.0)
        assert results["entropy_spectral"] == pytest.approx(-2.0 * math.log(3.0))
        assert results["entropy_matrix_tree"] == pytest.approx(-math.log(9.0))
        assert results["entropy_literal_form"] == pytest.approx(0.0, abs=1e-12)
        assert any("log(n/tau)" in w and "log(3/3) = 0" in w
                   for w in report["warnings"])

    def test_tree_count_overflow_exits_three(self, capsys, tmp_path):
        # tau(K200) = 200^198 is beyond the largest double
        target = tmp_path / "k200.txt"
        target.write_text(serialize_graph(generate("complete", 200)))
        code, report, err = run_cli(capsys, ["trees", "--graph", str(target)])
        assert code == 3
        assert report is None
        assert "overflow" in err


class TestProps:
    def test_clean_measure_exits_zero(self, capsys):
        code, report, _ = run_cli(capsys, [
            "props", "--measure", "energy1", "--property", "homogeneity",
            "--trials", "10", "--seed", "3", "--tol", "1e-8"])
        assert code == 0
        assert report["results"]["violation_count"] == 0

    def test_violating_measure_exits_one(self, capsys):
        code, report, _ = run_cli(capsys, [
            "props", "--measure", "entropy", "--property", "homogeneity",
            "--trials", "10", "--seed", "3"])
        assert code == 1
        assert report["results"]["violation_count"] > 0
        first = report["results"]["violations"][0]
        assert {"trial", "description", "lhs", "rhs", "margin"} <= set(first)

    def test_orthogonal_and_schur_names(self, capsys):
        for prop in ("orthogonal", "schur"):
            code, report, _ = run_cli(capsys, [
                "props", "--measure", "energy2", "--property", prop,
                "--trials", "5", "--seed", "1"])
            assert code == 0


class TestDesignCommands:
    def test_optimize_weights(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "optimize-weights", "--topology", graph_files["p3"],
            "--measure", "energy1", "--tol", "1e-8", "--max-iters", "500"])
        assert code == 0
        results = report["results"]
        assert results["objective"] == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert results["weights"] == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_rewire(self, capsys):
        code, report, _ = run_cli(capsys, [
            "rewire", "--n", "4", "--m", "4", "--alpha", "4",
            "--measure", "energy1"])
        assert code == 0
        ranking = report["results"]["ranking"]
        assert len(ranking) == 2
        assert ranking[0]["value"] == pytest.approx(0.625)
        assert ranking[1]["value"] == pytest.approx(19.0 / 24.0)

    def test_augment(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "augment", "--graph", graph_files["p3"], "--k", "1",
            "--candidates", graph_files["candidates"], "--f", "inverse"])
        assert code == 0
        results = report["results"]
        assert results["bound"] == pytest.approx(1.0 / 6.0)
        assert results["gap"] >= -1e-9
        assert results["added"] == [[0, 2, 1.0]]


class TestSimulate:
    def test_h2_report(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "simulate-h2", "--graph", graph_files["k3"], "--dt", "0.002",
            "--horizon", "40", "--trials", "6", "--seed", "5"])
        assert code == 0
        results = report["results"]
        assert results["closed_form"] == pytest.approx(1.0 / 3.0)
        assert abs(results["estimate"] - results["closed_form"]) <= \
            4.0 * results["stderr"]
        assert results["burn_in"] == pytest.approx(5.0 / 3.0)
        assert report["warnings"] == []

    def test_short_burn_in_warns_in_report(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "simulate-h2", "--graph", graph_files["k3"], "--dt", "0.002",
            "--horizon", "20", "--trials", "4", "--seed", "5",
            "--burn-in", "0.5"])
        assert code == 0
        assert any("burn_in" in w for w in report["warnings"])


class TestValidate:
    def test_good_graph(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["validate", "--graph", graph_files["k3"]])
        assert code == 0
        results = report["results"]
        assert results["connected"] is True
        assert results["zero_eigenvalue_count"] == 1
        assert results["round_trip_ok"] is True

    def test_duplicate_edge_exit_two(self, capsys, graph_files):
        code, report, err = run_cli(capsys, ["validate", "--graph", graph_files["bad"]])
        assert code == 2
        assert report is None
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["validate", "--graph", "/nonexistent.txt"])
        assert code == 2
        assert "cannot read" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys, graph_files):
        code, report, err = run_cli(capsys, ["measure", "--graph", graph_files["p3"],
                                             "--measure", "energy1", "--bogus"])
        assert code == 2
        assert report is None
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, report, err = run_cli(capsys, ["frobnicate"])
        assert code == 2
        assert report is None

    def test_unknown_measure(self, capsys, graph_files):
        code, _, err = run_cli(capsys, ["measure", "--graph", graph_files["p3"],
                                        "--measure", "resistance"])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, graph_files, monkeypatch):
        monkeypatch.setattr(cli, "_clock", lambda: 0.0)
        argv = ["props", "--measure", "energy1", "--property", "monotonicity",
                "--trials", "8", "--seed", "4"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["timing"] == 0.0

    def test_results_independent_of_blas_threads(self):
        # replay must not depend on how many threads the BLAS library uses
        src = str(Path(systemic.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "systemic.cli", "props", "--measure", "entropy",
                "--property", "homogeneity", "--trials", "40", "--seed", "77"]
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 1, done.stderr
            outputs.append(json.dumps(json.loads(done.stdout)["results"]))
        assert outputs[0] == outputs[1]

    def test_rewire_deterministic_bytes(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_clock", lambda: 0.0)
        argv = ["rewire", "--n", "5", "--m", "5", "--alpha", "5",
                "--measure", "entropy"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second


def _fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(systemic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestStartup:
    # Fresh interpreters: the in-process tests above have SciPy loaded already.
    def test_import_loads_no_scipy(self):
        done = _fresh_python(["-c", (
            "import sys, systemic, systemic.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_hpnorm_numeric_cold(self, graph_files):
        done = _fresh_python(["-m", "systemic.cli", "hpnorm", "--graph", graph_files["k3"],
                              "--p", "3", "--numeric"])
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)["results"]
        assert abs(results["numeric"] - results["closed_form"]) <= 1e-8
