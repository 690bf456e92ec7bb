import json
import math
import os
import struct
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import systemic
from systemic import cli, generate, scalar_mul, serialize_graph, spanning_tree_count

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
        # the report carries the shortest repr of the in-process value, and
        # that text parses back to the same bits
        value = systemic.evaluate(systemic.parse_graph(P3_TEXT),
                                  systemic.MeasureDescriptor("energy1"))
        cli.main(["measure", "--graph", graph_files["p3"], "--measure", "energy1"])
        out = capsys.readouterr().out
        assert f'"value": {value!r}\n' in out
        parsed = json.loads(out)["results"]["value"]
        assert struct.pack("<d", parsed) == struct.pack("<d", value)

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

    # each used to exit 0: exp_decay(0.5) was a second spelling of exp_decay:0.5,
    # exp_decay:inf built f = 0 and k = inf reported a value of inf
    @pytest.mark.parametrize("extra", [["--measure", "schur_sum", "--f", "exp_decay(0.5)"],
                                       ["--measure", "schur_sum", "--f", "exp_decay:inf"],
                                       ["--measure", "zeta_measure", "--p", "2", "--k", "inf"]],
                             ids=["paren_spelling", "infinite_rate", "infinite_scale"])
    def test_refused_parameters_exit_two(self, capsys, graph_files, extra):
        code, report, _ = run_cli(capsys, ["measure", "--graph", graph_files["p3"], *extra])
        assert code == 2
        assert report is None


class TestNonFiniteValues:
    """A value that is not a finite double exits 3 with the measure's name;
    each of these printed "inf" with exit 0, and zeta_measure died with an
    uncaught OverflowError (exit 1)."""

    # lambda_2 = 2e-310: 1 / lambda_2 overflows, the log-space root as well
    TINY = "n 2\n0 1 1e-310\n"
    # lambda_2 = 2e-4: lambda^-100 overflows
    SMALL = "n 2\n0 1 0.0001\n"

    @staticmethod
    def _file(tmp_path, text):
        target = tmp_path / "graph.txt"
        target.write_text(text)
        return str(target)

    @pytest.mark.parametrize("extra, name", [
        (["--measure", "energy1"], "energy1"), (["--measure", "h2"], "h2"),
        (["--measure", "energy2"], "energy2"), (["--measure", "hinf"], "hinf"),
        (["--measure", "local_error"], "local_error"),
        (["--measure", "zeta_measure", "--p", "2"], "(zeta_measure, p=2, k=1)"),
    ], ids=["energy1", "h2", "energy2", "hinf", "local_error", "zeta_measure"])
    def test_measure_exits_three(self, capsys, tmp_path, extra, name):
        code, report, err = run_cli(
            capsys, ["measure", "--graph", self._file(tmp_path, self.TINY), *extra])
        assert (code, report) == (3, None)
        assert f"error: {name} is inf in double precision" in err

    def test_zeta_exits_three(self, capsys, tmp_path):
        code, report, err = run_cli(
            capsys, ["zeta", "--graph", self._file(tmp_path, self.TINY), "--p", "2"])
        assert (code, report) == (3, None)
        assert "zeta(2) is inf" in err

    def test_schur_sum_exits_three(self, capsys, tmp_path):
        code, report, err = run_cli(capsys, [
            "measure", "--graph", self._file(tmp_path, self.SMALL), "--measure",
            "schur_sum", "--f", "inverse_pow:100"])
        assert (code, report) == (3, None)
        assert "(schur_sum, f=inverse_pow:100) is inf" in err

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_augment_exits_three(self, capsys, tmp_path, k):
        candidates = tmp_path / "candidates.txt"
        candidates.write_text("n 2\n0 1 1\n")
        code, report, err = run_cli(capsys, [
            "augment", "--graph", self._file(tmp_path, self.SMALL), "--k", k,
            "--candidates", str(candidates), "--f", "inverse_pow:100"])
        assert (code, report) == (3, None)
        assert "(schur_sum, f=inverse_pow:100) is inf" in err

    def test_optimize_weights_exits_three(self, capsys, tmp_path):
        # lambda_2 is about 4e-4 at the uniform start, so f' overflows; this
        # died with an IndexError from project_simplex (exit 1)
        path = self._file(tmp_path, serialize_graph(generate("path", 30)))
        code, report, err = run_cli(capsys, [
            "optimize-weights", "--topology", path, "--measure", "schur_sum",
            "--f", "inverse_pow:100"])
        assert (code, report) == (3, None)
        assert "(schur_sum, f=inverse_pow:100) or its gradient is not finite" in err

    def test_overflowing_spectral_function_exits_two(self, capsys, graph_files):
        # exp_decay:1e308 overflows in -q * x on every evaluation
        code, report, err = run_cli(capsys, [
            "measure", "--graph", graph_files["p3"], "--measure", "schur_sum",
            "--f", "exp_decay:1e308"])
        assert (code, report) == (2, None)
        assert "not finite" in err


class TestZetaAndHp:
    def test_zeta(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["zeta", "--graph", graph_files["p3"],
                                           "--p", "1"])
        assert code == 0
        assert report["results"]["value"] == pytest.approx(4.0 / 3.0)

    # p = inf printed a value of inf with exit 0: every term is 0 or inf
    def test_zeta_nonpositive_exponent_exits_two(self, capsys, graph_files):
        for p in ("0", "-1", "inf"):
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

    @pytest.mark.parametrize("argv", [
        ["hpnorm", "--graph", "p3"], ["measure", "--graph", "p3", "--measure", "hp_norm"],
        ["props", "--measure", "hp_norm", "--property", "convexity", "--trials", "2",
         "--seed", "1"],
        ["optimize-weights", "--topology", "p3", "--measure", "hp_norm"],
        ["rewire", "--n", "4", "--m", "4", "--alpha", "4", "--measure", "hp_norm"]],
        ids=lambda argv: argv[0])
    def test_hp_norm_beyond_the_range_of_lgamma(self, capsys, graph_files, argv):
        # math.lgamma overflowed: an OverflowError traceback and exit 1
        argv = [graph_files.get(arg, arg) for arg in argv] + ["--p", "1e306"]
        code, report, _ = run_cli(capsys, argv)
        assert code == 0
        if argv[0] == "hpnorm":
            assert report["results"]["closed_form"] == pytest.approx(1.0, rel=1e-12)

    def test_hpnorm_numeric_near_one(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["hpnorm", "--graph", graph_files["p3"],
                                           "--p", "1.001", "--numeric"])
        assert code == 0
        assert report["results"]["relative_difference"] <= 1e-9

    # a NaN tol exited 3 with QUADPACK's roundoff message, and tol 2 passed
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "2"])
    @pytest.mark.parametrize("numeric", [["--numeric"], []], ids=["numeric", "closed-only"])
    def test_invalid_quad_tolerance_exits_two(self, capsys, graph_files, tol, numeric):
        code, report, err = run_cli(capsys, [
            "hpnorm", "--graph", graph_files["k3"], "--p", "3", "--tol", tol] + numeric)
        assert code == 2
        assert report is None
        assert "rel_tol must be finite with 0 < rel_tol < 1" in err

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

    # tau(K200) = 200^198 is beyond the largest double; this exited 3 with
    # "spanning-tree count overflowed to inf" though both entropies are finite
    def test_tree_count_overflow_reports_log_tau(self, capsys, tmp_path):
        target = tmp_path / "k200.txt"
        target.write_text(serialize_graph(generate("complete", 200)))
        code, report, _ = run_cli(capsys, ["trees", "--graph", str(target)])
        assert code == 0
        results = report["results"]
        assert "tau" not in results
        assert results["log_tau"] == pytest.approx(198 * math.log(200), rel=1e-12)
        assert results["entropy_literal_form"] == pytest.approx(
            math.log(200) - 198 * math.log(200), rel=1e-12)
        assert report["warnings"] == [systemic.ENTROPY_FORM_WARNING]

    # tau = 1e-360 underflows to 0.0 though both entropies are finite; this
    # connected graph exited 2 ("non-positive spanning tree weight"), then 3
    def test_tree_count_underflow_reports_log_tau(self, capsys, tmp_path):
        target = tmp_path / "tiny_p5.txt"
        target.write_text(serialize_graph(scalar_mul(1e-90, generate("path", 5))))
        code, report, _ = run_cli(capsys, ["trees", "--graph", str(target)])
        assert code == 0
        results = report["results"]
        assert "tau" not in results
        assert results["log_tau"] == pytest.approx(4 * math.log(1e-90), rel=1e-12)
        assert math.isfinite(results["entropy_matrix_tree"])

    @pytest.mark.parametrize("graph", [
        generate("complete", 3), generate("complete", 30),
        generate("erdos_renyi", 12, seed=5, p=0.4, weight_range=(0.5, 2.0)),
        scalar_mul(1e-20, generate("path", 5))], ids=["k3", "k30", "er12", "tiny_p5"])
    def test_tau_is_the_tree_count(self, capsys, tmp_path, graph):
        target = tmp_path / "graph.txt"
        target.write_text(serialize_graph(graph))
        code, report, _ = run_cli(capsys, ["trees", "--graph", str(target)])
        assert code == 0
        assert report["results"]["tau"] == spanning_tree_count(graph)


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

    # a meaningless tol or trial count used to pass silently (a NaN tol
    # hid every violation, -5 trials ran none) instead of exiting 2
    @pytest.mark.parametrize("option", [
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"],
        ["--trials", "-5"], ["--trials", "0"]])
    def test_invalid_tol_or_trials_exit_two(self, capsys, option):
        code, report, err = run_cli(capsys, [
            "props", "--measure", "entropy", "--property", "homogeneity",
            "--trials", "20", "--seed", "1"] + option)
        assert code == 2
        assert report is None
        assert "error:" in err

    def test_hp_norm_at_the_largest_p(self, capsys):
        # the power root's log-space sum was nan there: exit 3
        code, report, _ = run_cli(capsys, [
            "props", "--measure", "hp_norm", "--p", "1.7976931348623157e308",
            "--property", "convexity", "--trials", "3", "--seed", "1"])
        assert code == 0
        assert report["results"]["violation_count"] == 0

    def test_negative_seed_exits_two(self, capsys):
        # NumPy's seed sequence refuses it with a ValueError, which exited 1
        code, report, err = run_cli(capsys, [
            "props", "--measure", "energy1", "--property", "schur",
            "--trials", "3", "--seed", "-1"])
        assert code == 2
        assert report is None
        assert "seed must be an integer >= 0" in err

    def test_property_names_map_onto_the_table(self):
        from systemic import applicable_properties, measures, properties
        ids = list(cli._PROPERTY_NAMES.values())
        assert len(set(ids)) == len(ids)
        assert set(ids) == set(properties._PROPERTIES)
        params = {"zeta_measure": {"p": 2.0}, "hp_norm": {"p": 3.0},
                  "schur_sum": {"f_id": "inverse"}}
        for measure_id in measures.MEASURE_IDS:
            descriptor = measures.MeasureDescriptor(measure_id, **params.get(measure_id, {}))
            assert applicable_properties(descriptor) <= set(properties._PROPERTIES)


class TestDesignCommands:
    def test_optimize_weights(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, [
            "optimize-weights", "--topology", graph_files["p3"],
            "--measure", "energy1", "--tol", "1e-8", "--max-iters", "500"])
        assert code == 0
        results = report["results"]
        assert results["objective"] == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert results["weights"] == pytest.approx([0.5, 0.5], abs=1e-4)
        assert results["termination"] == "converged"
        assert results["gap"] <= 1e-8 * results["objective"]
        assert report["warnings"] == []

    def test_optimize_weights_certifies_inverse_lambda2(self, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text(serialize_graph(generate("path", 4)))
        code, report, _ = run_cli(capsys, ["optimize-weights", "--topology", str(path),
                                           "--measure", "hinf"])
        assert code == 0
        results = report["results"]
        assert results["termination"] == "converged"
        assert results["objective"] == pytest.approx(5.0, abs=1e-7)
        assert results["gap"] <= 1e-8 * results["objective"]
        assert report["warnings"] == []

    # energy2 on this topology exited 3 ("line search failed at residual
    # 2.828e-03 (iteration 73)") where its gap is 2.4e-7 of the objective
    @pytest.mark.parametrize("measure, extra, termination", [
        ("energy2", [], "line_search_stall"),
        ("schur_sum", ["--f", "exp_decay:0.5", "--max-iters", "5"], "max_iters")])
    def test_uncertified_result_warns(self, capsys, tmp_path, measure, extra, termination):
        path = tmp_path / "er30.txt"
        path.write_text(serialize_graph(generate("erdos_renyi", 30, seed=4, p=0.2)))
        code, report, _ = run_cli(capsys, ["optimize-weights", "--topology", str(path),
                                           "--measure", measure] + extra)
        assert code == 0
        results = report["results"]
        assert results["termination"] == termination
        assert results["gap"] > 1e-8 * results["objective"]
        assert len(report["warnings"]) == 1
        assert termination in report["warnings"][0]

    # a NaN tol or a negative iteration budget reported the uniform start
    # as the optimum, and a negative tol died in math.sqrt with exit code 1
    @pytest.mark.parametrize("option, message", [
        (["--tol", "nan"], "tol must be finite"), (["--tol", "-1"], "tol must be finite"),
        (["--max-iters", "-5"], "max_iters must be an integer >= 1"),
        (["--max-iters", "0"], "max_iters must be an integer >= 1")])
    def test_invalid_solver_options_exit_two(self, capsys, graph_files, option, message):
        code, report, err = run_cli(capsys, [
            "optimize-weights", "--topology", graph_files["p3"],
            "--measure", "energy1"] + option)
        assert code == 2
        assert report is None
        assert message in err

    def test_edgeless_topology_exits_two(self, capsys, tmp_path):
        path = tmp_path / "n1.txt"
        path.write_text("n 1\n")
        code, report, err = run_cli(capsys, ["optimize-weights", "--topology", str(path),
                                             "--measure", "energy1"])
        assert code == 2
        assert report is None
        assert "no edges" in err

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

    def test_overflowing_step_count_exits_two(self, capsys, graph_files):
        # horizon / dt = inf passed the config and exited 1 with an OverflowError
        code, report, err = run_cli(capsys, [
            "simulate-h2", "--graph", graph_files["p3"], "--dt", "1e-320",
            "--horizon", "1e10", "--trials", "1", "--seed", "1"])
        assert code == 2
        assert report is None
        assert err.startswith("error:") and "not a finite step count" in err

    def test_negative_seed_exits_two(self, capsys, graph_files):
        # accepted, exit 0, where props --seed -1 exits 2
        code, report, err = run_cli(capsys, [
            "simulate-h2", "--graph", graph_files["p3"], "--dt", "0.01",
            "--horizon", "20", "--trials", "2", "--seed", "-1"])
        assert code == 2
        assert report is None
        assert err.startswith("error:") and "seed must be in [0, 2**64)" in err

    def test_infinite_horizon_exit_two(self, capsys, graph_files):
        # used to die with an OverflowError traceback and exit 1
        code, report, err = run_cli(capsys, [
            "simulate-h2", "--graph", graph_files["p3"], "--dt", "0.01",
            "--horizon", "inf", "--trials", "2", "--seed", "1", "--burn-in", "1"])
        assert code == 2
        assert report is None
        assert err.startswith("error:") and "horizon must be finite" in err


class TestValidate:
    def test_good_graph(self, capsys, graph_files):
        code, report, _ = run_cli(capsys, ["validate", "--graph", graph_files["k3"]])
        assert code == 0
        results = report["results"]
        assert results["connected"] is True
        assert results["zero_eigenvalue_count"] == 1
        assert results["round_trip_ok"] is True

    def test_weak_bridge_has_one_zero_eigenvalue(self, capsys, tmp_path):
        # connectivity comes from the graph, and only the zero eigenvalue
        # lies within the solve's error bound
        path = tmp_path / "bridge.txt"
        path.write_text("n 4\n0 1 1\n1 2 1e-9\n2 3 1\n")
        code, report, _ = run_cli(capsys, ["validate", "--graph", str(path)])
        assert code == 0
        results = report["results"]
        assert results["connected"] is True
        assert results["zero_eigenvalue_count"] == 1
        assert results["algebraic_connectivity"] == pytest.approx(1e-9, rel=1e-6)

    # a graph without a consensus spectrum is reported without one
    @pytest.mark.parametrize("text", ["n 1\n", "n 4\n0 1 1\n2 3 1\n"],
                             ids=["one_node", "two_components"])
    def test_no_consensus_spectrum_reported(self, capsys, tmp_path, text):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        code, report, _ = run_cli(capsys, ["validate", "--graph", str(path)])
        assert code == 0
        results = report["results"]
        assert results["connected"] is (text == "n 1\n")
        assert "algebraic_connectivity" not in results
        assert results["round_trip_ok"] is True

    # the degrees overflow to inf: the eigensolver's refusal of the matrix
    # is an input error, not a graph without a consensus spectrum
    def test_overflowing_degrees_exit_two(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("n 3\n0 1 1e308\n1 2 1e308\n")
        code, report, err = run_cli(capsys, ["validate", "--graph", str(path)])
        assert code == 2
        assert report is None
        assert "matrix has non-finite entries" in err

    def test_unresolved_bridge_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bridge.txt"
        path.write_text("n 4\n0 1 1\n1 2 1e-20\n2 3 1\n")
        code, report, err = run_cli(capsys, ["measure", "--graph", str(path),
                                             "--measure", "energy1"])
        assert code == 3
        assert report is None
        assert "not resolved" in err

    # a 50,000-node path died in np.diag with an uncaught 18.6 GiB
    # _ArrayMemoryError and exit 1; the address-space limit makes a missing
    # size check fail at once instead of swapping
    def test_dense_budget_exits_two(self, tmp_path):
        resource = pytest.importorskip("resource")
        path = tmp_path / "path50000.txt"
        path.write_text(serialize_graph(generate("path", 50_000)))

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))
        done = _fresh_python(["-m", "systemic.cli", "measure", "--graph", str(path),
                              "--measure", "energy1"], preexec_fn=limit_address_space)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == ("error: a dense Laplacian on n=50000 nodes needs "
                               "20000000000 bytes, over the budget of 536870912 bytes\n")

    def test_duplicate_edge_exit_two(self, capsys, graph_files):
        code, report, err = run_cli(capsys, ["validate", "--graph", graph_files["bad"]])
        assert code == 2
        assert report is None
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["validate", "--graph", "/nonexistent.txt"])
        assert code == 2
        assert "cannot read" in err


# every subcommand that reads --graph, with its other required arguments
GRAPH_COMMANDS = {
    "measure": ["--measure", "energy1"],
    "zeta": ["--p", "2"],
    "hpnorm": ["--p", "3", "--numeric"],
    "trees": [],
    "augment": ["--k", "1", "--candidates", "{candidates}", "--f", "inverse"],
    "simulate-h2": ["--dt", "0.01", "--horizon", "20", "--trials", "2", "--seed", "1"],
    "validate": [],
}


class TestGraphFile:
    def test_every_graph_command_is_listed(self):
        subcommands = cli.build_parser()._subparsers._group_actions[0].choices
        assert {name for name, parser in subcommands.items()
                if any(action.dest == "graph" for action in parser._actions)} \
            == set(GRAPH_COMMANDS)

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_missing_file_exits_two(self, capsys, graph_files, tmp_path, command):
        missing = str(tmp_path / "missing.txt")
        extra = [arg.format(**graph_files) for arg in GRAPH_COMMANDS[command]]
        code, report, err = run_cli(capsys, [command, "--graph", missing] + extra)
        assert code == 2
        assert report is None
        assert f"error: cannot read graph file {missing}" in err

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_malformed_file_names_the_line(self, capsys, graph_files, tmp_path, command):
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("n 3\n0 1 1\n1 2\n")
        extra = [arg.format(**graph_files) for arg in GRAPH_COMMANDS[command]]
        code, report, err = run_cli(capsys, [command, "--graph", str(malformed)] + extra)
        assert code == 2
        assert report is None
        assert err.startswith("error: line 3:")


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


class TestInputsEcho:
    # the CLI leaves each default to the library object that owns it and
    # echoes the value that object used
    def test_defaults_echoed(self, capsys, graph_files):
        cases = [
            (["hpnorm", "--graph", graph_files["k3"], "--p", "3"],
             {"graph": graph_files["k3"], "p": 3.0, "numeric": False, "tol": 1e-9}),
            (["props", "--measure", "energy1", "--property", "schur"],
             {"measure": "energy1", "property": "schur", "trials": 200, "seed": 0,
              "tol": 1e-8}),
            (["optimize-weights", "--topology", graph_files["p3"], "--measure", "energy1"],
             {"topology": graph_files["p3"], "measure": "energy1", "tol": 1e-8,
              "max_iters": 2000}),
        ]
        for argv, inputs in cases:
            code, report, _ = run_cli(capsys, argv)
            assert code == 0
            assert list(report["inputs"].items()) == list(inputs.items())


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

    @pytest.mark.parametrize("command, expected_code", [
        (["props", "--measure", "entropy", "--property", "homogeneity",
          "--trials", "40", "--seed", "77"], 1),
        # 5 trials x 20 nodes, 12,000 steps: three 4 MiB noise chunks, drawn on
        # worker threads
        (["simulate-h2", "--graph", "cycle20", "--dt", "0.02", "--horizon", "240",
          "--trials", "5", "--seed", "8"], 0),
    ], ids=["props", "simulate-h2"])
    def test_results_independent_of_blas_threads(self, tmp_path, command, expected_code):
        # replay must not depend on how many threads the BLAS library uses
        src = str(Path(systemic.__file__).resolve().parents[1])
        graph_file = tmp_path / "cycle20.txt"
        graph_file.write_text(serialize_graph(generate("cycle", 20)))
        command = [str(graph_file) if arg == "cycle20" else arg for arg in command]
        argv = [sys.executable, "-m", "systemic.cli", *command]
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == expected_code, done.stderr
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


def _fresh_python(args: list[str], preexec_fn=None) -> subprocess.CompletedProcess:
    src = str(Path(systemic.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=preexec_fn)


# modules the subcommands that only read and evaluate a graph never load
_OPTIONAL_LAYERS = ("systemic.design", "systemic.properties", "systemic.sim", "numpy.random")
# layers the design subcommands (which load systemic.design) never load
_DESIGN_ONLY = ("systemic.properties", "systemic.sim")
# subcommand -> (arguments, with graph_files keys for paths; modules it must not load)
_STARTUP_CASES = {
    "measure": (["--graph", "p3", "--measure", "energy1"], _OPTIONAL_LAYERS),
    "zeta": (["--graph", "p3", "--p", "2"], _OPTIONAL_LAYERS),
    "trees": (["--graph", "p3"], _OPTIONAL_LAYERS),
    "validate": (["--graph", "p3"], _OPTIONAL_LAYERS),
    "rewire": (["--n", "4", "--m", "4", "--alpha", "4", "--measure", "energy1"],
               _DESIGN_ONLY),
    "augment": (["--graph", "p3", "--k", "1", "--candidates", "candidates",
                 "--f", "inverse"], _DESIGN_ONLY),
    "optimize-weights": (["--topology", "p3", "--measure", "energy1"], _DESIGN_ONLY),
}


class TestStartup:
    # Fresh interpreters: the in-process tests above have SciPy loaded already.
    def test_import_loads_no_scipy(self):
        # neither SciPy nor concurrent.futures (which imports logging) loads on import
        done = _fresh_python(["-c", (
            "import sys, systemic, systemic.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "       or m.startswith('concurrent.futures')])")])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_simulation_loads_no_executor_or_logging(self, graph_files):
        # the noise workers run on plain threads: concurrent.futures would
        # also import logging
        done = _fresh_python(["-c", (
            "import json, sys\n"
            "from systemic import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)"), "simulate-h2", "--graph", graph_files["p3"],
            "--dt", "0.01", "--horizon", "20", "--trials", "4", "--seed", "3",
            "--burn-in", "5"])
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stderr.splitlines()[-1]))
        assert "systemic.sim" in loaded
        assert not [m for m in loaded if m.startswith(("concurrent", "logging"))]

    def test_hpnorm_numeric_loads_no_scipy(self, graph_files):
        # the quadrature oracle is NumPy only
        done = _fresh_python(["-c", (
            "import sys\n"
            "from systemic import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], file=sys.stderr)\n"
            "sys.exit(code)"), "hpnorm", "--graph", graph_files["k3"], "--p", "3",
            "--numeric"])
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == "[]"

    def test_hpnorm_numeric_cold(self, graph_files):
        done = _fresh_python(["-m", "systemic.cli", "hpnorm", "--graph", graph_files["k3"],
                              "--p", "3", "--numeric"])
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)["results"]
        assert abs(results["numeric"] - results["closed_form"]) <= 1e-8

    # A subcommand loads only the layers it calls; numpy.random loads only
    # for the subcommands that draw random numbers.
    @pytest.mark.parametrize("command", list(_STARTUP_CASES))
    def test_subcommand_loads_only_its_layers(self, graph_files, command):
        args, absent = _STARTUP_CASES[command]
        argv = [command] + [graph_files.get(arg, arg) for arg in args]
        done = _fresh_python(["-c", (
            "import json, sys\n"
            "from systemic import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)"), *argv])
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stderr.splitlines()[-1]))
        assert "systemic.measures" in loaded
        assert loaded.isdisjoint(absent), sorted(loaded.intersection(absent))

    def test_package_import_loads_no_layer(self):
        done = _fresh_python(["-c", (
            "import sys, systemic\n"
            "print([m for m in sys.modules if m.startswith('systemic.')])")])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


# subcommand -> arguments, with graph_files keys for paths
_TIMED_CASES = {command: args for command, (args, _) in _STARTUP_CASES.items()} | {
    "hpnorm": ["--graph", "p3", "--p", "3", "--numeric"],
    "props": ["--measure", "energy1", "--property", "schur", "--trials", "3"],
    "simulate-h2": ["--graph", "p3", "--dt", "0.01", "--horizon", "20", "--trials", "4",
                    "--seed", "3"],
}


class TestTimedBlock:
    # A module that first loads between the two clock reads counts its import
    # in the report's `timing`.  Fresh interpreters, so that each layer loads
    # for the first time in the subcommand under test.
    @pytest.mark.parametrize("command", sorted(
        cli.build_parser()._subparsers._group_actions[0].choices))
    def test_no_module_loads_inside_the_timed_block(self, graph_files, command):
        argv = [command] + [graph_files.get(arg, arg) for arg in _TIMED_CASES[command]]
        done = _fresh_python(["-c", (
            "import json, sys\n"
            "from systemic import cli\n"
            "loaded = []\n"
            "def clock():\n"
            "    loaded.append(sorted(m for m in sys.modules if m.startswith('systemic.')))\n"
            "    return 0.0\n"
            "cli._clock = clock\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps(loaded), file=sys.stderr)\n"
            "sys.exit(code)"), *argv])
        assert done.returncode == 0, done.stderr
        start, end = json.loads(done.stderr.splitlines()[-1])
        assert end == start, sorted(set(end) - set(start))


# The package namespace: every re-exported name and the layer modules.
PACKAGE_NAMES = [
    "AugmentationReport", "ConfigError", "ConnectivityError", "DimensionError",
    "DomainError", "ENTROPY_FORM_WARNING", "GenerationError", "GraphFormatError",
    "InputError", "MeasureDescriptor", "NumericalError", "PropertyReport",
    "QuadratureSettings", "RankingEntry", "RewireResult", "ScaleError", "SimConfig",
    "SolverOptions", "SpectralFunction", "Spectrum", "SystemicError",
    "Topology", "Violation", "WeightAllocationResult", "WeightedGraph",
    "applicable_properties", "design", "eig_sym",
    "entropy_via_trees", "errors", "estimate_h2", "evaluate", "evaluate_eigenvalues",
    "fundamental_limit", "generate", "get_spectral_function", "graph_add",
    "graph_spectrum", "graphs", "greedy_augment", "hp_norm", "hp_norm_numeric",
    "is_connected", "is_homogeneous", "is_spectral", "laplacian", "laplacian_spectrum",
    "measures", "optimize_weights", "parse_graph", "project_simplex", "properties",
    "replay_trial",
    "rewire_bruteforce", "run_check", "scalar_mul", "serialize_graph", "sim",
    "spanning_tree_count", "spectral", "zeta",
    "zeta_measure",
]
LAYER_MODULES = ["design", "errors", "graphs", "measures", "properties", "sim", "spectral"]


def _fresh_output(code: str) -> str:
    done = _fresh_python(["-c", code])
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestPackageSurface:
    # Fresh interpreters, so that every name is resolved through the lazy
    # package namespace rather than found already imported.
    def test_all_unchanged(self):
        output = _fresh_output("import json, systemic\nprint(json.dumps(systemic.__all__))")
        assert json.loads(output) == PACKAGE_NAMES

    def test_names_resolve_to_their_defining_objects(self):
        # each name read through the package first, then from its home module
        output = _fresh_output(
            "import importlib, json, systemic\n"
            f"layers = {LAYER_MODULES!r}\n"
            "values = {name: getattr(systemic, name) for name in systemic.__all__}\n"
            "modules = {name: importlib.import_module('systemic.' + name) for name in layers}\n"
            "wrong = []\n"
            "for name, value in values.items():\n"
            "    if name in layers:\n"
            "        ok = value is modules[name]\n"
            "    else:\n"
            "        home = ('measures' if name == 'ENTROPY_FORM_WARNING'\n"
            "                else value.__module__.removeprefix('systemic.'))\n"
            "        ok = (home in modules and value is getattr(modules[home], name)\n"
            "              and value is getattr(systemic, name))\n"
            "    if not ok:\n"
            "        wrong.append(name)\n"
            "print(json.dumps(wrong))")
        assert json.loads(output) == []

    def test_star_import_binds_every_name(self):
        output = _fresh_output(
            "import json\n"
            "from systemic import *\n"
            "import systemic\n"
            "print(json.dumps([name for name in systemic.__all__\n"
            "                  if globals().get(name) is not getattr(systemic, name)]))")
        assert json.loads(output) == []

    def test_dir_lists_every_name(self):
        output = _fresh_output("import json, systemic\nprint(json.dumps(dir(systemic)))")
        assert set(PACKAGE_NAMES) <= set(json.loads(output))

    def test_unknown_attribute_raises(self):
        output = _fresh_output(
            "import systemic\n"
            "try:\n"
            "    systemic.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
            "print(hasattr(systemic, 'GENERATOR_BITS'))")
        assert output.splitlines() == [
            "module 'systemic' has no attribute 'no_such_name'", "False"]

    def test_graph_pickles_after_package_import(self):
        output = _fresh_output(
            "import pickle, systemic\n"
            "graph = systemic.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.5)])\n"
            "copy = pickle.loads(pickle.dumps(graph))\n"
            "print(copy == graph, type(copy) is systemic.WeightedGraph, copy.edges)")
        assert output.strip() == "True True ((0, 1, 1.0), (1, 2, 2.5))"
