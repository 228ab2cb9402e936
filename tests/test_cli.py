"""Command-line interface: exit codes, file outputs, and option parsing."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from graphsplit.cli import main
from graphsplit.fusedlasso import gen_instance, save_instance
from graphsplit.graphs import (path_graph, save_graph, scheme_complete,
                               scheme_ring, scheme_sequential)
from graphsplit.scheme import load_scheme, save_scheme


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def instance_dir(tmp_path):
    inst = gen_instance(2, n=2, m=14, d=16, k_nonzero=3, mu=0.5, nu=0.3)
    d = tmp_path / "inst"
    save_instance(inst, str(d))
    return d


class TestGenScheme:
    def test_family_generation(self, runner, tmp_path):
        out = tmp_path / "seq.json"
        res = runner.invoke(main, ["gen-scheme", "--family", "sequential",
                                   "--n", "4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        s = load_scheme(out)
        assert s.n == 4 and s.family == "sequential"

    def test_graph_generation(self, runner, tmp_path):
        gpath = tmp_path / "g.json"
        save_graph(path_graph(3), gpath)
        out = tmp_path / "scheme.json"
        res = runner.invoke(main, ["gen-scheme", "--graph", str(gpath),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert load_scheme(out).n == 3

    def test_missing_arguments(self, runner, tmp_path):
        res = runner.invoke(main, ["gen-scheme", "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code == 2

    def test_unreadable_graph(self, runner, tmp_path):
        res = runner.invoke(main, ["gen-scheme", "--graph",
                                   str(tmp_path / "nope.json"),
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2


# scheme -> (exit codes at PSD levels 0, 1, 2; stdout at level 0, and at
# levels 1 and 2, which print the same): the keys, their order and the float
# formatting are all pinned
VALIDATE_STDOUT = {
    "sequential4": (lambda: scheme_sequential(4), (0, 0, 1), (
        '{"eta_max": 1, "gamma_max": 1.9999999999999991, "lambda_max": '
        '0.49999999999999978, "regime": "cocoercive", "standing": '
        '{"all_pass": true, "h_rows": true, "kernel": true, "pr_rows": true, '
        '"trace": true}, "tau": 1.0000000000000004}',
        '{"eta_max": 1, "gamma_max": 1.9999999999999991, "lambda_max": '
        '0.49999999999999978, "psd": {"A320": true, "A321": false, "A322": '
        'false}, "regime": "cocoercive", "standing": {"all_pass": true, '
        '"h_rows": true, "kernel": true, "pr_rows": true, "trace": true}, '
        '"tau": 1.0000000000000004}')),
    "complete5": (lambda: scheme_complete(5), (0, 0, 1), (
        '{"eta_max": 1, "gamma_max": 4.9999999999999982, "lambda_max": '
        '0.79999999999999993, "regime": "cocoercive", "standing": '
        '{"all_pass": true, "h_rows": true, "kernel": true, "pr_rows": true, '
        '"trace": true}, "tau": 0.40000000000000013}',
        '{"eta_max": 1, "gamma_max": 4.9999999999999982, "lambda_max": '
        '0.79999999999999993, "psd": {"A320": true, "A321": false, "A322": '
        'false}, "regime": "cocoercive", "standing": {"all_pass": true, '
        '"h_rows": true, "kernel": true, "pr_rows": true, "trace": true}, '
        '"tau": 0.40000000000000013}')),
    "ring4": (lambda: scheme_ring(4), (1, 1, 1), (
        '{"gamma_in_range": false, "gamma_max": 0.66666666666666674, '
        '"regime": "cocoercive", "standing": {"all_pass": true, "h_rows": '
        'true, "kernel": true, "pr_rows": true, "trace": true}, "tau": '
        '2.9999999999999996}',
        '{"gamma_in_range": false, "gamma_max": 0.66666666666666674, "psd": '
        '{"A320": true, "A321": false, "A322": false}, "regime": '
        '"cocoercive", "standing": {"all_pass": true, "h_rows": true, '
        '"kernel": true, "pr_rows": true, "trace": true}, "tau": '
        '2.9999999999999996}')),
    "ring_lipschitz4": (lambda: scheme_ring(4, regime="lipschitz"),
                        (1, 1, 1), (
        '{"gamma_in_range": false, "gamma_max": 0.33333333333333326, '
        '"regime": "lipschitz", "standing": {"all_pass": true, "h_rows": '
        'true, "kernel": true, "pr_rows": true, "q_rows": true, "trace": '
        'true}, "tau": 3.0000000000000009}',
        '{"gamma_in_range": false, "gamma_max": 0.33333333333333326, "psd": '
        '{"A320": true, "A321": false, "A322": false}, "regime": '
        '"lipschitz", "standing": {"all_pass": true, "h_rows": true, '
        '"kernel": true, "pr_rows": true, "q_rows": true, "trace": true}, '
        '"tau": 3.0000000000000009}')),
}


class TestValidate:
    def _scheme_file(self, runner, tmp_path, family="sequential", n="4"):
        out = tmp_path / "scheme.json"
        res = runner.invoke(main, ["gen-scheme", "--family", family,
                                   "--n", n, "--out", str(out)])
        assert res.exit_code == 0
        return out

    def test_valid_scheme_passes(self, runner, tmp_path):
        path = self._scheme_file(runner, tmp_path)
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["standing"]["all_pass"]
        assert report["psd"]["A320"]

    def test_psd_level_two(self, runner, tmp_path):
        path = self._scheme_file(runner, tmp_path)
        res = runner.invoke(main, ["validate", str(path),
                                   "--psd-level", "2", "--ell",
                                   "0.5,0.5,0.5"])
        report = json.loads(res.output)
        assert set(report["psd"]) == {"A320", "A321", "A322"}

    def test_tampered_scheme_fails(self, runner, tmp_path):
        path = self._scheme_file(runner, tmp_path)
        data = json.loads(path.read_text())
        data["N"][1][0] = 0.25   # breaks the mass-balance condition
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 1
        assert not json.loads(res.output)["standing"]["trace"]

    def test_missing_file(self, runner, tmp_path):
        res = runner.invoke(main, ["validate", str(tmp_path / "nope.json")])
        assert res.exit_code == 2

    def test_wrong_ell_count(self, runner, tmp_path):
        path = self._scheme_file(runner, tmp_path)
        res = runner.invoke(main, ["validate", str(path), "--ell", "1.0"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("name", sorted(VALIDATE_STDOUT))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_stdout_pinned(self, runner, tmp_path, name, level):
        make, codes, lines = VALIDATE_STDOUT[name]
        path = tmp_path / "scheme.json"
        save_scheme(make(), path)
        res = runner.invoke(main, ["validate", str(path),
                                   "--psd-level", str(level)])
        assert res.exit_code == codes[level]
        assert res.output == lines[min(level, 1)] + "\n"


class TestSolve:
    def test_solve_converges_and_writes(self, runner, instance_dir, tmp_path):
        out = tmp_path / "run"
        res = runner.invoke(main, ["solve", str(instance_dir),
                                   "--family", "sequential",
                                   "--tol", "1e-8",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output.splitlines()[-1])
        assert summary["converged"]
        assert (out / "history.csv").exists()
        assert (out / "state.json").exists()

    def test_unconverged_exit_code(self, runner, instance_dir):
        res = runner.invoke(main, ["solve", str(instance_dir),
                                   "--tol", "1e-14", "--max-iters", "5"])
        assert res.exit_code == 1

    def test_missing_instance(self, runner, tmp_path):
        res = runner.invoke(main, ["solve", str(tmp_path / "nope")])
        assert res.exit_code == 2


class TestBenchmark:
    def test_tiny_grid_with_parity(self, runner, tmp_path):
        out = tmp_path / "bench"
        res = runner.invoke(main, [
            "benchmark", "--seed", "2", "--n", "2", "--m", "14", "--d", "16",
            "--mu", "0.5", "--nu", "0.3", "--families", "sequential,star",
            "--gamma-hat", "0.5", "--eta-hat", "0.1", "--lambda-hat", "0.9",
            "--tol", "1e-10", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "reference objective" in res.output
        assert (out / "grid.csv").exists()
        assert len(os.listdir(out / "curves")) == 2

    def test_bad_configuration(self, runner, tmp_path):
        res = runner.invoke(main, [
            "benchmark", "--gamma-hat", "1.5",
            "--out", str(tmp_path / "b")])
        assert res.exit_code == 2


@pytest.mark.parametrize("args,message", [
    (["solve", "{inst}", "--gamma-hat", "1.5"], "scaling factors"),
    (["solve", "{inst}", "--lambda-hat", "2"], "scaling factors"),
    (["solve", "{inst}", "--eta-hat", "0"], "scaling factors"),
    (["solve", "{inst}", "--max-iters", "-1"], "max_iters"),
    (["benchmark", "--n", "9", "--m", "6", "--out", "{out}"],
     "infeasible sizes"),
    (["benchmark", "--max-iters", "-1", "--out", "{out}"], "max_iters"),
], ids=["solve_gamma_hat", "solve_lambda_hat", "solve_eta_hat",
        "solve_max_iters", "benchmark_sizes", "benchmark_max_iters"])
def test_input_errors_exit_2(runner, instance_dir, tmp_path, args, message):
    args = [a.format(inst=instance_dir, out=tmp_path / "b") for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.stderr
