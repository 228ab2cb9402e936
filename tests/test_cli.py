"""Command-line interface: exit codes, file outputs, and option parsing."""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import (ComposedBlock, LinearMap, ProblemInstance,
                        SolveOptions, fusedlasso, solve, zero_resolvent)
from graphsplit.cli import main
from graphsplit.fusedlasso import (ExperimentConfig, gen_instance,
                                   load_instance, run_cell, save_instance,
                                   to_problem)
from graphsplit.graphs import (GraphSpec, path_graph, save_graph,
                               scheme_complete, scheme_from_graph,
                               scheme_ring, scheme_sequential, scheme_star)
from graphsplit.operators import SingleValuedOp
from graphsplit.scheme import (check_explicit, load_scheme, save_scheme,
                               validate_standing)
from graphsplit.solver import check_scheme

from test_graphs import random_tree_graph


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

    def test_graph_generation_with_cycles(self, runner, tmp_path):
        gpath = tmp_path / "g.json"
        save_graph(GraphSpec(n=4, edges=[(1, 2, 1.0), (1, 3, 2.0),
                                         (2, 3, 0.5), (3, 4, 1.5),
                                         (2, 4, 1.0)]), gpath)
        out = tmp_path / "scheme.json"
        res = runner.invoke(main, ["gen-scheme", "--graph", str(gpath),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        s = load_scheme(out)
        assert validate_standing(s, has_B=True, has_C=True).all_pass
        assert check_explicit(s)

    @pytest.mark.parametrize("graph", [
        path_graph(3),
        GraphSpec(n=4, edges=[(1, 2, 1.0), (1, 3, 2.0), (2, 3, 0.5),
                              (3, 4, 1.5), (2, 4, 1.0)])],
        ids=["path3", "cycles4"])
    def test_graph_without_subgraph_validates(self, runner, tmp_path, graph):
        # the whole graph as its own subgraph gets kappa = 1, so the
        # default gamma = eta = 1 sits on the exact A320 bound
        gpath, out = tmp_path / "g.json", tmp_path / "scheme.json"
        save_graph(graph, gpath)
        res = runner.invoke(main, ["gen-scheme", "--graph", str(gpath),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["validate", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["psd"]["A320"]

    def test_missing_arguments(self, runner, tmp_path):
        res = runner.invoke(main, ["gen-scheme", "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code == 2

    def test_unreadable_graph(self, runner, tmp_path):
        res = runner.invoke(main, ["gen-scheme", "--graph",
                                   str(tmp_path / "nope.json"),
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 2

    def test_construction_failure_exits_1(self, runner, tmp_path):
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["gen-scheme", "--family", "ring",
                                   "--n", "1", "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr.startswith("scheme construction failed: n = 1")
        assert not out.exists()


# scheme -> (exit codes at PSD levels 0, 1, 2; stdout at level 0, and at
# levels 1 and 2, which print the same): the keys, their order and the float
# formatting are all pinned
VALIDATE_STDOUT = {
    "sequential4": (lambda: scheme_sequential(4), (0, 0, 1), (
        '{"eta_max": 1, "explicit": true, "gamma_max": 1.9999999999999991, '
        '"lambda_max": 0.49999999999999978, "regime": "cocoercive", '
        '"standing": {"all_pass": true, "h_rows": true, "kernel": true, '
        '"pr_rows": true, "trace": true}, "tau": 1.0000000000000004}',
        '{"eta_max": 1, "explicit": true, "gamma_max": 1.9999999999999991, '
        '"lambda_max": 0.49999999999999978, "psd": {"A320": true, "A321": '
        'false, "A322": false}, "regime": "cocoercive", "standing": '
        '{"all_pass": true, "h_rows": true, "kernel": true, "pr_rows": true, '
        '"trace": true}, "tau": 1.0000000000000004}')),
    "complete5": (lambda: scheme_complete(5), (0, 0, 1), (
        '{"eta_max": 1, "explicit": true, "gamma_max": 4.9999999999999982, '
        '"lambda_max": 0.79999999999999993, "regime": "cocoercive", '
        '"standing": {"all_pass": true, "h_rows": true, "kernel": true, '
        '"pr_rows": true, "trace": true}, "tau": 0.40000000000000013}',
        '{"eta_max": 1, "explicit": true, "gamma_max": 4.9999999999999982, '
        '"lambda_max": 0.79999999999999993, "psd": {"A320": true, "A321": '
        'false, "A322": false}, "regime": "cocoercive", "standing": '
        '{"all_pass": true, "h_rows": true, "kernel": true, "pr_rows": true, '
        '"trace": true}, "tau": 0.40000000000000013}')),
    "ring4": (lambda: scheme_ring(4), (1, 1, 1), (
        '{"explicit": true, "gamma_in_range": false, "gamma_max": '
        '0.66666666666666674, "regime": "cocoercive", "standing": '
        '{"all_pass": true, "h_rows": true, "kernel": true, "pr_rows": true, '
        '"trace": true}, "tau": 2.9999999999999996}',
        '{"explicit": true, "gamma_in_range": false, "gamma_max": '
        '0.66666666666666674, "psd": {"A320": true, "A321": false, "A322": '
        'false}, "regime": "cocoercive", "standing": {"all_pass": true, '
        '"h_rows": true, "kernel": true, "pr_rows": true, "trace": true}, '
        '"tau": 2.9999999999999996}')),
    "ring_lipschitz4": (lambda: scheme_ring(4, regime="lipschitz"),
                        (1, 1, 1), (
        '{"explicit": true, "gamma_in_range": false, "gamma_max": '
        '0.33333333333333326, "regime": "lipschitz", "standing": '
        '{"all_pass": true, "h_rows": true, "kernel": true, "pr_rows": true, '
        '"q_rows": true, "trace": true}, "tau": 3.0000000000000009}',
        '{"explicit": true, "gamma_in_range": false, "gamma_max": '
        '0.33333333333333326, "psd": {"A320": true, "A321": false, "A322": '
        'false}, "regime": "lipschitz", "standing": {"all_pass": true, '
        '"h_rows": true, "kernel": true, "pr_rows": true, "q_rows": true, '
        '"trace": true}, "tau": 3.0000000000000009}')),
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

    def test_bounds_error_printed(self, runner, tmp_path):
        # with R = 0, U M^T = P^T - R has no solution, so there are no bounds
        s = scheme_sequential(3)
        path = tmp_path / "scheme.json"
        save_scheme(s.replace(R=np.zeros_like(s.R)), path)
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 1
        report = json.loads(res.stdout)
        assert report["bounds_error"].startswith(
            "U M^T = P^T - R is inconsistent")
        assert "tau" not in report and "lambda_max" not in report

    def test_wrong_ell_count(self, runner, tmp_path):
        path = self._scheme_file(runner, tmp_path)
        res = runner.invoke(main, ["validate", str(path), "--ell", "1.0"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args,unbounded", [
        (["--l-norm", "0"], "eta_max"), (["--ell", "0,0"], "gamma_max")],
        ids=["l_norm_zero", "ell_zero"])
    def test_unbounded_range_prints_null(self, runner, tmp_path, args,
                                         unbounded):
        # solve accepts the scheme on this model, so validate passes it
        path = tmp_path / "scheme.json"
        save_scheme(scheme_sequential(3), path)
        res = runner.invoke(main, ["validate", str(path), *args])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report[unbounded] is None
        assert report["lambda_max"] > 0

    def test_implicit_scheme_fails_at_every_level(self, runner, tmp_path):
        # N transposed keeps the standing checks and the bounds, but x_i
        # would need later blocks, so solve refuses it
        s = scheme_sequential(4, gamma=0.5, eta=0.1)
        path = tmp_path / "scheme.json"
        save_scheme(s.replace(N=s.N.T), path)
        for level in (0, 1, 2):
            res = runner.invoke(main, ["validate", str(path),
                                       "--psd-level", str(level)])
            assert res.exit_code == 1, level
            report = json.loads(res.output)
            assert report["explicit"] is False
            assert report["standing"]["all_pass"] and "lambda_max" in report

    @pytest.mark.parametrize("make, n", [(scheme_sequential, 4),
                                         (scheme_star, 4),
                                         (scheme_complete, 5)])
    def test_psd_level_two_asks_a322_when_cocoercive(self, runner, tmp_path,
                                                     make, n):
        # A321 cannot hold with Q = 0 and ell > 0; A322 does at half bounds
        base = make(n)
        ell = [0.5] * base.p
        _, _, bounds = check_scheme(base, ell, [1.0] * base.r,
                                    all_cocoercive=True)
        gamma = 0.5 * bounds.gamma_max
        path = tmp_path / "scheme.json"
        save_scheme(make(n, gamma=gamma, eta=0.5 * bounds.eta_max(gamma)),
                    path)
        res = runner.invoke(main, ["validate", str(path), "--psd-level", "2",
                                   "--ell", ",".join(map(str, ell))])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["regime"] == "cocoercive"
        assert report["psd"] == {"A320": True, "A321": False, "A322": True}

    def test_psd_level_two_asks_a321_when_lipschitz(self, runner, tmp_path):
        # the Lipschitz ring meets A320 at half bounds, but not A321
        base = scheme_ring(4, regime="lipschitz")
        _, _, bounds = check_scheme(base, [1.0], [1.0], all_cocoercive=True)
        gamma = 0.5 * bounds.gamma_max
        path = tmp_path / "scheme.json"
        eta = 0.5 * bounds.eta_max(gamma)
        save_scheme(scheme_ring(4, gamma, eta, regime="lipschitz"), path)
        codes = [runner.invoke(main, ["validate", str(path), "--psd-level",
                                      str(level)]).exit_code
                 for level in (1, 2)]
        assert codes == [0, 1]

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


AGREE_FAMILIES = {
    "sequential": lambda n, gamma, eta, rng: scheme_sequential(n, gamma, eta),
    "star": lambda n, gamma, eta, rng: scheme_star(n, gamma, eta),
    "complete": lambda n, gamma, eta, rng: scheme_complete(n, gamma, eta),
    "ring": lambda n, gamma, eta, rng: scheme_ring(n, gamma, eta),
    "ring_lipschitz": lambda n, gamma, eta, rng: scheme_ring(
        n, gamma, eta, regime="lipschitz"),
    "graph": lambda n, gamma, eta, rng: scheme_from_graph(
        random_tree_graph(rng, n, int(rng.integers(0, 4))), gamma, eta,
        kappa=1.0),
}


def _scalar_problem(s, ell, l_norm):
    """The scalar PSD model of validate as a problem on R^1: zero
    resolvents, L_k = [l_norm] and cocoercive C_j x = ell_j x."""
    block = ComposedBlock(B=zero_resolvent(1), L=LinearMap([[l_norm]]))
    C_list = [SingleValuedOp(dim=1, apply=lambda x, c=c: c * x, lipschitz=c,
                             cocoercive=True) for c in ell]
    return ProblemInstance(d=1, A_list=[zero_resolvent(1)] * s.n,
                           BL_list=[block] * s.r, C_list=C_list)


@pytest.mark.parametrize("family", sorted(AGREE_FAMILIES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 6),
       gamma=st.floats(0.05, 2.0), eta=st.floats(0.05, 2.0),
       l_norm=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
       zero_ell=st.sampled_from(["none", "some", "all"]),
       mutation=st.sampled_from(["none", "transpose_N", "tamper_N",
                                 "gamma_past_max"]),
       seed=st.integers(0, 2**32 - 1))
def test_validate_agrees_with_solve(family, n, gamma, eta, l_norm, zero_ell,
                                    mutation, seed):
    # validate --psd-level 0 passes exactly the schemes that solve accepts,
    # unbounded ranges (l_norm = 0, every ell_j = 0) included
    rng = np.random.default_rng(seed)
    s = AGREE_FAMILIES[family](n, gamma, eta, rng)
    zero = {"none": 0.0, "some": 0.5, "all": 1.0}[zero_ell]
    ell = [0.0 if rng.random() < zero else float(rng.uniform(0.0, 2.0))
           for _ in range(s.p)]
    if mutation == "transpose_N":
        s = s.replace(N=s.N.T)
    elif mutation == "tamper_N":
        N = s.N.copy()
        N[1, 0] += 0.25
        s = s.replace(N=N)
    elif mutation == "gamma_past_max":
        _, _, bounds = check_scheme(s, ell, [l_norm] * s.r, True)
        if np.isfinite(bounds.gamma_max):
            s = s.replace(gamma=1.5 * bounds.gamma_max)
    try:
        solve(s, _scalar_problem(s, ell, l_norm),
              opts=SolveOptions(max_iters=0))
        code = 0
    except ValueError:
        code = 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        save_scheme(s, path)
        res = CliRunner().invoke(main, [
            "validate", path, "--psd-level", "0", "--l-norm", repr(l_norm),
            "--ell", ",".join(map(repr, ell))])
    assert res.exit_code == code, res.output


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

    def test_divergence_reported_without_traceback(self, runner,
                                                   instance_dir, diverging):
        res = runner.invoke(main, ["solve", str(instance_dir)])
        assert res.exit_code == 1
        assert res.stderr == "solve failed: diverged\n"
        assert res.stdout == ""
        assert isinstance(res.exception, SystemExit)

    def test_diverged_solve_keeps_its_history(self, runner, instance_dir,
                                              diverging, tmp_path):
        out = tmp_path / "run"
        res = runner.invoke(main, ["solve", str(instance_dir),
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr == "solve failed: diverged\n"
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,residual,consensus_gap,objective,time_ms"
        assert lines[-1].startswith("433,inf,")
        assert [int(line.split(",")[0]) for line in lines[1:]] == \
            list(range(0, 433, 10)) + [433]
        # the final x may be non-finite, which state.json cannot hold
        assert not (out / "state.json").exists()

    @pytest.mark.parametrize("family", ["sequential", "complete"])
    def test_summary_is_the_grid_cell_row(self, runner, instance_dir,
                                          family):
        res = runner.invoke(main, ["solve", str(instance_dir), "--family",
                                   family, "--tol", "1e-8"])
        assert res.exit_code == 0, res.output
        inst = load_instance(str(instance_dir))
        row, report = run_cell(
            inst, to_problem(inst), (family, 0.5, 0.1, 0.9),
            ExperimentConfig(max_iters=20_000, tol=1e-8))
        assert json.loads(res.stdout) == {
            "converged": report.converged, "iters": row["iters_to_tol"],
            "final_residual": row["final_residual"],
            "final_objective": row["final_objective"], "tau": row["tau"]}


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

    def test_parity_failure_exits_1(self, runner, tmp_path, monkeypatch):
        reference = fusedlasso.reference_solve

        def shifted(inst, **kwargs):
            x, f = reference(inst, **kwargs)
            return x, f + 1.0

        monkeypatch.setattr(fusedlasso, "reference_solve", shifted)
        res = runner.invoke(main, [
            "benchmark", "--seed", "2", "--n", "2", "--m", "14", "--d", "16",
            "--mu", "0.5", "--nu", "0.3", "--families", "sequential",
            "--tol", "1e-10", "--out", str(tmp_path / "bench")])
        assert res.exit_code == 1
        assert res.stderr.startswith("parity failure: sequential objective "
                                     "off by ")
        assert "reference objective" in res.stdout


@pytest.mark.parametrize("args,message", [
    (["solve", "{inst}", "--gamma-hat", "1.5"], "scaling factors"),
    (["solve", "{inst}", "--lambda-hat", "2"], "scaling factors"),
    (["solve", "{inst}", "--eta-hat", "0"], "scaling factors"),
    (["solve", "{inst}", "--max-iters", "-1"], "max_iters"),
    (["benchmark", "--n", "9", "--m", "6", "--out", "{out}"],
     "infeasible sizes"),
    (["benchmark", "--max-iters", "-1", "--out", "{out}"], "max_iters"),
    (["benchmark", "--gamma-hat", "abc", "--out", "{out}"],
     "Invalid value for '--gamma-hat'"),
    (["validate", "{scheme}", "--ell", "x,1,1"],
     "Invalid value for '--ell'"),
    (["benchmark", "--families", "", "--out", "{out}"],
     "scheme_families is empty"),
    (["benchmark", "--lambda-hat", "", "--out", "{out}"],
     "lambda_hats is empty"),
    (["benchmark", "--n", "2", "--m", "10", "--d", "12", "--nu", "-0.5",
      "--out", "{out}"], "bad instance: nu[0] = -0.5 is not a finite"),
    (["benchmark", "--n", "2", "--m", "10", "--d", "12", "--mu", "nan",
      "--out", "{out}"], "bad instance: mu[0] = nan is not a finite"),
    (["solve", "{tmp}/negative_mu"],
     "cannot read instance: mu[0] = -1.0 is not a finite"),
    (["solve", "{inst}", "--tol", "nan", "--max-iters", "50"], "tol = nan"),
    (["solve", "{inst}", "--tol", "-1", "--max-iters", "50"], "tol = -1.0"),
    (["benchmark", "--n", "2", "--m", "10", "--d", "12", "--tol", "nan",
      "--max-iters", "50", "--out", "{out}"], "tol = nan"),
    (["validate", "{tmp}/list.json"], "cannot read scheme"),
    (["validate", "{scheme}", "--l-norm", "nan"], "--l-norm = nan is not"),
    (["validate", "{scheme}", "--l-norm", "inf"], "--l-norm = inf is not"),
    (["validate", "{scheme}", "--l-norm", "-1"], "--l-norm = -1.0 is not"),
    (["validate", "{scheme}", "--ell", "nan,1"], "--ell = nan is not"),
    (["validate", "{scheme}", "--ell", "inf,1"], "--ell = inf is not"),
    (["validate", "{tmp}/string.json"], "must hold a JSON object, not str"),
    (["validate", "{tmp}/number.json"], "must hold a JSON object, not int"),
    (["validate", "{tmp}/null.json"], "must hold a JSON object"),
    (["solve", "{tmp}/meta_list"],
     "cannot read instance: meta.json must hold a JSON object, not list"),
    (["solve", "{tmp}/mu_number"],
     "cannot read instance: meta.json's mu = 3 is not a list of float"),
    (["solve", "{tmp}/partition_number"],
     "cannot read instance: meta.json's partition = 3 is not a list of int"),
    (["solve", "{tmp}/seed_list"],
     "cannot read instance: meta.json's seed = [1] is not of type int"),
    (["gen-scheme", "--graph", "{tmp}/huge_n.json", "--out", "{out}"],
     "malformed graph data: graph is disconnected"),
    # json would read true as 1, 7 as the family "7" and "14" as m = 14
    (["validate", "{tmp}/bool_gamma.json"],
     "cannot read scheme: malformed scheme data: gamma holds True"),
    (["validate", "{tmp}/number_family.json"],
     "cannot read scheme: malformed scheme data: family holds 7"),
    (["gen-scheme", "--graph", "{tmp}/bool_weight.json", "--out", "{out}"],
     "cannot read graph: malformed graph data: edge [1, 2, True] holds"),
    (["solve", "{tmp}/m_string"],
     "cannot read instance: meta.json's m = '14' is not of type int"),
    (["solve", "{tmp}/n_bool"],
     "cannot read instance: meta.json's n = True is not of type int"),
], ids=["solve_gamma_hat", "solve_lambda_hat", "solve_eta_hat",
        "solve_max_iters", "benchmark_sizes", "benchmark_max_iters",
        "benchmark_gamma_hat_not_a_number", "validate_ell_not_a_number",
        "benchmark_no_families", "benchmark_no_lambda_hats",
        "benchmark_negative_nu", "benchmark_nan_mu", "solve_negative_mu",
        "solve_tol_nan", "solve_tol_negative", "benchmark_tol_nan",
        "validate_scheme_list", "validate_l_norm_nan", "validate_l_norm_inf",
        "validate_l_norm_negative", "validate_ell_nan", "validate_ell_inf",
        "validate_scheme_string",
        "validate_scheme_number", "validate_scheme_null",
        "solve_meta_not_an_object", "solve_meta_mu_number",
        "solve_meta_partition_number", "solve_meta_seed_list",
        "gen_scheme_graph_n_beyond_its_edges", "validate_scheme_bool_gamma",
        "validate_scheme_number_family", "gen_scheme_graph_bool_weight",
        "solve_meta_m_string", "solve_meta_n_bool"])
def test_input_errors_exit_2(runner, instance_dir, tmp_path, args, message):
    save_scheme(scheme_sequential(3), tmp_path / "s.json")
    scheme = json.loads((tmp_path / "s.json").read_text())
    # JSON files that are not objects, a graph whose edges cannot connect
    # its n, files with values of the wrong JSON kind, and instances with a
    # bad meta.json
    for name, text in (("list", "[1, 2]"), ("string", '"x"'),
                       ("number", "3"), ("null", "null"),
                       ("huge_n", '{"n": 1e300, "edges": [[1, 2, 1.0]]}'),
                       ("bool_gamma", json.dumps({**scheme, "gamma": True})),
                       ("number_family", json.dumps({**scheme, "family": 7})),
                       ("bool_weight", '{"n": 3, "edges": [[1, 2, true], '
                                       '[2, 3, 1.0]]}')):
        (tmp_path / f"{name}.json").write_text(text)
    meta = json.loads((instance_dir / "meta.json").read_text())
    for name, bad in (("negative_mu", {**meta, "mu": [-1.0, 0.5]}),
                      ("meta_list", [1]), ("mu_number", {**meta, "mu": 3}),
                      ("partition_number", {**meta, "partition": 3}),
                      ("seed_list", {**meta, "seed": [1]}),
                      ("m_string", {**meta, "m": "14"}),
                      ("n_bool", {**meta, "n": True})):
        shutil.copytree(instance_dir, tmp_path / name)
        (tmp_path / name / "meta.json").write_text(json.dumps(bad))
    args = [a.format(inst=instance_dir, out=tmp_path / "b", tmp=tmp_path,
                     scheme=tmp_path / "s.json") for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert message in res.stderr

