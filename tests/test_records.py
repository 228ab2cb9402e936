"""The record table of SolveReport and the one CSV and one JSON writer.
Every file the package writes must keep the bytes of the format expressions
its writers used before they shared write_csv and write_json; those
expressions, or the bytes themselves, are kept here."""

import math

import numpy as np
import pytest

from graphsplit import (BlockVector, ComposedBlock, DivergenceError,
                        GraphSpec, LinearMap, ProblemInstance, SingleValuedOp,
                        SolveOptions, eval_Gamma, residual_star, save_graph,
                        save_scheme, scheme_sequential, solve,
                        zero_resolvent)
from graphsplit import fusedlasso
from graphsplit.fusedlasso import (ExperimentConfig, build_family_scheme,
                                   gen_instance, objective, run_grid,
                                   save_instance, to_problem)
from graphsplit.scheme import dumps_json, write_csv
from graphsplit.solver import (RECORD_COLUMNS, export_report_csv,
                               export_state_json)

# the row formats of export_report_csv and of run_grid's curve writer
HISTORY_ROW = "%d,%.17g,%.17g,%s,%.17g"
CURVE_ROW = "%d,%.17g,%.17g"


def old_grid_line(row, columns):
    """A grid.csv row as run_grid's own loop formatted it."""
    return ",".join("%.17g" % row[c] if isinstance(row[c], float)
                    else str(row[c]) for c in columns)


def old_array_lines(arr):
    """The rows of an A.csv, b.csv or x_true.csv as save_instance's nested
    writer formatted them."""
    return [",".join("%.17g" % v for v in row) for row in np.atleast_2d(arr)]


def lines(path):
    with open(path) as fh:
        return fh.read().split("\n")


@pytest.fixture
def tiny():
    return gen_instance(4, n=2, m=10, d=8, k_nonzero=2, mu=0.4, nu=0.2)


def tiny_solve(inst, with_objective=True):
    scheme, _, lam_max = build_family_scheme("sequential", inst, 0.5, 0.1)
    opts = SolveOptions(max_iters=40, residual_tol=1e-30, record_every=3,
                        lambda_schedule=0.9 * lam_max)
    obj = (lambda x: objective(inst, x)) if with_objective else None
    return solve(scheme, to_problem(inst), opts=opts, objective=obj)


def test_history_rows_match_old_format(tiny, tmp_path):
    report = tiny_solve(tiny)
    assert [r[0] for r in report.records] == list(range(0, 40, 3)) + [40]
    export_report_csv(report, tmp_path / "history.csv")
    want = ["iter,residual,consensus_gap,objective,time_ms"] + [
        HISTORY_ROW % (t, res, gap, "%.17g" % obj, ms)
        for t, res, gap, obj, ms in report.records] + [""]
    assert ",".join(RECORD_COLUMNS) == want[0]
    assert lines(tmp_path / "history.csv") == want
    assert report.residual_history == [r[:2] for r in report.records]
    assert report.objective_history == [(r[0], r[3]) for r in report.records]
    assert report.time_history == [(r[0], r[4]) for r in report.records]


def test_no_objective_gives_empty_column(tiny, tmp_path):
    report = tiny_solve(tiny, with_objective=False)
    assert report.objective_history == []
    assert all(r[3] is None for r in report.records)
    export_report_csv(report, tmp_path / "history.csv")
    rows = lines(tmp_path / "history.csv")[1:-1]
    assert rows == [HISTORY_ROW % (t, res, gap, "", ms)
                    for t, res, gap, _, ms in report.records]
    assert all(row.split(",")[3] == "" for row in rows)


def test_curve_and_grid_rows_match_old_format(tiny, tmp_path, monkeypatch):
    reports, inner = [], fusedlasso.solve

    def solve_or_fail(*args, **kwargs):   # the third cell becomes an error row
        if len(reports) == 2:
            reports.append(None)
            raise ValueError("refused")
        reports.append(inner(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(fusedlasso, "solve", solve_or_fail)
    config = ExperimentConfig(
        gamma_hats=[0.5], eta_hats=[0.1], lambda_hats=[0.5, 0.9],
        scheme_families=["sequential", "star"], max_iters=200, tol=1e-8)
    rows = run_grid(tiny, config, out_dir=str(tmp_path))
    assert [r["status"] for r in rows][2] == "error: refused"
    assert lines(tmp_path / "grid.csv") == (
        [",".join(fusedlasso.GRID_COLUMNS)]
        + [old_grid_line(r, fusedlasso.GRID_COLUMNS) for r in rows] + [""])
    for row, report in zip(rows, reports):
        cell = (row["family"], row["gamma_hat"], row["eta_hat"],
                row["lambda_hat"])
        path = tmp_path / "curves" / fusedlasso._curve_name(*cell)
        if report is None:
            assert not path.exists()
            continue
        assert lines(path) == ["iter,residual,objective"] + [
            CURVE_ROW % (t, res, obj)
            for t, res, _, obj, _ in report.records] + [""]


def test_save_instance_rows_match_old_format(tiny, tmp_path):
    save_instance(tiny, str(tmp_path))
    for name, arr in (("A.csv", np.vstack(tiny.A_blocks)),
                      ("b.csv", np.concatenate(tiny.b_blocks).reshape(-1, 1)),
                      ("x_true.csv", tiny.x_true.reshape(-1, 1))):
        assert lines(tmp_path / name) == old_array_lines(arr) + [""]


def test_write_csv_field_rules(tmp_path):
    write_csv(tmp_path / "a.csv",
              [(3, 0.1, None, "s", np.float64(1 / 3), float("nan"), True)],
              header=list("abcdefg"))
    assert (tmp_path / "a.csv").read_text() == (
        "a,b,c,d,e,f,g\n3,0.10000000000000001,,s,0.33333333333333331,nan,"
        "True\n")
    write_csv(tmp_path / "b.csv", [(1.5,)])
    assert (tmp_path / "b.csv").read_text() == "1.5\n"


def test_json_files_keep_their_bytes(tiny, tmp_path):
    save_scheme(scheme_sequential(2, gamma=0.5, eta=0.25), tmp_path / "s.json")
    assert (tmp_path / "s.json").read_text() == (
        '{"D_diag": [1, 1], "E_diag": [0.25], "H": [[0], [1]], "K": [[1, 0]]'
        ', "M": [[1], [-1]], "N": [[0, 0], [2, 0]], "P": [[0], [1]], '
        '"Q": [[0], [0]], "R": [[1, 0]], "family": "sequential", '
        '"gamma": 0.5, "m": 1, "n": 2, "p": 1, "r": 1}\n')
    save_graph(GraphSpec(n=3, edges=[(1, 2, 2.0), (2, 3, 0.1), (1, 3, 1.0)],
                         subgraph_edges=[(1, 2, 1.0), (2, 3, 0.1)]),
               tmp_path / "g.json")
    assert (tmp_path / "g.json").read_text() == (
        '{"edges": [[1, 2, 2], [1, 3, 1], [2, 3, 0.10000000000000001]], '
        '"n": 3, "subgraph_edges": [[1, 2, 1], [2, 3, 0.10000000000000001]]}'
        '\n')
    save_instance(tiny, str(tmp_path))
    assert (tmp_path / "meta.json").read_text() == (
        '{"d": 8, "m": 10, "mu": [0.40000000000000002, 0.40000000000000002], '
        '"n": 2, "noise_var": 0.001, "nu": [0.20000000000000001, '
        '0.20000000000000001], "partition": [8, 2], "seed": 4}\n')
    # the state file as export_state_json formatted it before write_json
    report = tiny_solve(tiny)
    export_state_json(report, tmp_path / "state.json")
    assert (tmp_path / "state.json").read_text() == dumps_json({
        "x": list(np.asarray(report.final.x[0])),
        "s": [list(b) for b in report.dual_certificate.blocks]}) + "\n"


def test_divergence_records_end_at_last_finite_iterate():
    s = scheme_sequential(2, gamma=1.0, eta=1e-3)
    d = 2
    steep = SingleValuedOp(dim=d, apply=lambda x: 1e6 * x,
                           lipschitz=1e-6, cocoercive=True)
    pb = ProblemInstance(
        d=d, A_list=[zero_resolvent(d), zero_resolvent(d)],
        BL_list=[ComposedBlock(B=zero_resolvent(d),
                               L=LinearMap(np.eye(d)))],
        C_list=[steep],
    )
    with pytest.raises(DivergenceError) as info:
        solve(s, pb, z0=BlockVector([np.ones(d)]),
              opts=SolveOptions(max_iters=2000))
    report = info.value.report
    assert [r[0] for r in report.records] == list(range(report.iters_run + 1))
    assert all(r[3] is None and math.isfinite(r[4]) for r in report.records)
    # the last record belongs to the final iterate, the last finite one; its
    # residual may overflow, so NaN counts as equal to NaN
    final = report.final
    assert final.z.isfinite() and final.w.isfinite()
    gz, gw, _, _ = eval_Gamma(s, pb, final.z, final.w)
    np.testing.assert_equal(report.records[-1][1],
                            residual_star(s, gz, gw, report.lambda_used))
