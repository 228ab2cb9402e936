"""The record table of SolveReport and the one CSV and one JSON writer.
The bytes of every file the package writes are pinned here, as format
expressions or as the bytes themselves: each float as Python's shortest
text that reads back as the same float (repr), and a CSV field that holds a
comma quoted."""

import csv
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from graphsplit import (BlockVector, ComposedBlock, GraphSpec, LinearMap,
                        ProblemInstance, SingleValuedOp, SolveOptions,
                        eval_Gamma, load_graph, load_scheme, residual_star,
                        save_graph, save_scheme, scheme_sequential, solve,
                        zero_resolvent)
from graphsplit import fusedlasso
from graphsplit.fusedlasso import (ExperimentConfig, FusedLassoInstance,
                                   build_family_scheme, gen_instance,
                                   load_instance, objective, run_grid,
                                   save_instance, to_problem)
from graphsplit.scheme import dumps_json, write_csv
from graphsplit.solver import (RECORD_COLUMNS, export_report_csv,
                               export_state_json)

# the row formats of export_report_csv and of run_grid's curve writer
HISTORY_ROW = "%d,%r,%r,%s,%r"
CURVE_ROW = "%d,%r,%r"


def grid_field(v):
    """A grid.csv field: a float as its repr, and text that holds a comma
    or a quote inside quotes, with its quotes doubled."""
    text = repr(v) if isinstance(v, float) else str(v)
    if "," in text or '"' in text:
        return '"%s"' % text.replace('"', '""')
    return text


def grid_line(row, columns):
    return ",".join(grid_field(row[c]) for c in columns)


def array_lines(arr):
    """The rows of an A.csv, b.csv or x_true.csv."""
    return [",".join(map(repr, row)) for row in np.atleast_2d(arr).tolist()]


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
        HISTORY_ROW % (t, res, gap, repr(obj), ms)
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
        + [grid_line(r, fusedlasso.GRID_COLUMNS) for r in rows] + [""])
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


def assert_grid_reads_back(path, rows):
    """grid.csv, read back through csv.DictReader, gives ``rows``: one line
    each, and no extra key."""
    with open(path, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert len(read) == len(rows)
    for got, row in zip(read, rows):
        assert list(got) == fusedlasso.GRID_COLUMNS
        for c in fusedlasso.GRID_COLUMNS:
            want = row[c]
            if isinstance(want, float):
                np.testing.assert_equal(float(got[c]), want)   # NaN == NaN
            else:
                assert got[c] == str(want)


def test_grid_keeps_one_row_per_cell_when_a_status_holds_a_comma(tmp_path):
    # with every A_i zero, tau = 0 and gamma = gamma_hat * inf, so every
    # cell is an error row whose status holds a comma
    d = 6
    inst = FusedLassoInstance(
        A_blocks=[np.zeros((3, d)), np.zeros((2, d))],
        b_blocks=[np.ones(3), np.ones(2)], mu=[0.4, 0.4], nu=[0.2, 0.2],
        seed=0, x_true=np.zeros(d))
    config = ExperimentConfig(lambda_hats=[0.5, 0.9],
                              scheme_families=["sequential", "star"])
    rows = run_grid(inst, config, out_dir=str(tmp_path))
    assert len(rows) == 4 and all(
        r["status"] == "error: gamma = inf outside (0, inf) for the "
        "cocoercive regime" for r in rows)
    assert_grid_reads_back(tmp_path / "grid.csv", rows)


def test_error_status_with_a_carriage_return_stays_one_row(
        tiny, tmp_path, monkeypatch):
    # csv.writer leaves a field holding \r unquoted on Python 3.10 and 3.11,
    # and csv.reader ends the row there
    def refuse(*args):
        raise ValueError("bad\rvalue")

    monkeypatch.setattr(fusedlasso, "build_family_scheme", refuse)
    config = ExperimentConfig(lambda_hats=[0.5, 0.9],
                              scheme_families=["sequential"])
    rows = run_grid(tiny, config, out_dir=str(tmp_path))
    assert [r["status"] for r in rows] == ["error: bad value"] * 2
    assert_grid_reads_back(tmp_path / "grid.csv", rows)


def test_save_instance_rows_match_old_format(tiny, tmp_path):
    # whatever numpy's print options: its legacy printing gives
    # str(np.float64(1/3)) 12 digits
    with np.printoptions(legacy="1.13"):
        save_instance(tiny, str(tmp_path))
    for name, arr in (("A.csv", np.vstack(tiny.A_blocks)),
                      ("b.csv", np.concatenate(tiny.b_blocks).reshape(-1, 1)),
                      ("x_true.csv", tiny.x_true.reshape(-1, 1))):
        assert lines(tmp_path / name) == array_lines(arr) + [""]


def test_write_csv_field_rules(tmp_path):
    write_csv(tmp_path / "a.csv",
              [(3, 0.1, None, "s", np.float64(1 / 3), float("nan"), True,
                1.0, -0.0, 'a "b", c')],
              header=list("abcdefghij"))
    assert (tmp_path / "a.csv").read_text() == (
        'a,b,c,d,e,f,g,h,i,j\n3,0.1,,s,0.3333333333333333,nan,True,1.0,-0.0,'
        '"a ""b"", c"\n')
    write_csv(tmp_path / "b.csv", [(1.5,)])
    assert (tmp_path / "b.csv").read_text() == "1.5\n"


def test_json_files_keep_their_bytes(tiny, tmp_path):
    save_scheme(scheme_sequential(2, gamma=0.5, eta=0.25), tmp_path / "s.json")
    assert (tmp_path / "s.json").read_text() == (
        '{"D_diag": [1.0, 1.0], "E_diag": [0.25], "H": [[0.0], [1.0]], '
        '"K": [[1.0, 0.0]], "M": [[1.0], [-1.0]], "N": [[0.0, 0.0], '
        '[2.0, 0.0]], "P": [[0.0], [1.0]], "Q": [[0.0], [0.0]], '
        '"R": [[1.0, 0.0]], "family": "sequential", "gamma": 0.5, "m": 1, '
        '"n": 2, "p": 1, "r": 1}\n')
    save_graph(GraphSpec(n=3, edges=[(1, 2, 2.0), (2, 3, 0.1), (1, 3, 1.0)],
                         subgraph_edges=[(1, 2, 1.0), (2, 3, 0.1)]),
               tmp_path / "g.json")
    assert (tmp_path / "g.json").read_text() == (
        '{"edges": [[1, 2, 2.0], [1, 3, 1.0], [2, 3, 0.1]], "n": 3, '
        '"subgraph_edges": [[1, 2, 1.0], [2, 3, 0.1]]}\n')
    save_instance(tiny, str(tmp_path))
    assert (tmp_path / "meta.json").read_text() == (
        '{"d": 8, "m": 10, "mu": [0.4, 0.4], "n": 2, "noise_var": 0.001, '
        '"nu": [0.2, 0.2], "partition": [8, 2], "seed": 4}\n')
    report = tiny_solve(tiny)
    export_state_json(report, tmp_path / "state.json")
    x, s = report.final.x[0], report.dual_certificate.blocks
    assert (tmp_path / "state.json").read_text() == (
        '{"s": [%s], "x": [%s]}\n' % (
            ", ".join("[%s]" % ", ".join(map(repr, b.tolist())) for b in s),
            ", ".join(map(repr, x.tolist()))))


# floats at the edges of their text: a signed zero, the least subnormal, an
# integral value, the largest decade and one that %.17g wrote long
FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1.0, 1e308, 0.1]),
                   st.floats(allow_nan=False, allow_infinity=False))
NUMPY = st.one_of(
    FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=3),
           elements=FLOATS),
    arrays(np.int64, array_shapes(max_dims=2, max_side=3)))
JSON_VALUES = st.recursive(
    st.one_of(FLOATS, st.integers(), st.booleans(), st.none(),
              st.text(max_size=4), NUMPY),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=4), kids,
                                           max_size=4)),
    max_leaves=20)
# printable ASCII, with the comma, the quote and a newline drawn often
TEXT = st.one_of(st.sampled_from(["", ",", '"', 'a,"b"', ' , ', "x\ny"]),
                 st.text(st.characters(min_codepoint=32, max_codepoint=126),
                         max_size=6))


def plain(v):
    """v with every numpy array or scalar as its tolist()."""
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [plain(x) for x in v]
    return v


def assert_same(a, b):
    """a and b of the same types throughout, each float bit for bit."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_same(a[k], b[k])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), (a, b)
    else:
        assert a == b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=JSON_VALUES)
def test_dumps_json_round_trip(obj):
    assert_same(json.loads(dumps_json(obj)), plain(obj))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.one_of(FLOATS, FLOATS.map(np.float64),
                                        st.integers(), st.none(), TEXT),
                              min_size=1, max_size=5), max_size=5))
def test_write_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, rows, header=["h,1", "h2"])
        with open(path, newline="") as fh:
            read = list(csv.reader(fh))
    assert read[0] == ["h,1", "h2"]
    assert len(read) == len(rows) + 1
    for got, row in zip(read[1:], rows):
        assert len(got) == len(row)
        for text, v in zip(got, row):
            if isinstance(v, float):
                assert struct.pack("<d", float(text)) == struct.pack("<d", v)
            elif isinstance(v, int):
                assert int(text) == v
            else:
                assert text == ("" if v is None else v)


@pytest.mark.parametrize("obj,error", [
    (float("nan"), ValueError), (float("inf"), ValueError),
    ({"a": [-float("inf")]}, ValueError), (np.float64("nan"), ValueError),
    (np.float32("inf"), ValueError), (np.array([1.0, np.inf]), ValueError),
    (object(), TypeError), ({1, 2}, TypeError), (1j, TypeError),
    (np.complex128(1j), TypeError), (b"x", TypeError)],
    ids=["nan", "inf", "nested_minus_inf", "np_nan", "np_float32_inf",
         "array_inf", "object", "set", "complex", "np_complex", "bytes"])
def test_dumps_json_refuses(obj, error):
    with pytest.raises(error):
        dumps_json(obj)


def test_files_in_the_old_text_still_load(tmp_path):
    # as %.17g wrote them: 1.0 as 1, -0.0 as -0 and 0.1 as
    # 0.10000000000000001; json.load reads the first two back as ints
    (tmp_path / "s.json").write_text(
        '{"D_diag": [1, 1], "E_diag": [0.25], "H": [[0], [1]], "K": [[1, 0]]'
        ', "M": [[1], [-1]], "N": [[0, 0], [2, 0]], "P": [[0], [1]], '
        '"Q": [[0], [0]], "R": [[1, 0]], "family": "sequential", '
        '"gamma": 0.5, "m": 1, "n": 2, "p": 1, "r": 1}\n')
    s, want = load_scheme(tmp_path / "s.json"), scheme_sequential(
        2, gamma=0.5, eta=0.25)
    for name in ("M", "N", "H", "K", "P", "Q", "R", "D_diag", "E_diag"):
        np.testing.assert_array_equal(getattr(s, name), getattr(want, name))
    assert (s.gamma, s.family) == (0.5, "sequential")
    (tmp_path / "g.json").write_text(
        '{"edges": [[1, 2, 2], [1, 3, 1], [2, 3, 0.10000000000000001]], '
        '"n": 3, "subgraph_edges": [[1, 2, 1], [2, 3, 0.10000000000000001]]}'
        '\n')
    assert load_graph(tmp_path / "g.json") == GraphSpec(
        n=3, edges=[(1, 2, 2.0), (2, 3, 0.1), (1, 3, 1.0)],
        subgraph_edges=[(1, 2, 1.0), (2, 3, 0.1)])
    files = {
        "meta.json": '{"d": 2, "m": 3, "mu": [0.40000000000000002, 1], '
                     '"n": 2, "noise_var": 0.001, "nu": [0.20000000000000001,'
                     ' 0], "partition": [2, 1], "seed": 4}\n',
        "A.csv": "0.10000000000000001,-0\n1,0.33333333333333331\n"
                 "1.0000000000000001e-300,-2.5\n",
        "b.csv": "1\n-0\n0.10000000000000001\n",
        "x_true.csv": "0\n0.33333333333333331\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    inst = load_instance(str(tmp_path))
    np.testing.assert_array_equal(np.vstack(inst.A_blocks), [
        [0.1, -0.0], [1.0, 1 / 3], [1e-300, -2.5]])
    assert [A.shape[0] for A in inst.A_blocks] == [2, 1]
    np.testing.assert_array_equal(np.concatenate(inst.b_blocks),
                                  [1.0, -0.0, 0.1])
    assert math.copysign(1.0, inst.b_blocks[0][1]) == -1.0
    np.testing.assert_array_equal(inst.x_true, [0.0, 1 / 3])
    assert (inst.mu, inst.nu, inst.noise_var, inst.seed) == (
        [0.4, 1.0], [0.2, 0.0], 1e-3, 4)


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
    report = solve(s, pb, z0=BlockVector([np.ones(d)]),
                   opts=SolveOptions(max_iters=2000))
    assert report.stop_reason == "diverged"
    assert [r[0] for r in report.records] == list(range(report.iters_run + 1))
    assert all(r[3] is None and math.isfinite(r[4]) for r in report.records)
    # the last record belongs to the final iterate, the last finite one; its
    # residual may overflow, so NaN counts as equal to NaN
    final = report.final
    assert np.isfinite(np.concatenate(final.z.blocks + final.w.blocks)).all()
    gz, gw, _, _ = eval_Gamma(s, pb, final.z, final.w)
    np.testing.assert_equal(report.records[-1][1],
                            residual_star(s, gz, gw, report.lambda_used))
