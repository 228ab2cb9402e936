"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs graphsplit through
its public API and checks the answers.  Every call goes through a module
attribute (``gs.solver.solve``, ``gs.fusedlasso.to_problem``, ...) looked up
at call time, so the traced run can wrap those names from outside.

Why each workload is in the set:

desk-grid
    Many small solves in which Python bookkeeping dominates.  Cells of one
    family differ only in lambda, so grid batching can show only here.
agents20-complete
    The 21-node complete scheme gives N, H and P O(n^2) nonzeros, which
    makes the per-row coefficient loops and the O(n^2) consensus gap the
    cost.
wide-d1e4
    Large-vector arithmetic and 8 MB of gradient data dominate each
    iteration, so bookkeeping is a small share: the bypass case for a
    bookkeeping optimisation.  Set-up and memory are dominated by the dense
    difference matrix and the repeated power iterations.
ring-lipschitz
    The same solver used differently: C is evaluated at both Rx and P^T x,
    compute_UW solves for W, and the run is certified.  No fused-lasso
    workload covers the monotone-Lipschitz regime.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("sequential", "star", "complete")
PARITY_TOL = 1e-4      # the CLI's own objective-parity rule
CERTIFY_TOL = 1e-5
BLOCK_MS = 5.0         # shortest timing block taken from time_history


@dataclass
class Outcome:
    """One solve (or grid cell): what it cost and whether it was right."""

    label: str
    iters: int
    solve_s: float
    ok: bool
    reason: str = ""
    block_s: list = field(default_factory=list)   # seconds per iteration


def iteration_blocks(time_history, block_ms=BLOCK_MS):
    """Seconds per iteration over consecutive blocks of whole recording
    intervals lasting at least ``block_ms``, from a report's (iteration,
    cumulative ms) records."""
    out = []
    if not time_history:
        return out
    t0, ms0 = time_history[0]
    for t, ms in time_history[1:]:
        if ms - ms0 >= block_ms:
            out.append(1e-3 * (ms - ms0) / (t - t0))
            t0, ms0 = t, ms
    return out


def relative_gap(f, f_ref):
    return abs(f - f_ref) / (1.0 + abs(f_ref))


def timed_solve(gs, label, scheme, problem, opts, check):
    """Call ``solve`` and turn its report into an Outcome.  A solve that
    raises or stops at ``max_iters`` is a failed operation, not a crash."""
    t0 = time.perf_counter()
    try:
        report = gs.solver.solve(scheme, problem, opts=opts)
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        return Outcome(label, 0, time.perf_counter() - t0, False,
                       f"raised {type(exc).__name__}: {exc}")
    solve_s = time.perf_counter() - t0
    if not report.converged:
        reason = f"stopped at max_iters={opts.max_iters}"
    else:
        reason = check(report)
    return Outcome(label, report.iters_run, solve_s, not reason, reason,
                   iteration_blocks(report.time_history))


class Workload:
    name = ""
    why = ""
    full = {}
    tiny = {}

    def params(self, size):
        return dict(self.full if size == "full" else self.tiny)

    def setup(self, gs, seed, p):
        raise NotImplementedError

    def reference(self, gs, state, p):
        return None

    def grad_bytes_per_call(self, p):
        """Computed bytes of data matrix one C_j call reads: the n agents'
        blocks hold m rows of d doubles between them."""
        return 8.0 * p["m"] * p["d"] / p["n"]

    def rep(self, gs, state, ref, p, work_dir):
        raise NotImplementedError


class FusedLassoSolve(Workload):
    """One ``solve`` of a generated fused-lasso instance with one family."""

    def setup(self, gs, seed, p):
        fl = gs.fusedlasso
        inst = fl.gen_instance(seed, n=p["n"], m=p["m"], d=p["d"],
                               mu=p["mu"], nu=p["nu"])
        problem = fl.to_problem(inst)
        scheme, _, lam_max = fl.build_family_scheme(
            p["family"], inst, p["gamma_hat"], p["eta_hat"])
        opts = gs.solver.SolveOptions(
            max_iters=p["max_iters"], residual_tol=p["tol"],
            lambda_schedule=p["lambda_hat"] * lam_max)
        return {"inst": inst, "problem": problem, "scheme": scheme,
                "opts": opts}

    def rep(self, gs, state, ref, p, work_dir):
        return [timed_solve(gs, p["family"], state["scheme"],
                            state["problem"], state["opts"],
                            lambda report: self.check(gs, state, ref, report))]

    def check(self, gs, state, ref, report):
        raise NotImplementedError


class Agents20Complete(FusedLassoSolve):
    name = "agents20-complete"
    why = ("21-node complete scheme: O(n^2) coefficient loops and the "
           "O(n^2) consensus gap are the cost")
    full = dict(n=20, m=400, d=1000, mu=15.0, nu=5.0, family="complete",
                gamma_hat=0.5, eta_hat=0.1, lambda_hat=0.9, tol=1e-10,
                max_iters=20_000)
    tiny = dict(full, n=3, m=12, d=12, mu=0.5, nu=0.2)

    def reference(self, gs, state, p):
        return gs.fusedlasso.reference_solve(state["inst"], tol=1e-10)[1]

    def check(self, gs, state, ref, report):
        f = gs.fusedlasso.objective(state["inst"], report.final.x[0])
        gap = relative_gap(f, ref)
        return "" if gap <= PARITY_TOL else f"objective off by {gap:.2e}"


class WideD1e4(FusedLassoSolve):
    name = "wide-d1e4"
    why = ("d=10^4: vector arithmetic and 8 MB of gradient data per "
           "iteration dominate; the bypass case for bookkeeping gains")
    full = dict(n=5, m=100, d=10_000, mu=15.0, nu=5.0, family="sequential",
                gamma_hat=0.5, eta_hat=0.1, lambda_hat=0.9, tol=1e-6,
                max_iters=20_000)
    tiny = dict(full, n=2, m=8, d=40, mu=0.5, nu=0.2)

    def check(self, gs, state, ref, report):
        # reference_solve takes an SVD of the d-by-d Gram matrix, which is
        # out of reach at d = 10^4; Fejer monotonicity is checked instead
        res = [r for _, r in report.residual_history]
        if not all(math.isfinite(r) for r in res):
            return "non-finite residual"
        rises = sum(b > a for a, b in zip(res, res[1:]))
        return f"residual rose {rises} times" if rises else ""


class RingLipschitz(Workload):
    name = "ring-lipschitz"
    why = ("monotone-Lipschitz regime: C at Rx and P^T x, W from "
           "compute_UW, certified answer")
    full = dict(d=1000, nodes=6, tol=1e-14, max_iters=50_000)
    tiny = dict(full, d=12, tol=1e-13)

    def grad_bytes_per_call(self, p):
        return 0.0   # C reads no data matrix

    def setup(self, gs, seed, p):
        ops, graphs, sch = gs.operators, gs.graphs, gs.scheme
        d, n = p["d"], p["nodes"]
        rng = np.random.default_rng([int(seed), 2])
        q = rng.standard_normal(d)
        weights = rng.uniform(0.05, 0.2, size=n)

        def c_apply(x):
            return 0.5 * x + np.roll(x, -1) - np.roll(x, 1) + q

        # 0.5 I plus a skew circulant with eigenvalues +-2i sin(theta):
        # monotone, Lipschitz <= sqrt(0.25 + 4), not cocoercive
        C = ops.SingleValuedOp(dim=d, apply=c_apply,
                               lipschitz=math.sqrt(4.25), cocoercive=False)
        L = gs.fusedlasso.difference_matrix(d)
        problem = ops.ProblemInstance(
            d=d,
            A_list=[ops.zero_resolvent(d)]
            + [ops.l1_resolvent(w, d) for w in weights[1:]],
            BL_list=[ops.ComposedBlock(B=ops.l1_resolvent(weights[0], d - 1),
                                       L=L)],
            C_list=[C],
        )
        base = graphs.scheme_ring(n, regime="lipschitz")
        tau = sch.compute_tau(sch.compute_UW(base, need_W=True),
                              [C.lipschitz], "lipschitz")
        bounds = sch.step_bounds(tau, [L.norm()], "lipschitz")
        gamma = 0.5 * bounds.gamma_max
        scheme = graphs.scheme_ring(n, gamma=gamma,
                                    eta=0.5 * bounds.eta_max(gamma),
                                    regime="lipschitz")
        opts = gs.solver.SolveOptions(max_iters=p["max_iters"],
                                      residual_tol=p["tol"])
        return {"problem": problem, "scheme": scheme, "opts": opts}

    def rep(self, gs, state, ref, p, work_dir):
        def check(report):
            cert = gs.solver.certify_solution(
                state["scheme"], state["problem"], report.final,
                tol=CERTIFY_TOL)
            return "" if cert["ok"] else f"certificate failed: {cert}"
        return [timed_solve(gs, "ring", state["scheme"], state["problem"],
                            state["opts"], check)]


class DeskGrid(Workload):
    name = "desk-grid"
    why = ("six small solves through the CLI: Python bookkeeping dominates; "
           "same-family cells differ only in lambda")
    full = dict(n=5, m=50, d=200, mu=5.0, nu=2.0, gamma_hat=0.5,
                eta_hat=0.1, lambda_hats=(0.5, 0.9), tol=1e-10)
    tiny = dict(full, n=2, m=10, d=12)

    def cells(self, p):
        return sorted((f, lam) for f in FAMILIES for lam in p["lambda_hats"])

    def setup(self, gs, seed, p):
        # what the command builds before its first solve: the instance, the
        # operator bundle and one scheme per grid cell
        fl = gs.fusedlasso
        inst = fl.gen_instance(seed, n=p["n"], m=p["m"], d=p["d"],
                               mu=p["mu"], nu=p["nu"])
        fl.to_problem(inst)
        for family, _ in self.cells(p):
            fl.build_family_scheme(family, inst, p["gamma_hat"],
                                   p["eta_hat"])
        return {"inst": inst, "seed": seed}

    def reference(self, gs, state, p):
        return gs.fusedlasso.reference_solve(state["inst"], tol=1e-10)[1]

    def rep(self, gs, state, ref, p, work_dir):
        fl = gs.fusedlasso
        solves = []
        inner = fl.solve

        def timed(*args, **kwargs):
            t0, report = time.perf_counter(), None
            try:
                report = inner(*args, **kwargs)
                return report
            finally:
                solves.append((time.perf_counter() - t0, report))

        cells = self.cells(p)
        with tempfile.TemporaryDirectory(dir=work_dir) as out:
            args = ["benchmark", "--seed", str(state["seed"]),
                    "--n", str(p["n"]), "--m", str(p["m"]),
                    "--d", str(p["d"]), "--mu", repr(p["mu"]),
                    "--nu", repr(p["nu"]),
                    "--gamma-hat", repr(p["gamma_hat"]),
                    "--eta-hat", repr(p["eta_hat"]),
                    "--lambda-hat", ",".join(map(repr, p["lambda_hats"])),
                    "--families", ",".join(FAMILIES),
                    "--tol", repr(p["tol"]), "--out", out]
            fl.solve = timed
            text = io.StringIO()
            try:
                with contextlib.redirect_stdout(text), \
                        contextlib.redirect_stderr(text):
                    code = invoke_cli(gs.cli.main, args)
            finally:
                fl.solve = inner
            rows = read_grid(os.path.join(out, "grid.csv"))
        if len(rows) != len(cells) or len(solves) != len(cells):
            reason = (f"command exited {code} with {len(rows)} rows: "
                      + text.getvalue()[-300:])
            return [Outcome(f"{f}/{lam:g}", 0, 0.0, False, reason)
                    for f, lam in cells]
        outcomes = []
        for (family, lam), row, (solve_s, report) in zip(cells, rows,
                                                         solves):
            gap = relative_gap(float(row["final_objective"]), ref)
            reason = ""
            if row["status"] != "ok":
                reason = f"status {row['status']}"
            elif gap > PARITY_TOL:
                reason = f"objective off by {gap:.2e}"
            elif code != 0:
                reason = f"command exited {code}: " + text.getvalue()[-300:]
            blocks = iteration_blocks(report.time_history) if report else []
            outcomes.append(Outcome(
                f"{family}/{lam:g}", max(int(row["iters_to_tol"]), 0),
                solve_s, not reason, reason, blocks))
        return outcomes


def invoke_cli(command, args):
    """Run a click command in this process and return its exit code."""
    try:
        command.main(args=args, prog_name="graphsplit",
                     standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def read_grid(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (DeskGrid(), Agents20Complete(), WideD1e4(),
                                 RingLipschitz())}
