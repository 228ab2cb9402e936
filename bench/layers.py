"""Span instrumentation of graphsplit's public names, for the traced run,
and the per-layer metrics derived from the spans.

The layers are the package modules.  Every wrapper is installed from here,
around the names the package itself calls through, and removed again when
the traced run ends; no file of the package changes.
"""

from __future__ import annotations

import contextlib
from collections import Counter

from spans import ancestors_named, self_times, subtree_accounting

SOLVE = "solver.solve"
GAMMA = "solver.eval_Gamma"

# (module attribute of the graphsplit namespace, names, span prefix)
MODULE_NAMES = [
    ("solver", ["solve", "eval_Gamma", "eval_S", "residual_star",
                "consensus_gap", "certify_solution"], "solver."),
    ("solver", ["kron_apply"], "linalg."),
    ("solver", ["validate_standing", "check_explicit", "compute_UW",
                "compute_tau", "step_bounds"], "scheme."),
    ("fusedlasso", ["solve"], "solver."),
    ("fusedlasso", ["gen_instance", "build_family_scheme", "objective",
                    "reference_solve", "run_grid"], "fusedlasso."),
    ("fusedlasso", ["compute_UW", "compute_tau", "step_bounds"], "scheme."),
    ("fusedlasso", ["spectral_norm"], "linalg."),
    ("operators", ["spectral_norm"], "linalg."),
    ("linalg", ["spectral_norm"], "linalg."),
    ("graphs", ["scheme_sequential", "scheme_star", "scheme_complete",
                "scheme_ring"], "graphs."),
]
SCHEME_GEN = ("graphs.scheme_sequential", "graphs.scheme_star",
              "graphs.scheme_complete", "graphs.scheme_ring")
VALIDATE = ("scheme.validate_standing", "scheme.check_explicit")
UW_TAU_BOUNDS = ("scheme.compute_UW", "scheme.compute_tau",
                 "scheme.step_bounds")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        own = attr in getattr(obj, "__dict__", {})
        old = getattr(obj, attr)
        self._undo.append((obj, attr, old, own))
        setattr(obj, attr, value)

    def set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key], None))
        mapping[key] = value

    def undo(self):
        while self._undo:
            obj, attr, old, own = self._undo.pop()
            if own is None:
                obj[attr] = old
            elif own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


def instrument_problem(tracer, problem):
    """Wrap the operators of one problem bundle: the A_i and B_k
    resolvents and the C_j evaluations."""
    if getattr(problem, "_bench_traced", False):
        return problem
    for op in problem.A_list:
        op.resolvent = tracer.wrap("operators.A_resolvent", op.resolvent)
    for blk in problem.BL_list:
        blk.B.resolvent = tracer.wrap("operators.B_resolvent",
                                      blk.B.resolvent)
    for op in problem.C_list:
        op.apply = tracer.wrap("operators.C_eval", op.apply)
    problem._bench_traced = True
    return problem


@contextlib.contextmanager
def instrumented(gs, tracer):
    """Wrap graphsplit's public names with spans for the duration of the
    block.  Problems built by ``to_problem`` inside the block are wrapped
    too."""
    patches = Patches()
    try:
        for module, names, prefix in MODULE_NAMES:
            mod = getattr(gs, module)
            for name in names:
                patches.set(mod, name,
                            tracer.wrap(prefix + name, getattr(mod, name)))
        fl = gs.fusedlasso
        to_problem = tracer.wrap("fusedlasso.to_problem", fl.to_problem)
        patches.set(fl, "to_problem",
                    lambda inst: instrument_problem(tracer, to_problem(inst)))
        for family, gen in list(fl.FAMILY_GENERATORS.items()):
            patches.set_item(fl.FAMILY_GENERATORS, family,
                             tracer.wrap("graphs.scheme_" + family, gen))
        bv = gs.linalg.BlockVector
        patches.set(bv, "__init__",
                    tracer.wrap("linalg.BlockVector", bv.__init__))
        dm = fl.DifferenceMap
        for attr in ("__call__", "apply"):
            patches.set(dm, attr, tracer.wrap("linalg.L_apply",
                                              dm.__dict__[attr]))
        patches.set(dm, "adjoint", tracer.wrap("linalg.L_adjoint",
                                               dm.__dict__["adjoint"]))
        patches.set(gs.cli.main, "main",
                    tracer.wrap("cli.benchmark", gs.cli.main.main))
        yield tracer
    finally:
        patches.undo()


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(spans, grad_bytes_per_call):
    """Per-layer metrics of the spans of one traced run.

    Returns ``(metrics, extra)``: ``metrics`` maps a name to (value, unit)
    for the layers every workload exercises, ``extra`` holds the layers only
    some workloads reach, plus the accounting check along each solve."""
    selfs = self_times(spans)
    in_solve = ancestors_named(spans, {SOLVE})
    in_gamma = ancestors_named(spans, {GAMMA})
    dur, slf, cnt = Counter(), Counter(), Counter()
    dur_solve, slf_solve, cnt_solve = Counter(), Counter(), Counter()
    dur_gamma, cnt_gamma = Counter(), Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        d = t1 - t0
        dur[name] += d
        slf[name] += selfs[i]
        cnt[name] += 1
        if in_solve[i] >= 0:
            dur_solve[name] += d
            slf_solve[name] += selfs[i]
            cnt_solve[name] += 1
        if in_gamma[i] >= 0:
            dur_gamma[name] += d
            cnt_gamma[name] += 1
    gammas = cnt_solve[GAMMA]

    def in_solve_us(name, table=dur_solve):
        return 1e6 * _mean(table[name], cnt_solve[name])

    def mean_s(name):
        return _mean(dur[name], cnt[name])

    def per_gamma(name):
        return _mean(cnt_gamma[name], gammas)

    accounted = [subtree_accounting(spans, selfs, i)
                 for i, s in enumerate(spans) if s[0] == SOLVE]
    gen_calls = sum(cnt[n] for n in SCHEME_GEN)
    gamma_us = in_solve_us(GAMMA)
    grad_us = 1e6 * _mean(dur_gamma["operators.C_eval"], gammas)
    c_per_gamma = per_gamma("operators.C_eval")
    metrics = {
        "solver.gamma_us": (gamma_us, "us"),
        "solver.eval_s_self_us": (in_solve_us("solver.eval_S", slf_solve),
                                  "us"),
        "solver.eval_gamma_self_us": (in_solve_us(GAMMA, slf_solve), "us"),
        "solver.loop_self_us": (1e6 * _mean(slf[SOLVE], gammas), "us"),
        "solver.residual_star_us": (in_solve_us("solver.residual_star"),
                                    "us"),
        "solver.consensus_gap_us": (in_solve_us("solver.consensus_gap"),
                                    "us"),
        "solver.consensus_gap_calls": (cnt_solve["solver.consensus_gap"],
                                       "count"),
        "solver.gamma_over_grad": (_mean(gamma_us, grad_us), "ratio"),
        "operators.a_resolvent_us": (in_solve_us("operators.A_resolvent"),
                                     "us"),
        "operators.a_resolvent_per_gamma": (
            per_gamma("operators.A_resolvent"), "count"),
        "operators.b_resolvent_us": (in_solve_us("operators.B_resolvent"),
                                     "us"),
        "operators.b_resolvent_per_gamma": (
            per_gamma("operators.B_resolvent"), "count"),
        "operators.c_eval_us": (in_solve_us("operators.C_eval"), "us"),
        "operators.c_eval_per_gamma": (c_per_gamma, "count"),
        "operators.grad_bytes_per_gamma": (c_per_gamma * grad_bytes_per_call,
                                           "bytes"),
        "linalg.kron_apply_us": (in_solve_us("linalg.kron_apply"), "us"),
        "linalg.kron_apply_per_gamma": (per_gamma("linalg.kron_apply"),
                                        "count"),
        "linalg.blockvector_allocs_per_iter": (
            _mean(cnt_solve["linalg.BlockVector"], gammas), "count"),
        "linalg.L_apply_per_gamma": (per_gamma("linalg.L_apply"), "count"),
        "linalg.L_adjoint_per_gamma": (per_gamma("linalg.L_adjoint"),
                                       "count"),
        "scheme.validate_s": (sum(dur_solve[n] for n in VALIDATE), "s"),
        "scheme.uw_tau_bounds_s": (sum(dur_solve[n] for n in UW_TAU_BOUNDS),
                                   "s"),
        "graphs.scheme_gen_us": (
            1e6 * _mean(sum(dur[n] for n in SCHEME_GEN), gen_calls), "us"),
        "graphs.scheme_gen_calls": (gen_calls, "count"),
    }
    extra = {
        "solver.solves": (len(accounted), "count"),
        "solver.gammas": (gammas, "count"),
        "linalg.spectral_norm_s": (dur["linalg.spectral_norm"], "s"),
        "linalg.spectral_norm_calls": (cnt["linalg.spectral_norm"], "count"),
        "fusedlasso.to_problem_s": (mean_s("fusedlasso.to_problem"), "s"),
        "fusedlasso.build_family_scheme_s": (
            mean_s("fusedlasso.build_family_scheme"), "s"),
        "fusedlasso.objective_us": (1e6 * mean_s("fusedlasso.objective"),
                                    "us"),
        "fusedlasso.reference_solve_s": (
            mean_s("fusedlasso.reference_solve"), "s"),
        "fusedlasso.grid_self_s": (slf["fusedlasso.run_grid"], "s"),
        "cli.benchmark_self_s": (slf["cli.benchmark"], "s"),
        "trace.solve_accounted_min": (min(accounted, default=1.0), "ratio"),
        "trace.solve_accounted_max": (max(accounted, default=1.0), "ratio"),
    }
    return metrics, extra
