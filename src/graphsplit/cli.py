"""Command-line front end: scheme validation and generation, instance
solving, and the benchmark grid.  Exit codes: 0 success, 1 validation or
assertion failure, 2 input error."""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import fusedlasso
from .graphs import load_graph, scheme_from_graph, scheme_ring
from .linalg import LinearMap
from .scheme import (compute_UW, compute_tau, dumps_json, load_scheme,
                     save_scheme, step_bounds, validate_psd,
                     validate_standing)
from .solver import SolveOptions, export_report_csv, export_state_json, solve

FAMILIES = {**fusedlasso.FAMILY_GENERATORS, "ring": scheme_ring}


@click.group()
def main():
    """Primal-dual splitting toolkit for composite monotone inclusions."""


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _config(**kw):
    """The ExperimentConfig of the options; a bad value exits with code 2."""
    try:
        return fusedlasso.ExperimentConfig(**kw)
    except ValueError as exc:
        click.echo(f"bad configuration: {exc}", err=True)
        sys.exit(2)


@main.command()
@click.argument("scheme_path", type=click.Path())
@click.option("--psd-level", type=click.IntRange(0, 2), default=1,
              help="0: structural checks only; 1: add the base PSD "
                   "condition; 2: all three PSD conditions.")
@click.option("--ell", default="", help="Comma list of Lipschitz constants "
                                        "(default: all ones).")
@click.option("--l-norm", default=1.0, help="Norm of each L_k for the "
                                            "scalar PSD model.")
def validate(scheme_path, psd_level, ell, l_norm):
    """Check the structural and PSD conditions of a scheme file."""
    try:
        s = load_scheme(scheme_path)
    except (OSError, ValueError) as exc:
        click.echo(f"cannot read scheme: {exc}", err=True)
        sys.exit(2)
    ells = _parse_floats(ell) if ell else [1.0] * s.p
    if len(ells) != s.p:
        click.echo(f"expected {s.p} Lipschitz constants", err=True)
        sys.exit(2)

    regime = "cocoercive" if not np.any(s.Q) else "lipschitz"
    rep = validate_standing(s, has_B=s.r > 0, has_C=s.p > 0,
                            check_q=(regime == "lipschitz"))
    out = {"standing": rep.as_dict(), "regime": regime}
    ok = rep.all_pass
    try:
        uw = compute_UW(s, need_W=(regime == "lipschitz"))
        tau = compute_tau(uw, ells, regime)
        bounds = step_bounds(tau, [l_norm] * s.r, regime)
        out["tau"] = tau
        out["gamma_max"] = bounds.gamma_max
        if 0 < s.gamma < bounds.gamma_max:
            out["eta_max"] = bounds.eta_max(s.gamma)
            out["lambda_max"] = bounds.lambda_max(s.gamma)
        else:
            out["gamma_in_range"] = False
            ok = False
    except ValueError as exc:
        out["bounds_error"] = str(exc)
        ok = False
    if psd_level > 0:
        # the scalar model: each L_k a 1x1 map of norm |l_norm|
        L_list = [LinearMap([[l_norm]])] * s.r
        psd = out["psd"] = validate_psd(s, L_list, ells, 1)
        wanted = ["A320"] if psd_level == 1 else ["A320", "A321", "A322"]
        ok = ok and all(psd[k] for k in wanted)
    click.echo(dumps_json(out))
    sys.exit(0 if ok else 1)


@main.command("gen-scheme")
@click.option("--graph", "graph_path", type=click.Path(), default=None,
              help="Graph JSON to build the scheme from.")
@click.option("--family", type=click.Choice(sorted(FAMILIES)), default=None)
@click.option("--n", "n_nodes", type=int, default=None)
@click.option("--gamma", default=1.0)
@click.option("--eta", default=1.0)
@click.option("--out", "out_path", type=click.Path(), required=True)
def gen_scheme(graph_path, family, n_nodes, gamma, eta, out_path):
    """Write a scheme file from a named family or a graph description."""
    try:
        if graph_path is not None:
            try:
                g = load_graph(graph_path)
            except (OSError, ValueError) as exc:
                click.echo(f"cannot read graph: {exc}", err=True)
                sys.exit(2)
            s = scheme_from_graph(g, gamma=gamma, eta=eta)
        elif family is not None and n_nodes is not None:
            s = FAMILIES[family](n_nodes, gamma=gamma, eta=eta)
        else:
            click.echo("need --graph or both --family and --n", err=True)
            sys.exit(2)
    except ValueError as exc:
        click.echo(f"scheme construction failed: {exc}", err=True)
        sys.exit(1)
    save_scheme(s, out_path)
    click.echo(f"wrote {out_path}")


@main.command("solve")
@click.argument("instance_dir", type=click.Path())
@click.option("--family", default="sequential",
              type=click.Choice(list(fusedlasso.FAMILY_GENERATORS)))
@click.option("--gamma-hat", default=0.5)
@click.option("--eta-hat", default=0.1)
@click.option("--lambda-hat", default=0.9)
@click.option("--tol", default=1e-10)
@click.option("--max-iters", default=20_000)
@click.option("--out", "out_dir", type=click.Path(), default=None)
def solve_cmd(instance_dir, family, gamma_hat, eta_hat, lambda_hat, tol,
              max_iters, out_dir):
    """Solve a stored fused-lasso instance with one scheme family."""
    _config(gamma_hats=[gamma_hat], eta_hats=[eta_hat],
            lambda_hats=[lambda_hat], scheme_families=[family],
            max_iters=max_iters, tol=tol)
    try:
        inst = fusedlasso.load_instance(instance_dir)
    except (OSError, ValueError, KeyError) as exc:
        click.echo(f"cannot read instance: {exc}", err=True)
        sys.exit(2)
    problem = fusedlasso.to_problem(inst)
    scheme, tau, lam_max = fusedlasso.build_family_scheme(
        family, inst, gamma_hat, eta_hat)
    opts = SolveOptions(max_iters=max_iters, residual_tol=tol,
                        lambda_schedule=lambda_hat * lam_max,
                        record_every=fusedlasso.RECORD_EVERY)
    report = solve(scheme, problem, opts=opts,
                   objective=lambda x: fusedlasso.objective(inst, x))
    _, res, _, obj, _ = report.records[-1]
    summary = {
        "converged": report.converged,
        "iters": report.iters_run,
        "final_residual": res,
        "final_objective": obj,
        "tau": tau,
    }
    click.echo(dumps_json(summary))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        export_report_csv(report, os.path.join(out_dir, "history.csv"))
        export_state_json(report, os.path.join(out_dir, "state.json"))
    sys.exit(0 if report.converged else 1)


@main.command()
@click.option("--seed", default=0)
@click.option("--n", "n_agents", default=5)
@click.option("--m", "m_rows", default=50)
@click.option("--d", "dim", default=200)
@click.option("--mu", default=5.0)
@click.option("--nu", default=2.0)
@click.option("--gamma-hat", default="0.5",
              help="Comma list of gamma scaling factors.")
@click.option("--eta-hat", default="0.1")
@click.option("--lambda-hat", default="0.9")
@click.option("--families",
              default=",".join(fusedlasso.FAMILY_GENERATORS))
@click.option("--tol", default=1e-10)
@click.option("--max-iters", default=20_000)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def benchmark(seed, n_agents, m_rows, dim, mu, nu, gamma_hat, eta_hat,
              lambda_hat, families, tol, max_iters, out_dir):
    """Run the fused-lasso parameter grid and check solution parity."""
    config = _config(gamma_hats=_parse_floats(gamma_hat),
                     eta_hats=_parse_floats(eta_hat),
                     lambda_hats=_parse_floats(lambda_hat),
                     scheme_families=[f for f in families.split(",") if f],
                     max_iters=max_iters, tol=tol)
    try:
        inst = fusedlasso.gen_instance(seed, n=n_agents, m=m_rows, d=dim,
                                       mu=mu, nu=nu)
    except ValueError as exc:
        click.echo(f"bad instance sizes: {exc}", err=True)
        sys.exit(2)
    rows = fusedlasso.run_grid(inst, config, out_dir=out_dir)
    for row in rows:
        click.echo("%-10s g=%.2g e=%.2g l=%.2g iters=%-6d obj=%.8g %s"
                   % (row["family"], row["gamma_hat"], row["eta_hat"],
                      row["lambda_hat"], row["iters_to_tol"],
                      row["final_objective"], row["status"]))
    ok = all(row["status"] == "ok" for row in rows)
    if ok:
        x_ref, f_ref = fusedlasso.reference_solve(inst, tol=1e-10)
        for row in rows:
            rel = abs(row["final_objective"] - f_ref) / (1.0 + abs(f_ref))
            if rel > 1e-4:
                click.echo(f"parity failure: {row['family']} objective "
                           f"off by {rel:.2e}", err=True)
                ok = False
        click.echo("reference objective: %.10g" % f_ref)
    sys.exit(0 if ok else 1)
