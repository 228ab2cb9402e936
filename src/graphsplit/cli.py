"""Command-line front end: scheme validation and generation, instance
solving, and the benchmark grid.  Exit codes: 0 success, 1 validation or
assertion failure, 2 input error."""

from __future__ import annotations

import math
import os
import sys

import click

from . import fusedlasso
from .graphs import load_graph, scheme_from_graph, scheme_ring
from .linalg import LinearMap
from .scheme import (_check_constant, check_explicit, dumps_json, load_scheme,
                     save_scheme, validate_psd)
from .solver import check_scheme, export_report_csv, export_state_json

FAMILIES = {**fusedlasso.FAMILY_GENERATORS, "ring": scheme_ring}


@click.group()
def main():
    """Primal-dual splitting toolkit for composite monotone inclusions."""


def _parse_floats(ctx, param, text):
    """Option callback: a comma list of numbers, else a usage error."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a comma list of numbers")


def _bound(v):
    """A bound as JSON can hold it: null when unbounded."""
    return None if math.isinf(v) else v


def _refuse(message):
    """Print message and exit with code 2, the input-error code."""
    click.echo(message, err=True)
    sys.exit(2)


def _read(what, read, *args, **kw):
    """read(*args, **kw); an input it refuses exits with code 2 and
    "<what>: <the error>"."""
    try:
        return read(*args, **kw)
    except (OSError, ValueError) as exc:
        _refuse(f"{what}: {exc}")


@main.command()
@click.argument("scheme_path", type=click.Path())
@click.option("--psd-level", type=click.IntRange(0, 2), default=1,
              help="0: structural checks only; 1: add A320, Omega >= 0; "
                   "2: add A322 (cocoercive) or A321 (lipschitz) too.")
@click.option("--ell", default="", callback=_parse_floats,
              help="Comma list of Lipschitz constants (default: all ones).")
@click.option("--l-norm", default=1.0, help="Norm of each L_k for the "
                                            "scalar PSD model.")
def validate(scheme_path, psd_level, ell, l_norm):
    """Check the structural and PSD conditions of a scheme file."""
    s = _read("cannot read scheme", load_scheme, scheme_path)
    ells = ell or [1.0] * s.p
    if len(ells) != s.p:
        _refuse(f"expected {s.p} Lipschitz constants")
    try:
        for option, v in [("--ell", e) for e in ells] + [("--l-norm", l_norm)]:
            _check_constant(option, v)
    except ValueError as exc:
        _refuse(str(exc))

    # the scalar model: cocoercive C_j, and 1x1 maps L_k of norm l_norm
    regime, rep, bounds = check_scheme(s, ells, [l_norm] * s.r,
                                       all_cocoercive=True)
    out = {"standing": rep.as_dict(), "regime": regime,
           "explicit": check_explicit(s)}
    if isinstance(bounds, ValueError):
        out["bounds_error"] = str(bounds)
    else:
        out.update(tau=bounds.tau, gamma_max=_bound(bounds.gamma_max))
        if 0 < s.gamma < bounds.gamma_max:
            out.update(eta_max=_bound(bounds.eta_max(s.gamma)),
                       lambda_max=bounds.lambda_max(s.gamma))
        else:
            out["gamma_in_range"] = False
    # solve's refusals: lambda_max is printed when the bounds hold at gamma
    ok = rep.all_pass and out["explicit"] and "lambda_max" in out
    if psd_level > 0:
        L_list = [LinearMap([[l_norm]])] * s.r
        psd = out["psd"] = validate_psd(s, L_list, ells, 1)
        # A321 implies A322; with Q = 0 it fails once some ell_j > 0
        wanted = ["A320"] if psd_level == 1 else [
            "A320", "A321" if regime == "lipschitz" else "A322"]
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
            g = _read("cannot read graph", load_graph, graph_path)
            # no proper subgraph: kappa = 1 makes eta_max the A320 bound
            kappa = 1.0 if g.subgraph_edges == g.edges else None
            s = scheme_from_graph(g, gamma=gamma, eta=eta, kappa=kappa)
        elif family is not None and n_nodes is not None:
            s = FAMILIES[family](n_nodes, gamma=gamma, eta=eta)
        else:
            _refuse("need --graph or both --family and --n")
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
    """Solve a stored fused-lasso instance: one benchmark grid cell."""
    config = _read("bad configuration", fusedlasso.ExperimentConfig,
                   gamma_hats=[gamma_hat], eta_hats=[eta_hat],
                   lambda_hats=[lambda_hat], scheme_families=[family],
                   max_iters=max_iters, tol=tol)
    inst = _read("cannot read instance", fusedlasso.load_instance,
                 instance_dir)
    row, report = fusedlasso.run_cell(
        inst, fusedlasso.to_problem(inst),
        (family, gamma_hat, eta_hat, lambda_hat), config)
    if report is not None and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        export_report_csv(report, os.path.join(out_dir, "history.csv"))
    # a diverged run's x may be non-finite, which JSON cannot hold
    if report is None or report.stop_reason == "diverged":
        click.echo(f"solve failed: {row['status']}", err=True)
        sys.exit(1)
    click.echo(dumps_json({
        "converged": report.converged, "iters": row["iters_to_tol"],
        "final_residual": row["final_residual"],
        "final_objective": row["final_objective"], "tau": row["tau"]}))
    if out_dir is not None:
        export_state_json(report, os.path.join(out_dir, "state.json"))
    sys.exit(0 if report.converged else 1)


@main.command()
@click.option("--seed", default=0)
@click.option("--n", "n_agents", default=5)
@click.option("--m", "m_rows", default=50)
@click.option("--d", "dim", default=200)
@click.option("--mu", default=5.0)
@click.option("--nu", default=2.0)
@click.option("--gamma-hat", default="0.5", callback=_parse_floats,
              help="Comma list of gamma scaling factors.")
@click.option("--eta-hat", default="0.1", callback=_parse_floats)
@click.option("--lambda-hat", default="0.9", callback=_parse_floats)
@click.option("--families",
              default=",".join(fusedlasso.FAMILY_GENERATORS))
@click.option("--tol", default=1e-10)
@click.option("--max-iters", default=20_000)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def benchmark(seed, n_agents, m_rows, dim, mu, nu, gamma_hat, eta_hat,
              lambda_hat, families, tol, max_iters, out_dir):
    """Run the fused-lasso parameter grid and check solution parity."""
    config = _read("bad configuration", fusedlasso.ExperimentConfig,
                   gamma_hats=gamma_hat, eta_hats=eta_hat,
                   lambda_hats=lambda_hat,
                   scheme_families=[f for f in families.split(",") if f],
                   max_iters=max_iters, tol=tol)
    inst = _read("bad instance", fusedlasso.gen_instance, seed, n=n_agents,
                 m=m_rows, d=dim, mu=mu, nu=nu)
    rows = fusedlasso.run_grid(inst, config, out_dir=out_dir)
    for row in rows:
        # each factor as grid.csv and the curve names give it
        click.echo("%-10s g=%s e=%s l=%s iters=%-6d obj=%.8g %s" % (
            row["family"], *(repr(float(row[k])) for k in (
                "gamma_hat", "eta_hat", "lambda_hat")),
            row["iters_to_tol"], row["final_objective"], row["status"]))
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
