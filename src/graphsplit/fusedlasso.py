"""Decentralized fused-lasso benchmark: instance generation, the mapping to
operator bundles, an independent reference solver, and the parameter-grid
experiment harness."""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

from .linalg import spectral_norm
from .operators import (ComposedBlock, ProblemInstance,
                        _least_squares_gradient, l1_resolvent, prox_l1,
                        zero_resolvent)
from .scheme import (_check_constant, _check_number, _is_number, compute_UW,
                     compute_tau, step_bounds, write_csv, write_json)
from .solver import SolveOptions, solve
from .graphs import scheme_complete, scheme_sequential, scheme_star

__all__ = [
    "DifferenceMap",
    "difference_matrix",
    "FusedLassoInstance",
    "ExperimentConfig",
    "gen_instance",
    "desk_instance",
    "to_problem",
    "objective",
    "reference_solve",
    "build_family_scheme",
    "run_cell",
    "run_grid",
    "save_instance",
    "load_instance",
]

FAMILY_GENERATORS = {
    "sequential": scheme_sequential,
    "star": scheme_star,
    "complete": scheme_complete,
}

# grid and CLI solves record every RECORD_EVERY iterations, and their stop
RECORD_EVERY = 10


class DifferenceMap:
    """First-difference operator (Lx)_i = x_{i+1} - x_i from R^d to
    R^(d-1) and its adjoint, matrix-free, on x or each row of a stack."""

    def __init__(self, d):
        self.in_dim = _check_number("d", d, integer=True, low=2)
        self.out_dim = d - 1

    def apply(self, x):
        return x[..., 1:] - x[..., :-1]

    __call__ = apply
    stacked_rows = True   # so an EvalPlan may apply it to stacked rows

    def adjoint(self, y):
        out = np.empty(y.shape[:-1] + (y.shape[-1] + 1,))
        np.subtract(y[..., :-1], y[..., 1:], out=out[..., 1:-1])
        out.T[0], out.T[-1] = -y.T[0], y.T[-1]   # cheaper than out[..., 0]
        return out

    def norm(self):
        """The spectral norm, sqrt(2 - 2 cos((d-1) pi / d))."""
        d = self.in_dim
        return float(np.sqrt(2.0 - 2.0 * np.cos((d - 1) * np.pi / d)))


difference_matrix = DifferenceMap


@dataclass
class FusedLassoInstance:
    """One agent per data block; n_agents and d are read from A_blocks."""

    A_blocks: List[np.ndarray]
    b_blocks: List[np.ndarray]
    mu: List[float]
    nu: List[float]
    seed: int
    x_true: np.ndarray
    noise_var: float = 1e-3

    def __post_init__(self):
        if not self.A_blocks or self.d < 2:
            raise ValueError("need at least one agent and d >= 2")
        for name in ("b_blocks", "mu", "nu"):
            if len(getattr(self, name)) != self.n_agents:
                raise ValueError(f"{name} needs one entry per agent, and "
                                 f"A_blocks gives {self.n_agents} agents")
        for name in ("mu", "nu"):
            for i, v in enumerate(getattr(self, name)):
                _check_constant(f"{name}[{i}]", v)
        for i, (A, b) in enumerate(zip(self.A_blocks, self.b_blocks)):
            if A.shape[1] != self.d:
                raise ValueError(f"A_blocks[{i}] has {A.shape[1]} columns, "
                                 f"but A_blocks[0] has {self.d}")
            if A.shape[0] != b.size or A.shape[0] < 1:
                raise ValueError("inconsistent block shapes")
            if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
                raise ValueError("A_blocks and b_blocks must be finite")
        if np.shape(self.x_true) != (self.d,):
            raise ValueError(f"x_true has shape {np.shape(self.x_true)}, but "
                             f"A_blocks give d = {self.d}")

    @property
    def n_agents(self):
        return len(self.A_blocks)

    @property
    def d(self):
        return self.A_blocks[0].shape[1]

    @property
    def m(self):
        return sum(A.shape[0] for A in self.A_blocks)

    @property
    def partition(self):
        return [A.shape[0] for A in self.A_blocks]

    @cached_property
    def lipschitz_constants(self):
        """||A_i||^2 per agent, the Lipschitz constants of the gradients:
        exact (spectral_norm of each block), found once on first use.
        to_problem and build_family_scheme both read these values."""
        return [spectral_norm(A) ** 2 for A in self.A_blocks]


@dataclass
class ExperimentConfig:
    gamma_hats: List[float] = field(default_factory=lambda: [0.5])
    eta_hats: List[float] = field(default_factory=lambda: [0.1])
    lambda_hats: List[float] = field(default_factory=lambda: [0.9])
    scheme_families: List[str] = field(
        default_factory=lambda: list(FAMILY_GENERATORS))
    max_iters: int = 20_000
    tol: float = 1e-10

    def __post_init__(self):
        for name in ("gamma_hats", "eta_hats", "lambda_hats",
                     "scheme_families"):
            if not getattr(self, name):
                raise ValueError(f"{name} is empty")
        for name in ("gamma_hats", "eta_hats", "lambda_hats"):
            for v in getattr(self, name):
                if not (_is_number(v) and 0.0 < v < 1.0):
                    raise ValueError(f"{name} holds {v!r}, " + (
                        "outside (0, 1)" if _is_number(v)
                        else "which is not a number"))
        for name, integer in (("max_iters", True), ("tol", False)):
            _check_number(name, getattr(self, name), integer, 0)
        for fam in self.scheme_families:
            if fam not in FAMILY_GENERATORS:
                raise ValueError(f"unknown family {fam!r}")


def gen_instance(seed, n=5, m=100, d=1000, k_nonzero=10, noise_var=1e-3,
                 mu=15.0, nu=5.0):
    """Random instance: Gaussian data matrix, sparse Gaussian ground truth,
    noisy observations, and a random row partition with every agent getting
    at least one row.  The partition uses its own seed stream so changing
    only the data draw does not reshuffle the split."""
    for name, v, low in (("seed", seed, 0), ("n", n, 1), ("m", m, None),
                         ("d", d, 2), ("k_nonzero", k_nonzero, 0)):
        _check_number(name, v, integer=True, low=low)
    _check_number("noise_var", noise_var, low=0)
    if k_nonzero > d or n > m:
        raise ValueError("infeasible sizes")
    rng = np.random.default_rng([int(seed), 0])
    A = rng.standard_normal((m, d))
    x_true = np.zeros(d)
    support = rng.choice(d, size=k_nonzero, replace=False)
    x_true[support] = rng.standard_normal(k_nonzero)
    b = A @ x_true + np.sqrt(noise_var) * rng.standard_normal(m)

    rng_part = np.random.default_rng([int(seed), 1])
    counts = 1 + rng_part.multinomial(m - n, [1.0 / n] * n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    A_blocks = [A[offsets[i]:offsets[i + 1]] for i in range(n)]
    b_blocks = [b[offsets[i]:offsets[i + 1]] for i in range(n)]
    return FusedLassoInstance(
        A_blocks=A_blocks, b_blocks=b_blocks, mu=[mu] * n, nu=[nu] * n,
        seed=int(seed), x_true=x_true,
        noise_var=float(noise_var),
    )


def desk_instance(seed=0):
    """Small benchmark instance for quick runs.  The regularization weights
    are scaled down with the row count: the full-scale defaults (mu = 15)
    over-regularize at m = 50 and collapse the solution to zero."""
    return gen_instance(seed, n=5, m=50, d=200, mu=5.0, nu=2.0)


def to_problem(instance):
    """Operator bundle for the unscaled sum: one artificial zero resolvent
    (so the n-agent problem fits the (n+1)-node schemes), n l1 resolvents,
    n composed difference blocks, and n least-squares gradients whose
    Lipschitz constants are the instance's lipschitz_constants."""
    d = instance.d
    L = difference_matrix(d)
    A_list = [zero_resolvent(d)] + [l1_resolvent(mu_i, d)
                                    for mu_i in instance.mu]
    BL_list = [
        ComposedBlock(B=l1_resolvent(nu_k, d - 1), L=L)
        for nu_k in instance.nu
    ]
    C_list = [
        _least_squares_gradient(A, b, ell)
        for A, b, ell in zip(instance.A_blocks, instance.b_blocks,
                             instance.lipschitz_constants)
    ]
    return ProblemInstance(d=d, A_list=A_list, BL_list=BL_list, C_list=C_list)


def objective(instance, x):
    """The (1/n)-scaled objective value at x."""
    x = np.asarray(x, dtype=float)
    acc = 0.0
    dx = np.diff(x)
    l1 = float(np.sum(np.abs(x)))
    tv = float(np.sum(np.abs(dx)))
    for A, b, mu_i, nu_i in zip(instance.A_blocks, instance.b_blocks,
                                instance.mu, instance.nu):
        r = A @ x - b
        acc += 0.5 * float(r @ r) + mu_i * l1 + nu_i * tv
    return acc / instance.n_agents


REFERENCE_MAX_ITERS = 500_000   # reference_solve's iteration budget


def reference_solve(instance, tol=1e-10):
    """Independent solution of the aggregate problem by a classical
    two-block primal-dual iteration (smooth quadratic handled by gradient,
    the l1 term by its prox, the total-variation term through a clipped
    dual variable).  Stops on the max of the two stationarity residuals.
    O(m d) memory and time per iteration: one gradient A^T (A x - b) per
    iteration, and the exact Lipschitz constant ||A||^2 (spectral_norm)."""
    if not _check_number("tol", tol) > 0:   # a NaN tol would never stop
        raise ValueError("tol must be positive")
    A = np.vstack(instance.A_blocks)
    b = np.concatenate(instance.b_blocks)
    mu_bar = float(sum(instance.mu))
    nu_bar = float(sum(instance.nu))
    d = instance.d
    L = difference_matrix(d)
    Lf = max(spectral_norm(A) ** 2, 1e-12)
    rho = Lf / (2.0 * L.norm() ** 2)
    sigma = 0.99 / Lf
    x = np.zeros(d)
    u = np.zeros(d - 1)
    grad = A.T @ (A @ x - b)
    for it in range(REFERENCE_MAX_ITERS):
        x_new = prox_l1(x - sigma * (grad + L.adjoint(u)), sigma * mu_bar)
        u = np.clip(u + rho * L(2.0 * x_new - x), -nu_bar, nu_bar)
        x = x_new
        grad = A.T @ (A @ x - b)
        if it % 10 == 0:
            v = -grad - L.adjoint(u)
            r1 = np.max(np.abs(x - prox_l1(x + v, mu_bar)), initial=0.0)
            lx = L(x)
            r2 = np.max(np.abs(lx - prox_l1(lx + u, nu_bar)), initial=0.0)
            if max(r1, r2) <= tol:
                return x, objective(instance, x)
    raise RuntimeError(f"reference solver did not reach tol {tol} in "
                       f"{REFERENCE_MAX_ITERS} iterations")


def build_family_scheme(family, instance, gamma_hat, eta_hat):
    """Scheme for one grid cell: compute tau from the structural matrices,
    then take gamma = gamma_hat * gamma_max, eta = eta_hat * eta_max(gamma)
    and lambda_max(gamma) from one StepBounds, and scale the generated E by
    eta (every family's E is linear in eta)."""
    base = FAMILY_GENERATORS[family](instance.n_agents + 1)
    uw = compute_UW(base)
    tau = compute_tau(uw, instance.lipschitz_constants, "cocoercive")
    bounds = step_bounds(tau, [DifferenceMap(instance.d).norm()],
                         "cocoercive")
    gamma = gamma_hat * bounds.gamma_max
    eta = eta_hat * bounds.eta_max(gamma)
    scheme = base.replace(gamma=gamma, E_diag=eta * base.E_diag)
    return scheme, tau, bounds.lambda_max(gamma)


def _curve_name(family, *hats):   # each hat as grid.csv writes a float
    return "_".join([family, *map(repr, map(float, hats))]) + ".csv"


# the grid's status of each stop_reason
STATUS = {"converged": "ok", "max_iters": "maxiter", "diverged": "diverged"}


def run_cell(instance, problem, cell, config, out_dir=None):
    """Solve one (family, gamma_hat, eta_hat, lambda_hat) cell.  The row
    holds the GRID_COLUMNS and tau, with the status of the report's
    stop_reason.  report is None only when no solve ran (the scheme could
    not be built, or solve refused it); the status is then "error: " and the
    message, each run of whitespace one space, so the row stays one line."""
    family, gamma_hat, eta_hat, lambda_hat = cell
    row = dict(zip(GRID_COLUMNS, cell))
    t0 = time.perf_counter()
    try:
        scheme, row["tau"], lam_max = build_family_scheme(
            family, instance, gamma_hat, eta_hat)
        opts = SolveOptions(
            max_iters=config.max_iters, residual_tol=config.tol,
            lambda_schedule=lambda_hat * lam_max,
            record_every=RECORD_EVERY,
        )
        report = solve(scheme, problem, opts=opts,
                       objective=lambda x: objective(instance, x))
    except Exception as exc:   # failures become rows, the grid continues
        row.update(iters_to_tol=-1, final_residual=float("nan"),
                   final_objective=float("nan"),
                   wall_ms=1e3 * (time.perf_counter() - t0),
                   status=re.sub(r"\s+", " ", f"error: {exc}"))
        return row, None
    _, res, _, obj, _ = report.records[-1]
    row.update(
        iters_to_tol=report.iters_run,
        final_residual=res,
        final_objective=obj,
        wall_ms=1e3 * (time.perf_counter() - t0),
        status=STATUS[report.stop_reason],
    )
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "curves", _curve_name(*cell)),
                  ((t, res, obj) for t, res, _, obj, _ in report.records),
                  ("iter", "residual", "objective"))
    return row, report


GRID_COLUMNS = ["family", "gamma_hat", "eta_hat", "lambda_hat",
                "iters_to_tol", "final_residual", "final_objective",
                "wall_ms", "status"]


def run_grid(instance, config, out_dir=None):
    """Run every distinct (family, gamma_hat, eta_hat, lambda_hat) cell once
    and return the result rows in deterministic sorted order.  ``out_dir``
    gets grid.csv plus one residual curve per row."""
    problem = to_problem(instance)
    cells = sorted({
        (fam, g, e, l)
        for fam in config.scheme_families
        for g in config.gamma_hats
        for e in config.eta_hats
        for l in config.lambda_hats
    })
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "curves"), exist_ok=True)
    rows = [run_cell(instance, problem, c, config, out_dir)[0] for c in cells]
    if out_dir is not None:
        write_csv(os.path.join(out_dir, "grid.csv"),
                  ([row[c] for c in GRID_COLUMNS] for row in rows),
                  GRID_COLUMNS)
    return rows


def save_instance(instance, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    meta = {
        "n": instance.n_agents, "m": instance.m, "d": instance.d,
        "seed": instance.seed, "noise_var": instance.noise_var,
        "mu": instance.mu, "nu": instance.nu,
        "partition": instance.partition,
    }
    write_json(os.path.join(dirpath, "meta.json"), meta)
    files = {"A.csv": np.vstack(instance.A_blocks),
             "b.csv": np.concatenate(instance.b_blocks).reshape(-1, 1),
             "x_true.csv": instance.x_true.reshape(-1, 1)}
    # as Python floats: csv writes a numpy float through str(), which
    # follows numpy's print options (legacy="1.13" keeps 12 digits)
    for name, rows in files.items():
        write_csv(os.path.join(dirpath, name), rows.tolist())


def _meta_field(meta, key, kind, listed=False):
    """meta.json's value at key as kind (int or float), or a list of kind
    when listed.  A value that is not a number of that kind is refused by
    name, and so is a missing key; an int is a float too."""
    if key not in meta:
        raise ValueError(f"meta.json has no {key!r}")
    val = meta[key]
    items = val if listed and isinstance(val, list) else [val]
    if isinstance(val, list) != listed or not all(
            _is_number(v, kind is int) for v in items):
        raise ValueError(f"meta.json's {key} = {val!r} is not "
                         f"{'a list of' if listed else 'of type'} "
                         f"{kind.__name__}")
    return [kind(v) for v in items] if listed else kind(val)


def load_instance(dirpath):
    """Instance from a directory written by save_instance; the n, m, d and
    partition of meta.json must agree with the arrays."""
    with open(os.path.join(dirpath, "meta.json")) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError("meta.json must hold a JSON object, not "
                         f"{type(meta).__name__}")
    A = np.loadtxt(os.path.join(dirpath, "A.csv"), delimiter=",", ndmin=2)
    b = np.loadtxt(os.path.join(dirpath, "b.csv"), delimiter=",").reshape(-1)
    x_true = np.loadtxt(os.path.join(dirpath, "x_true.csv"),
                        delimiter=",").reshape(-1)
    counts = _meta_field(meta, "partition", int, listed=True)
    if any(c < 1 for c in counts):
        raise ValueError(f"meta.json's partition {counts} has an entry < 1")
    for name, size in (("A.csv's row count", A.shape[0]),
                       ("b.csv's entry count", b.size),
                       ("meta.json's m", _meta_field(meta, "m", int))):
        if size != sum(counts):
            raise ValueError(f"meta.json's partition sums to {sum(counts)}, "
                             f"but {name} is {size}")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    inst = FusedLassoInstance(
        A_blocks=[A[lo:hi] for lo, hi in zip(offsets, offsets[1:])],
        b_blocks=[b[lo:hi] for lo, hi in zip(offsets, offsets[1:])],
        mu=_meta_field(meta, "mu", float, listed=True),
        nu=_meta_field(meta, "nu", float, listed=True),
        seed=_meta_field(meta, "seed", int), x_true=x_true,
        noise_var=_meta_field({"noise_var": 1e-3, **meta}, "noise_var",
                              float),
    )
    for key, size in (("n", inst.n_agents), ("d", inst.d)):
        if _meta_field(meta, key, int) != size:
            raise ValueError(
                f"meta.json has {key} = {meta[key]!r} but the arrays give "
                f"{size}")
    return inst
