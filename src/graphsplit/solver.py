"""Relaxed fixed-point solver: the solution operator S, the displacement
map Gamma, residual tracking in the scaled product norm, and solution
certification.  The public functions take and return BlockVectors; inside,
primal blocks are the rows of one array, and dual blocks the rows of another,
each zero-padded to the longest."""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .linalg import BlockVector, kron_apply  # noqa: F401  (re-exported)
from .scheme import check_explicit, compute_UW, compute_tau, step_bounds, \
    validate_standing, write_csv, write_json

__all__ = [
    "IterateState", "StarNormContext", "SolveOptions", "SolveReport",
    "RECORD_COLUMNS",
    "EvalPlan", "eval_S", "eval_Gamma", "step", "solve",
    "residual_star", "certify_solution", "check_scheme",
    "export_report_csv", "export_state_json",
]

LAMBDA_SLACK = 1e-12   # how far lambda may pass lambda_max, in _check_lambda


def _check_lambda(lam, lam_max=math.inf, name="lambda_t"):
    """lam as a float, if it is one number in (0, lam_max + LAMBDA_SLACK]."""
    try:
        if isinstance(lam, (bool, np.bool_)):   # float() reads it as 0 or 1
            raise TypeError
        lam = float(lam)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be one number, not {lam!r}") from None
    if not (math.isfinite(lam) and 0 < lam <= lam_max + LAMBDA_SLACK):
        raise ValueError(f"{name} = {lam} outside (0, {lam_max}]")
    return lam


def _stacked(z, shape=None, name="z"):
    """The primal blocks of z as the rows of one 2-D array, which must have
    the shape ``shape`` when given."""
    if not isinstance(z, BlockVector):
        z = np.asarray(z, dtype=float)
    elif shape is None or z.dims == [shape[1]] * len(z):
        z = np.stack(z.blocks)
    else:
        raise ValueError(f"{name} has blocks of dimensions "
                         f"{sorted(set(z.dims))}, expected {shape}")
    return z if shape is None else _check_shape(z, shape, name)


def _check_shape(a, shape, name):
    """a, if its shape is ``shape``."""
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


@dataclass
class IterateState:
    """One (z, w) iterate together with the last S evaluation (x, y)."""

    z: BlockVector
    w: BlockVector
    x: Optional[BlockVector] = None
    y: Optional[BlockVector] = None


@dataclass
class StarNormContext:
    """The scaled product norm ||(z, w)||^2 = ||z||^2 + gamma <E^{-1}w, w>.
    z is a BlockVector or a stacked array; w a BlockVector, a list of blocks
    or their padded rows (see ``_dual_rows``)."""

    gamma: float
    E_diag: np.ndarray

    def inner(self, z1, w1, z2, w2):
        # a batch of one row product per dual block, then weighted by 1/eta
        rows = _dual_rows(w1)[:, None] @ _dual_rows(w2)[:, :, None]
        inv_eta = 1.0 / np.asarray(self.E_diag, dtype=float)
        return (float(np.vdot(_stacked(z1), _stacked(z2)))
                + self.gamma * float(rows.ravel() @ inv_eta))

    def norm(self, z, w):
        return float(np.sqrt(max(self.inner(z, w, z, w), 0.0)))


@dataclass
class SolveOptions:
    max_iters: int = 10_000
    residual_tol: float = 1e-10
    lambda_schedule: Optional[float] = None   # one lambda; None: 0.9 lambda_max
    record_every: int = 1


# one record per recorded iteration; the objective is None when solve was
# given no objective, and time_ms is cumulative wall time
RECORD_COLUMNS = ("iter", "residual", "consensus_gap", "objective", "time_ms")


@dataclass
class SolveReport:
    iters_run: int
    records: List[Tuple[int, float, float, Optional[float], float]]
    final: IterateState
    dual_certificate: Optional[BlockVector]
    lambda_used: float
    stop_reason: str   # "converged", "max_iters" or "diverged"

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def residual_history(self):
        return [(r[0], r[1]) for r in self.records]

    @property
    def objective_history(self):
        """(iter, objective) of the records that have an objective."""
        return [(r[0], r[3]) for r in self.records if r[3] is not None]

    @property
    def time_history(self):
        return [(r[0], r[4]) for r in self.records]


def _combo(row):
    """A linear combination of stacked rows: the index i alone when ``row``
    picks row i with coefficient exactly 1, so that row i passes as it is,
    else the first to last nonzero (empty if none) and their coefficients."""
    nz = np.flatnonzero(row)
    cols = slice(int(nz[0]), int(nz[-1]) + 1) if nz.size else slice(0, 0)
    coef = row[cols]
    return (cols.start, None) if coef.tolist() == [1.0] else (cols, coef)


def _dual_rows(w, dims=None, name="w"):
    """The dual blocks of w as the rows of one 2-D array, zero-padded to the
    longest; such an array passes through.  Blocks must have sizes ``dims``,
    and such an array their padded shape, when given."""
    if isinstance(w, np.ndarray) and w.ndim == 2:
        return w if dims is None else _check_shape(
            w, (len(dims), max(dims, default=0)), name)
    sizes = [np.size(b) for b in w]
    if dims is not None and sizes != dims:
        raise ValueError(f"{name} must hold {len(dims)} blocks of dimensions "
                         f"{dims}")
    W = np.zeros((len(sizes), max(sizes, default=0)))
    for row, b, g in zip(W, w, sizes):
        row[:g] = np.ravel(b)
    return W


class EvalPlan:
    """The forward substitution of one scheme on one problem, compiled once,
    for an explicit scheme (``check_explicit``) whose n, r and p are the
    problem's numbers of A_i, L_k and C_j; any other is refused.  The C(Rx),
    C(P^T x) and L^*(E L K x - w) images share one stack, in the order the
    rows first need them.  Row i lists the images first needed there, with
    their arguments, and at most two sums, N[i, :i] over the x blocks and
    -gamma times row i of P - Q, Q and H over the images, both divided by
    delta_i (as is M, in ``Md``); each argument and sum is a ``_combo``.  A
    row that repeats the previous row's coefficients wherever that row has a
    nonzero (the complete family, below each pivot) has mode "run" in
    ``modes``: its sums hold only its new coefficients, added to the running
    sum that the previous row ("start" or "run") left.  ``Ht`` is H^T when a
    column of H mixes several x_i, so that (H^T x)_k is one product."""

    def __init__(self, scheme, problem):
        s, gamma = scheme, scheme.gamma
        for name, ops in (("n", "A_i"), ("r", "L_k"), ("p", "C_j")):
            have, want = getattr(s, name), getattr(problem, name)
            if have != want:
                raise ValueError(f"the scheme has {name} = {have} but the "
                                 f"problem has {want} operators {ops}")
        if not check_explicit(s):
            raise ValueError("scheme is implicit (not strictly lower "
                             "triangular); the forward-substitution "
                             "evaluation does not apply")
        coefs = (s.P - s.Q, s.Q, s.H)   # per image kind, one column per image

        def first_rows(a):   # first row with a nonzero, per column; n if none
            nz = a != 0.0
            return np.where(nz.any(axis=0), nz.argmax(axis=0), s.n)

        images = sorted((int(f), kind, j) for kind, a in enumerate(coefs)
                        for j, f in enumerate(first_rows(a)) if f < s.n)
        G = np.zeros((s.n, len(images)))
        for t, (_, kind, j) in enumerate(images):
            G[:, t] = -gamma * coefs[kind][:, j] / s.D_diag
        self.n_images = len(images)
        self.Md = s.M / s.D_diag[:, None]
        self.dims = [blk.L.out_dim for blk in problem.BL_list]
        self.slices = [(k, slice(0, g)) for k, g in enumerate(self.dims)]
        self.eta = np.repeat(s.E_diag[:, None], max(self.dims, default=0), 1)
        self.inv_eta = 1.0 / self.eta   # per element: faster than broadcast
        # row i's coefficients over the x blocks, then over the images
        coef = np.hstack([np.tril(s.N, -1) / s.D_diag[:, None], G])
        prev = np.zeros(coef.shape[1])
        self.rows, self.modes = [], []
        for i in range(s.n):
            new = [(t, kind, j) for t, (f, kind, j) in enumerate(images)
                   if f == i]
            new_C = [(t, j, _combo(s.R[j, :i] if kind == 0 else s.P[:i, j]))
                     for t, kind, j in new if kind < 2]
            new_L = [(t, j, self.slices[j], _combo(s.K[j, :i]),
                      float(s.E_diag[j])) for t, kind, j in new if kind == 2]
            c, old = coef[i], prev != 0.0
            run = old.any() and np.array_equal(c[old], prev[old])
            prev = c
            if run:   # sum only the new coefficients, onto the previous sum
                c = np.where(old, 0.0, c)
                self.modes[-1] = self.modes[-1] or "start"
            self.modes.append("run" if run else None)
            sums = [(a, *_combo(row)) for a, row in enumerate(
                np.split(c, [s.n])) if np.any(row)]
            self.rows.append((new_C, new_L, sums, gamma / s.D_diag[i]))
        several = np.count_nonzero(s.H, axis=0) > 1
        self.Ht = np.ascontiguousarray(s.H.T) if several.any() else None
        # per dual block: K[k] when no row needed L_k (K x)_k, and H[:, k]
        f_H = first_rows(s.H)
        self.duals = [(k, self.slices[k],
                       _combo(s.K[k]) if f_H[k] == s.n else None,
                       _combo(s.H[:, k]), 1.0 / float(s.E_diag[k]))
                      for k in range(s.r)]

    def split(self, v):
        """The blocks of padded dual rows, as views."""
        return [v[sl] for sl in self.slices]


def eval_S(scheme, problem, z, w, collect=False, plan=None):
    """Evaluate the solution operator: forward substitution for the primal
    blocks x_1..x_n followed by the dual resolvents for y.  Row i solves
    x_i = J_{(gamma/delta_i) A_i}(u_i) with
        u_i = (1/delta_i) [ (Mz)_i + (Nx)_i - gamma (Phi x)_i
              - gamma (H L^*(E L K x - w))_i ]
    where Phi = (P - Q) C(Rx) + Q C(P^T x).  The x_i are the rows of one
    (n, d) array, and ``plan`` (compiled when omitted) gives each row's
    images and sums.  A BlockVector z gives BlockVectors x and y; a stacked
    z gives the (n, d) array x, and y as one row per dual block, zero-padded
    (w may come either way).  ``collect`` adds the (n, d) array U of the u_i
    and L_k (K x)_k and L_k (H^T x)_k, like y or as lists of blocks.
    """
    plan = plan or EvalPlan(scheme, problem)
    A, C, BL = problem.A_list, problem.C_list, problem.BL_list
    dot = np.dot   # on one-row products much cheaper than @
    w = _dual_rows(w, plan.dims)
    d = problem.d
    # row i of U is (D^{-1} M z)_i; the sums add in
    U = plan.Md @ _stacked(z, (scheme.m, d))
    # every product below reads only rows and images already written
    X, S = np.empty((len(plan.rows), d)), np.empty((plan.n_images, d))
    LKx, LHx = np.zeros(w.shape), np.zeros(w.shape)   # zero padded
    stacks = (X, S)
    T = np.empty(d) if "start" in plan.modes else None   # the running sum

    def combo(a, c, coef):   # a _combo of the rows of a
        return a[c] if coef is None else dot(coef, a[c])

    for i, ((new_C, new_L, sums, step_i), mode) in enumerate(
            zip(plan.rows, plan.modes)):
        for t, j, spec in new_C:
            S[t] = C[j](combo(X, *spec))
        for t, k, sl, spec, eta in new_L:
            L = BL[k].L
            lkx = LKx[sl] = L(combo(X, *spec))
            S[t] = L.adjoint(eta * lkx - w[sl])
        u = U[i] if mode is None else T
        if mode == "start":
            T.fill(0.0)
        for a, c, coef in sums:
            u += combo(stacks[a], c, coef)
        if mode is not None:
            U[i] += T
        X[i] = A[i](step_i, U[i])

    HtX = None if plan.Ht is None else plan.Ht @ X
    for k, sl, K_arg, H_arg, _ in plan.duals:
        L = BL[k].L
        if K_arg is not None:   # column k of H is zero, so no row needed it
            LKx[sl] = L(combo(X, *K_arg))
        LHx[sl] = L(combo(X, *H_arg) if HtX is None else HtX[k])
    # y holds the B arguments LKx - w / eta + LHx, then their resolvents
    y = np.multiply(w, plan.inv_eta)
    np.subtract(LKx, y, out=y)
    y += LHx
    for k, sl, _, _, inv_eta in plan.duals:
        y[sl] = BL[k].B(inv_eta, y[sl])

    if isinstance(z, BlockVector):
        X, y = BlockVector(X), BlockVector(plan.split(y))
        LKx, LHx = plan.split(LKx), plan.split(LHx)
    return (X, y, U, LKx, LHx) if collect else (X, y)


def eval_Gamma(scheme, problem, z, w, check=True, plan=None):
    """The displacement map: gz = M^T x and gw_k = eta_k (L_k (H^T x)_k - y_k),
    so that T(z, w) = (z, w) - (gz, gw).  BlockVectors in give BlockVectors
    out; a stacked z gives stacked gz and x and, as in eval_S, gw and y as
    padded rows.  ``check`` selects nothing: the plan refuses an implicit
    scheme either way."""
    plan = plan or EvalPlan(scheme, problem)
    X, y, _, _, LHx = eval_S(scheme, problem, _stacked(
        z, (scheme.m, problem.d)), w, collect=True, plan=plan)
    gz = scheme.M.T @ X
    gw = np.subtract(LHx, y, out=LHx)
    gw *= plan.eta
    if isinstance(z, BlockVector):
        return tuple(map(BlockVector, (gz, plan.split(gw), X, plan.split(y))))
    return gz, gw, X, y


def residual_star(scheme, gz, gw, lambda_t):
    """(1/lambda) ||(Id - T)(z, w)||_star^2 with (Id - T) = Gamma."""
    lambda_t = _check_lambda(lambda_t)
    ctx = StarNormContext(gamma=scheme.gamma, E_diag=scheme.E_diag)
    return ctx.inner(gz, gw, gz, gw) / lambda_t


def step(scheme, problem, state, lambda_t, lambda_max=None):
    """One relaxed iteration (z, w) <- (z, w) - lambda_t * Gamma(z, w)."""
    lambda_t = _check_lambda(
        lambda_t, math.inf if lambda_max is None else lambda_max)
    gz, gw, x, y = eval_Gamma(scheme, problem, state.z, state.w)
    return IterateState(z=state.z - lambda_t * gz,
                        w=state.w - lambda_t * gw, x=x, y=y)


def check_scheme(scheme, ell, L_norms, all_cocoercive):
    """The regime (cocoercive when every C_j is cocoercive and Q = 0, else
    lipschitz), the StandingReport and the StepBounds of a scheme for
    Lipschitz constants ``ell`` and norms ||L_k||, or in place of the bounds
    the ValueError that computing them raised."""
    s = scheme
    lipschitz = not all_cocoercive or bool(np.any(s.Q))
    regime = "lipschitz" if lipschitz else "cocoercive"
    rep = validate_standing(s, s.r > 0, s.p > 0, check_q=lipschitz)
    try:
        tau = compute_tau(compute_UW(s, need_W=lipschitz), ell, regime)
        bounds = step_bounds(tau, L_norms, regime)
    except ValueError as exc:
        bounds = exc
    return regime, rep, bounds


def consensus_gap(x):
    """Largest distance between two primal blocks, from the Gram matrix of
    their offsets from the first block: none is longer than the gap, so none
    cancels.  Adding and removing 2^-900 keeps offsets above 1e-254 exact and
    zeroes subnormal ones, which would make the product many times slower."""
    X = _stacked(x)
    Y = np.subtract(X, X[0])
    Y += 2.0 ** -900
    Y -= 2.0 ** -900
    G = Y @ Y.T
    sq = np.diag(G)
    return float(np.sqrt(max(np.max(sq[:, None] + sq - 2.0 * G), 0.0)))


def solve(scheme, problem, z0=None, w0=None, opts=None, objective=None):
    """Run the relaxed fixed-point iteration from (z0, w0) and report how it
    stopped: ``stop_reason`` is "converged" when the scaled residual drops to
    ``residual_tol``, "max_iters" when the budget runs out, and "diverged" at
    the first non-finite residual, which is recorded.  A NaN or infinite
    entry in z0 or w0 is refused, and lambda, one number, is checked, before
    the first iteration; lambda <= 1 + LAMBDA_SLACK keeps each state finite."""
    opts = opts or SolveOptions()
    for name, kind, what in (("max_iters", numbers.Integral, "an integer"),
                             ("record_every", numbers.Integral, "an integer"),
                             ("residual_tol", numbers.Real, "a number")):
        value = getattr(opts, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} = {value!r} is not {what}")
    if opts.max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if opts.record_every < 1:
        raise ValueError("record_every must be positive")
    if not opts.residual_tol >= 0:
        raise ValueError(f"residual_tol = {opts.residual_tol} must be >= 0")
    s = scheme
    _, rep, bounds = check_scheme(
        s, problem.lipschitz_constants,
        [blk.L.norm() for blk in problem.BL_list], problem.all_cocoercive)
    if not rep.all_pass:
        raise ValueError(f"scheme fails structural validation: {rep.as_dict()}")
    plan = EvalPlan(s, problem)
    if isinstance(bounds, ValueError):
        raise bounds
    lam_max = bounds.lambda_max(s.gamma)
    lam = _check_lambda(0.9 * lam_max if opts.lambda_schedule is None
                        else opts.lambda_schedule, lam_max, "lambda_schedule")

    z = (np.array(_stacked(z0, (s.m, problem.d), "z0"), dtype=float)
         if z0 is not None else np.zeros((s.m, problem.d)))
    w = (np.array(_dual_rows(w0, plan.dims, "w0"), dtype=float)
         if w0 is not None else np.zeros(plan.eta.shape))
    for name, a in (("z0", z), ("w0", w)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has a NaN or infinite entry")

    def record():
        return (t, res, consensus_gap(x),
                None if objective is None else float(objective(x[0])),
                1e3 * (time.perf_counter() - t0))

    records = []
    stop = "max_iters"
    t0 = time.perf_counter()
    # a diverging run overflows in res, the records and s_bar, silently
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(opts.max_iters + 1):
            gz, gw, x, y = eval_Gamma(s, problem, z, w, plan=plan)
            res = residual_star(s, gz, gw, lam)
            # the stopping rule rides on the recording cadence: records and
            # the convergence test happen every record_every iterations, but
            # the last iteration and a non-finite residual are always recorded
            if not math.isfinite(res):
                stop = "diverged"
                records.append(record())
                break
            if t % opts.record_every == 0 or t == opts.max_iters:
                records.append(record())
                if res <= opts.residual_tol:
                    stop = "converged"
                if stop == "converged" or t == opts.max_iters:
                    break
            # lam <= lam_max + LAMBDA_SLACK <= 1 + 1e-12, gamma > 0, E > 0:
            # from a finite state, an update overflows only where |lam g| >=
            # 2^970, whose square made res infinite; so kept states are finite
            z_next = np.multiply(gz, -lam, out=gz)   # z - lam * gz, in gz
            z_next += z
            w_next = np.multiply(gw, -lam, out=gw)
            w_next += w
            z, w = z_next, w_next

        s_bar = None
        if s.r > 0:
            s_bar = BlockVector([eta * blk.L(kx) - wk for eta, blk, kx, wk in
                                 zip(s.E_diag, problem.BL_list, s.K @ x,
                                     plan.split(w))])
    return SolveReport(
        iters_run=t, records=records,
        final=IterateState(BlockVector(z), BlockVector(plan.split(w)),
                           BlockVector(x), BlockVector(plan.split(y))),
        dual_certificate=s_bar, lambda_used=lam, stop_reason=stop)


def certify_solution(scheme, problem, state, tol=1e-5):
    """Certificate report for a converged state.

    Re-evaluates S at (z, w) collecting the resolvent arguments, extracts
    a_i in A_i x_i from them, recovers the dual blocks
    s_k = eta_k L_k (K x)_k - w_k, and reports (a) the consensus gap,
    (b) the membership residuals ||L_k xbar - J_{B_k}(L_k xbar + s_k)||,
    and (c) the norm of a_total + sum L_k^* s_k + sum C_j xbar."""
    s, plan = scheme, EvalPlan(scheme, problem)
    w = _dual_rows(state.w, plan.dims)
    X, y, U, LKx, _ = eval_S(s, problem, _stacked(state.z, (s.m, problem.d)),
                             w, collect=True, plan=plan)
    xbar = X.sum(axis=0) / s.n
    gap = consensus_gap(X)

    # a_i = (delta_i / gamma)(u_i - x_i) lies in A_i x_i by the resolvent
    # definition; the Phi and dual terms are already inside u_i.
    total = (s.D_diag / s.gamma) @ (U - X)

    memberships = []
    for (k, sl), blk in zip(plan.slices, problem.BL_list):
        s_k = s.E_diag[k] * LKx[k, sl] - w[k, sl]
        total += blk.L.adjoint(s_k)
        lx = blk.L(xbar)
        memberships.append(float(np.linalg.norm(lx - blk.B(1.0, lx + s_k))))
    for C in problem.C_list:
        total += C(xbar)
    inclusion = float(np.linalg.norm(total))
    ok = gap <= tol and inclusion <= tol and all(v <= tol for v in memberships)
    return {"consensus_gap": gap, "memberships": memberships,
            "inclusion_residual": inclusion, "ok": bool(ok)}


def export_report_csv(report, path):
    """Write the records under a RECORD_COLUMNS header."""
    write_csv(path, report.records, RECORD_COLUMNS)


def export_state_json(report, path):
    """Final state as JSON: the consensus primal block and the dual blocks."""
    s = ([list(b) for b in report.dual_certificate.blocks]
         if report.dual_certificate is not None else [])
    write_json(path, {"x": list(report.final.x[0]), "s": s})
