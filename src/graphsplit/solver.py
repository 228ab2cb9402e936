"""Relaxed fixed-point solver: the solution operator S, the displacement
map Gamma, residual tracking in the scaled product norm, and solution
certification.  The public functions take and return BlockVectors; inside,
primal blocks are the rows of one array and dual blocks a list of arrays."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .linalg import BlockVector, kron_apply  # noqa: F401  (re-exported)
from .scheme import check_explicit, compute_UW, compute_tau, step_bounds, \
    validate_standing, dumps_json

__all__ = [
    "IterateState", "StarNormContext", "SolveOptions", "SolveReport",
    "DivergenceError", "EvalPlan", "eval_S", "eval_Gamma", "step", "solve",
    "residual_star", "certify_solution", "default_regime",
    "export_report_csv", "export_state_json",
]


def _stacked(z):
    """The primal blocks of z as the rows of one 2-D array."""
    return (np.stack(z.blocks) if isinstance(z, BlockVector)
            else np.asarray(z, dtype=float))


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
    z is a BlockVector or a stacked array, w a BlockVector or a list."""

    gamma: float
    E_diag: np.ndarray

    def inner(self, z1, w1, z2, w2):
        acc = float(np.vdot(_stacked(z1), _stacked(z2)))
        for k, eta in enumerate(self.E_diag):
            acc += self.gamma / eta * float(w1[k] @ w2[k])
        return acc

    def norm(self, z, w):
        return float(np.sqrt(max(self.inner(z, w, z, w), 0.0)))


@dataclass
class SolveOptions:
    max_iters: int = 10_000
    residual_tol: float = 1e-10
    lambda_schedule: Optional[object] = None   # constant or callable t -> lambda
    record_every: int = 1

    def lam(self, t, default):
        if self.lambda_schedule is None:
            return default
        if callable(self.lambda_schedule):
            return float(self.lambda_schedule(t))
        return float(self.lambda_schedule)


@dataclass
class SolveReport:
    iters_run: int
    converged: bool
    residual_history: List[Tuple[int, float]]
    consensus_history: List[Tuple[int, float]]
    objective_history: List[Tuple[int, float]]
    time_history: List[Tuple[int, float]]   # cumulative milliseconds
    final: IterateState
    dual_certificate: Optional[BlockVector]
    lambda_used: float
    stop_reason: str   # "converged", "max_iters" or "diverged"


class DivergenceError(RuntimeError):
    """A non-finite iterate; ``report`` ends at the last finite one."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _require_explicit(scheme):
    if not check_explicit(scheme)[0]:
        raise ValueError("scheme is implicit (not strictly lower triangular); "
                         "the forward-substitution evaluation does not apply")


def _span(row, scale=1.0):
    """The first to last nonzero of a row (empty if none), times scale."""
    nz = np.flatnonzero(row)
    cols = slice(int(nz[0]), int(nz[-1]) + 1) if nz.size else slice(0, 0)
    return cols, scale * row[cols]


class EvalPlan:
    """The forward substitution of one scheme, compiled from the scheme
    alone.  Row i lists the C_j and L_k images first needed there, with the
    coefficients of their arguments; its sums over the x blocks (N[i, :i])
    and over the C(Rx), C(P^T x) and L^*(E L K x - w) images (-gamma times
    row i of P - Q, Q and H); and delta_i, gamma / delta_i.  Each sum reads
    the span of its nonzeros in a zero-initialised stack of blocks/images."""

    def __init__(self, scheme):
        s, gamma = scheme, scheme.gamma
        PQ = s.P - s.Q

        def first_rows(a):   # first row with a nonzero, per column; n if none
            nz = a != 0.0
            return np.where(nz.any(axis=0), nz.argmax(axis=0), s.n)

        f_R, f_P, f_H = first_rows(PQ), first_rows(s.Q), first_rows(s.H)
        self.rows = []
        for i in range(s.n):
            new_C = [(kind, int(j), *_span(arg[j, :i]))
                     for kind, f, arg in ((1, f_R, s.R), (2, f_P, s.P.T))
                     for j in np.flatnonzero(f == i)]
            new_L = [(int(k), *_span(s.K[k, :i]), float(s.E_diag[k]))
                     for k in np.flatnonzero(f_H == i)]
            sums = [(kind, *_span(row, scale)) for kind, row, scale in (
                (0, s.N[i, :i], 1.0), (1, PQ[i], -gamma),
                (2, s.Q[i], -gamma), (3, s.H[i], -gamma)) if np.any(row)]
            self.rows.append((new_C, new_L, sums, float(s.D_diag[i]),
                              gamma / s.D_diag[i]))
        # per dual block: K[k] when no row needed L_k (K x)_k, and H[:, k]
        self.duals = [(k, _span(s.K[k]) if f_H[k] == s.n else None,
                       _span(s.H[:, k]), float(s.E_diag[k]))
                      for k in range(s.r)]
        self.stacks = [(s.p, (f_R < s.n).any()), (s.p, (f_P < s.n).any()),
                       (s.r, (f_H < s.n).any())]


def eval_S(scheme, problem, z, w, check=True, collect=False, plan=None):
    """Evaluate the solution operator: forward substitution for the primal
    blocks x_1..x_n followed by the dual resolvents for y.  Row i solves
    x_i = J_{(gamma/delta_i) A_i}(u_i) with
        u_i = (1/delta_i) [ (Mz)_i + (Nx)_i - gamma (Phi x)_i
              - gamma (H L^*(E L K x - w))_i ]
    where Phi = (P - Q) C(Rx) + Q C(P^T x).  The x_i are the rows of one
    (n, d) array, and ``plan`` (compiled when omitted) gives each row's
    images and sums.  A BlockVector z gives BlockVectors x and y, a stacked
    z an array and a list.  ``collect`` adds the (n, d) array U of the u_i
    and the lists of L_k (K x)_k and L_k (H^T x)_k.
    """
    if check:
        _require_explicit(scheme)
    plan = plan or EvalPlan(scheme)
    A, C, BL = problem.A_list, problem.C_list, problem.BL_list
    dot = np.dot   # on one-row products much cheaper than @
    n, d = len(plan.rows), problem.d
    Mz = scheme.M @ _stacked(z)
    X, U = np.zeros((n, d)), np.empty((n, d))
    stacks = [X] + [np.zeros((size, d)) if used else None
                    for size, used in plan.stacks]   # C(Rx), C(P^T x), L^*
    LKx = [None] * len(plan.duals)

    for i, (new_C, new_L, sums, delta, step_i) in enumerate(plan.rows):
        for kind, j, cols, coef in new_C:
            stacks[kind][j] = C[j](dot(coef, X[cols]))
        for k, cols, coef, eta in new_L:
            L = BL[k].L
            LKx[k] = L(dot(coef, X[cols]))
            stacks[3][k] = L.adjoint(eta * LKx[k] - w[k])
        v = Mz[i]   # a view: Mz is a temporary, so the sums add into it
        for kind, cols, coef in sums:
            v += dot(coef, stacks[kind][cols])
        U[i] = v / delta
        X[i] = A[i](step_i, U[i])

    y, LHx = [], []
    for (k, K_span, (cols, coef), eta), blk in zip(plan.duals, BL):
        if K_span is not None:   # column k of H is zero, so no row needed it
            LKx[k] = blk.L(dot(K_span[1], X[K_span[0]]))
        LHx.append(blk.L(dot(coef, X[cols])))
        y.append(blk.B(1.0 / eta, LKx[k] - w[k] / eta + LHx[k]))

    if isinstance(z, BlockVector):
        X, y = BlockVector(X), BlockVector(y)
    return (X, y, U, LKx, LHx) if collect else (X, y)


def eval_Gamma(scheme, problem, z, w, check=True, plan=None):
    """The displacement map: gz = M^T x and gw_k = eta_k (L_k (H^T x)_k - y_k),
    so that T(z, w) = (z, w) - (gz, gw).  BlockVectors in give BlockVectors
    out; a stacked z gives a stacked gz and x and lists gw and y."""
    X, y, _, _, LHx = eval_S(scheme, problem, _stacked(z), w, check=check,
                             collect=True, plan=plan)
    gz = scheme.M.T @ X
    gw = [eta * (lhx - yk) for eta, lhx, yk in zip(scheme.E_diag, LHx, y)]
    if isinstance(z, BlockVector):
        return BlockVector(gz), BlockVector(gw), BlockVector(X), BlockVector(y)
    return gz, gw, X, y


def residual_star(scheme, gz, gw, lambda_t):
    """(1/lambda) ||(Id - T)(z, w)||_star^2 with (Id - T) = Gamma."""
    if lambda_t <= 0:
        raise ValueError("lambda_t must be positive")
    ctx = StarNormContext(gamma=scheme.gamma, E_diag=scheme.E_diag)
    return ctx.inner(gz, gw, gz, gw) / lambda_t


def step(scheme, problem, state, lambda_t, lambda_max=None, check=True):
    """One relaxed iteration (z, w) <- (z, w) - lambda_t * Gamma(z, w)."""
    if lambda_t <= 0:
        raise ValueError("lambda_t must be positive")
    if lambda_max is not None and lambda_t > lambda_max + 1e-15:
        raise ValueError(f"lambda_t = {lambda_t} exceeds bound {lambda_max}")
    gz, gw, x, y = eval_Gamma(scheme, problem, state.z, state.w, check=check)
    return IterateState(z=state.z - lambda_t * gz,
                        w=state.w - lambda_t * gw, x=x, y=y)


def default_regime(scheme, problem):
    """Cocoercive when every C_j is cocoercive and Q = 0, else lipschitz."""
    if problem.all_cocoercive and not np.any(scheme.Q):
        return "cocoercive"
    return "lipschitz"


def consensus_gap(x):
    """Largest distance between two primal blocks, from the Gram matrix of
    their offsets from the first block: none is longer than the gap, so none
    cancels.  Adding and removing 2^-900 keeps offsets above 1e-254 exact and
    zeroes subnormal ones, which would make the product many times slower."""
    X = _stacked(x)
    Y = X - X[0] + 2.0 ** -900 - 2.0 ** -900
    G = Y @ Y.T
    sq = np.diag(G)
    return float(np.sqrt(max(np.max(sq[:, None] + sq - 2.0 * G), 0.0)))


def solve(scheme, problem, z0=None, w0=None, opts=None, objective=None):
    """Run the relaxed fixed-point iteration from (z0, w0) until the scaled
    residual drops below tolerance or the iteration budget runs out.  A
    non-finite iterate raises DivergenceError carrying the report so far."""
    opts = opts or SolveOptions()
    if opts.max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    s = scheme
    has_B, has_C = problem.r > 0, problem.p > 0
    regime = default_regime(s, problem)
    rep = validate_standing(s, has_B, has_C, check_q=(regime == "lipschitz"))
    if not rep.all_pass:
        raise ValueError(f"scheme fails structural validation: {rep.as_dict()}")
    _require_explicit(s)

    uw = compute_UW(s, need_W=(regime == "lipschitz"))
    tau = compute_tau(uw, problem.lipschitz_constants, regime)
    norms = [blk.L.norm() for blk in problem.BL_list]
    bounds = step_bounds(tau, norms, regime)
    bounds.check_gamma(s.gamma)
    lam_max = bounds.lambda_max(s.gamma)
    lam_default = 0.9 * lam_max

    plan = EvalPlan(s)
    z = (np.array(_stacked(z0), dtype=float) if z0 is not None
         else np.zeros((s.m, problem.d)))
    if z.shape != (s.m, problem.d):
        raise ValueError(f"z0 must hold {s.m} blocks of dimension {problem.d}")
    w = ([np.array(b, dtype=float) for b in w0] if w0 is not None
         else [np.zeros(blk.L.out_dim) for blk in problem.BL_list])

    residual_history, consensus_history = [], []
    objective_history, time_history = [], []
    stop = "max_iters"
    t0 = time.perf_counter()
    for t in range(opts.max_iters + 1):
        lam = opts.lam(t, lam_default)
        if not 0 < lam <= lam_max + 1e-12:
            raise ValueError(f"lambda = {lam} outside (0, {lam_max}]")
        gz, gw, x, y = eval_Gamma(s, problem, z, w, check=False, plan=plan)
        res = residual_star(s, gz, gw, lam)
        # the stopping rule rides on the recording cadence: history entries
        # and the convergence test happen every record_every iterations
        record = (t % opts.record_every == 0) or t == opts.max_iters
        if record:
            residual_history.append((t, res))
            consensus_history.append((t, consensus_gap(x)))
            if objective is not None:
                objective_history.append((t, float(objective(x[0]))))
            time_history.append((t, 1e3 * (time.perf_counter() - t0)))
            if res <= opts.residual_tol:
                stop = "converged"
            if stop == "converged" or t == opts.max_iters:
                break
        z_next = z - lam * gz
        w_next = [wk - lam * gk for wk, gk in zip(w, gw)]
        if not (np.isfinite(z_next).all()
                and all(np.isfinite(wk).all() for wk in w_next)):
            stop = "diverged"
            break
        z, w = z_next, w_next

    s_bar = None
    if s.r > 0:
        Kx = s.K @ x
        s_bar = BlockVector([s.E_diag[k] * blk.L(Kx[k]) - w[k]
                             for k, blk in enumerate(problem.BL_list)])
    report = SolveReport(
        iters_run=t, converged=stop == "converged",
        residual_history=residual_history,
        consensus_history=consensus_history,
        objective_history=objective_history,
        time_history=time_history,
        final=IterateState(*(BlockVector(a) for a in (z, w, x, y))),
        dual_certificate=s_bar, lambda_used=lam, stop_reason=stop)
    if stop == "diverged":
        raise DivergenceError(f"non-finite iterate at iteration {t + 1}; "
                              "check step-size configuration", report)
    return report


def certify_solution(scheme, problem, state, tol=1e-5):
    """Certificate report for a converged state.

    Re-evaluates S at (z, w) collecting the resolvent arguments, extracts
    a_i in A_i x_i from them, recovers the dual blocks
    s_k = eta_k L_k (K x)_k - w_k, and reports (a) the consensus gap,
    (b) the membership residuals ||L_k xbar - J_{B_k}(L_k xbar + s_k)||,
    and (c) the norm of a_total + sum L_k^* s_k + sum C_j xbar."""
    s = scheme
    X, y, U, LKx, _ = eval_S(s, problem, _stacked(state.z), state.w,
                             collect=True)
    xbar = X.sum(axis=0) / s.n
    gap = consensus_gap(X)

    # a_i = (delta_i / gamma)(u_i - x_i) lies in A_i x_i by the resolvent
    # definition; the Phi and dual terms are already inside u_i.
    total = (s.D_diag / s.gamma) @ (U - X)

    memberships = []
    for k, blk in enumerate(problem.BL_list):
        s_k = s.E_diag[k] * LKx[k] - np.asarray(state.w[k])
        total += blk.L.adjoint(s_k)
        lx = blk.L(xbar)
        memberships.append(float(np.linalg.norm(lx - blk.B(1.0, lx + s_k))))
    for C in problem.C_list:
        total += C(xbar)
    inclusion = float(np.linalg.norm(total))
    ok = gap <= tol and inclusion <= tol and all(v <= tol for v in memberships)
    return {"consensus_gap": gap, "memberships": memberships,
            "inclusion_residual": inclusion, "ok": bool(ok)}


def export_report_csv(report, path, objective_fallback=""):
    """Write the recorded history as `iter,residual,consensus_gap,objective,
    time_ms` rows."""
    obj = dict(report.objective_history)
    cons = dict(report.consensus_history)
    times = dict(report.time_history)
    with open(path, "w") as fh:
        fh.write("iter,residual,consensus_gap,objective,time_ms\n")
        for t, res in report.residual_history:
            o = obj.get(t, objective_fallback)
            o_str = "%.17g" % o if o != "" else ""
            fh.write("%d,%.17g,%.17g,%s,%.17g\n"
                     % (t, res, cons.get(t, 0.0), o_str, times.get(t, 0.0)))


def export_state_json(report, path):
    """Final state as JSON: the consensus primal block and the dual blocks."""
    x = report.final.x[0] if report.final.x is not None else []
    s = ([list(b) for b in report.dual_certificate.blocks]
         if report.dual_certificate is not None else [])
    with open(path, "w") as fh:
        fh.write(dumps_json({"x": list(np.asarray(x)), "s": s}))
        fh.write("\n")
