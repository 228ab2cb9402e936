"""Relaxed fixed-point solver: the solution operator S, the displacement
map Gamma, residual tracking in the scaled product norm, and solution
certification."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .linalg import BlockVector, kron_apply
from .scheme import check_explicit, compute_UW, compute_tau, step_bounds, \
    validate_standing, dumps_json

__all__ = [
    "IterateState",
    "StarNormContext",
    "SolveOptions",
    "SolveReport",
    "eval_S",
    "eval_Gamma",
    "step",
    "solve",
    "residual_star",
    "certify_solution",
    "default_regime",
    "export_report_csv",
    "export_state_json",
]


@dataclass
class IterateState:
    """One (z, w) iterate together with the last S evaluation (x, y)."""

    z: BlockVector
    w: BlockVector
    x: Optional[BlockVector] = None
    y: Optional[BlockVector] = None


@dataclass
class StarNormContext:
    """The scaled product norm ||(z, w)||^2 = ||z||^2 + gamma <E^{-1}w, w>."""

    gamma: float
    E_diag: np.ndarray

    def inner(self, z1, w1, z2, w2):
        acc = z1.dot(z2)
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


def _require_explicit(scheme):
    explicit, _ = check_explicit(scheme)
    if not explicit:
        raise ValueError(
            "scheme is implicit (not strictly lower triangular); "
            "the forward-substitution evaluation does not apply"
        )


def eval_S(scheme, problem, z, w, check=True, collect=False):
    """Evaluate the solution operator: forward substitution for the primal
    blocks x_1..x_n followed by the dual resolvents for y.

    Row i solves x_i = J_{(gamma/delta_i) A_i}(u_i) with
        u_i = (1/delta_i) [ (Mz)_i + (Nx)_i - gamma (Phi x)_i
              - gamma (H L^*(E L K x - w))_i ]
    where Phi = (P - Q) C(Rx) + Q C(P^T x).

    The primal blocks are the rows of one (n, d) array X.  Rows i..n-1 are
    still zero when row i is reached, and triangularity keeps them out of
    every sum, so each sum over the x blocks is one matrix product over the
    rows filled so far.  Each C_j and L_k image is evaluated once, at the
    first row with a nonzero coefficient on it; the row sums over these
    images skip the zero coefficients, which are most of them.

    With ``collect`` the (n, d) array U of resolvent arguments u_i and the
    lists of images L_k (K x)_k and L_k (H^T x)_k are returned as well.
    """
    if check:
        _require_explicit(scheme)
    s, pb = scheme, problem
    gamma = s.gamma
    PQ = s.P - s.Q
    Mz = kron_apply(s.M, z)
    X = np.zeros((s.n, pb.d))
    U = np.empty((s.n, pb.d))
    CR = [None] * s.p    # C_j evaluated at (R x)_j
    CP = [None] * s.p    # C_j evaluated at (P^T x)_j
    LL = [None] * s.r    # L_k^*( eta_k L_k (K x)_k - w_k )
    LKx = [None] * s.r   # L_k (K x)_k

    for i in range(s.n):
        Xi = X[:i]
        v = Mz[i] + s.N[i, :i] @ Xi
        for j, C in enumerate(pb.C_list):
            c, q = PQ[i, j], s.Q[i, j]
            if c != 0.0:
                if CR[j] is None:
                    CR[j] = C(s.R[j, :i] @ Xi)
                v -= gamma * c * CR[j]
            if q != 0.0:
                if CP[j] is None:
                    CP[j] = C(s.P[:i, j] @ Xi)
                v -= gamma * q * CP[j]
        for k, blk in enumerate(pb.BL_list):
            h = s.H[i, k]
            if h != 0.0:
                if LL[k] is None:
                    LKx[k] = blk.L(s.K[k, :i] @ Xi)
                    LL[k] = blk.L.adjoint(s.E_diag[k] * LKx[k] - w[k])
                v -= gamma * h * LL[k]
        U[i] = v / s.D_diag[i]
        X[i] = pb.A_list[i](gamma / s.D_diag[i], U[i])

    y, LHx = [], []
    for k, blk in enumerate(pb.BL_list):
        if LKx[k] is None:   # column k of H is zero, so no row needed it
            LKx[k] = blk.L(s.K[k] @ X)
        LHx.append(blk.L(s.H[:, k] @ X))
        arg = LKx[k] - w[k] / s.E_diag[k] + LHx[k]
        y.append(blk.B(1.0 / s.E_diag[k], arg))

    xv, yv = BlockVector(X), BlockVector(y)
    if collect:
        return xv, yv, U, LKx, LHx
    return xv, yv


def eval_Gamma(scheme, problem, z, w, check=True):
    """The displacement map: gz = M^T x and gw_k = eta_k (L_k (H^T x)_k - y_k),
    so that T(z, w) = (z, w) - (gz, gw)."""
    x, y, _, _, LHx = eval_S(scheme, problem, z, w, check=check, collect=True)
    gz = kron_apply(scheme.M.T, x)
    gw = BlockVector([eta * (lhx - yk) for eta, lhx, yk
                      in zip(scheme.E_diag, LHx, y.blocks)])
    return gz, gw, x, y


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
    gap = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            gap = max(gap, float(np.linalg.norm(x[i] - x[j])))
    return gap


def solve(scheme, problem, z0=None, w0=None, opts=None, objective=None):
    """Run the relaxed fixed-point iteration from (z0, w0) until the scaled
    residual drops below tolerance or the iteration budget runs out."""
    opts = opts or SolveOptions()
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

    z = z0.copy() if z0 is not None else BlockVector.zeros([problem.d] * s.m)
    w = (w0.copy() if w0 is not None
         else BlockVector.zeros([blk.L.out_dim for blk in problem.BL_list]))

    residual_history, consensus_history = [], []
    objective_history, time_history = [], []
    x = y = None
    lam = lam_default
    converged = False
    t = 0
    t0 = time.perf_counter()
    for t in range(opts.max_iters + 1):
        lam = opts.lam(t, lam_default)
        if not 0 < lam <= lam_max + 1e-12:
            raise ValueError(f"lambda = {lam} outside (0, {lam_max}]")
        gz, gw, x, y = eval_Gamma(s, problem, z, w, check=False)
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
            converged = bool(res <= opts.residual_tol)
            if converged or t == opts.max_iters:
                break
        z = z - lam * gz
        w = w - lam * gw
        if not (z.isfinite() and w.isfinite()):
            raise RuntimeError(
                f"non-finite iterate at iteration {t + 1}; "
                "check step-size configuration"
            )

    s_bar = None
    if x is not None and s.r > 0:
        Kx = kron_apply(s.K, x)
        s_bar = BlockVector([s.E_diag[k] * blk.L(Kx[k]) - w[k]
                             for k, blk in enumerate(problem.BL_list)])

    return SolveReport(
        iters_run=t, converged=converged,
        residual_history=residual_history,
        consensus_history=consensus_history,
        objective_history=objective_history,
        time_history=time_history,
        final=IterateState(z=z, w=w, x=x, y=y),
        dual_certificate=s_bar,
        lambda_used=lam,
    )


def certify_solution(scheme, problem, state, tol=1e-5):
    """Certificate report for a converged state.

    Re-evaluates S at (z, w) collecting the resolvent arguments, extracts
    a_i in A_i x_i from them, recovers the dual blocks
    s_k = eta_k L_k (K x)_k - w_k, and reports (a) the consensus gap,
    (b) the membership residuals ||L_k xbar - J_{B_k}(L_k xbar + s_k)||,
    and (c) the norm of a_total + sum L_k^* s_k + sum C_j xbar."""
    s = scheme
    x, y, U, LKx, _ = eval_S(s, problem, state.z, state.w, collect=True)
    xbar = sum(x.blocks) / s.n
    gap = consensus_gap(x)

    # a_i = (delta_i / gamma)(u_i - x_i) lies in A_i x_i by the resolvent
    # definition; the Phi and dual terms are already inside u_i.
    total = (s.D_diag / s.gamma) @ (U - np.stack(x.blocks))

    memberships = []
    for k in range(s.r):
        L = problem.BL_list[k].L
        s_k = s.E_diag[k] * LKx[k] - np.asarray(state.w[k])
        total += L.adjoint(s_k)
        lx = L(xbar)
        memberships.append(
            float(np.linalg.norm(lx - problem.BL_list[k].B(1.0, lx + s_k)))
        )
    for C in problem.C_list:
        total += C(xbar)
    inclusion = float(np.linalg.norm(total))
    return {
        "consensus_gap": gap,
        "memberships": memberships,
        "inclusion_residual": inclusion,
        "ok": bool(
            gap <= tol
            and all(v <= tol for v in memberships)
            and inclusion <= tol
        ),
    }


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
