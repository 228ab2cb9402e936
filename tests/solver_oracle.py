"""The forward-substitution evaluators as they stood before the stacked
rewrite: per-row ``np.nonzero`` loops with lazily accumulated coefficient
sums.  Kept verbatim as the oracle for the differential tests."""

import numpy as np

from graphsplit.linalg import BlockVector, kron_apply
from graphsplit.scheme import check_explicit
from graphsplit.solver import consensus_gap


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

    Row i solves
        x_i = J_{(gamma/delta_i) A_i}( (1/delta_i) [ (Mz)_i + (Nx)_i
              - gamma (Phi x)_i - gamma (H L^*(E L K x - w))_i ] )
    where Phi = (P - Q) C(Rx) + Q C(P^T x); triangularity guarantees every
    quantity on the right is available when row i is reached.

    With ``collect`` the resolvent arguments u_i and the L K x images are
    returned as well (used by certification).
    """
    if check:
        _require_explicit(scheme)
    s, pb = scheme, problem
    gamma = s.gamma
    Mz = kron_apply(s.M, z)
    x = [None] * s.n
    CR = [None] * s.p    # C_j evaluated at (R x)_j
    CP = [None] * s.p    # C_j evaluated at (P^T x)_j
    LL = [None] * s.r    # L_k^*( eta_k L_k (K x)_k - w_k )
    LKx = [None] * s.r   # L_k (K x)_k
    u = [None] * s.n if collect else None

    def get_CR(j):
        if CR[j] is None:
            arg = np.zeros(pb.d)
            for i in np.nonzero(s.R[j, :])[0]:
                arg += s.R[j, i] * x[i]
            CR[j] = pb.C_list[j](arg)
        return CR[j]

    def get_CP(j):
        if CP[j] is None:
            arg = np.zeros(pb.d)
            for i in np.nonzero(s.P[:, j])[0]:
                arg += s.P[i, j] * x[i]
            CP[j] = pb.C_list[j](arg)
        return CP[j]

    def get_LL(k):
        if LL[k] is None:
            kx = np.zeros(pb.d)
            for i in np.nonzero(s.K[k, :])[0]:
                kx += s.K[k, i] * x[i]
            L = pb.BL_list[k].L
            LKx[k] = L(kx)
            LL[k] = L.adjoint(s.E_diag[k] * LKx[k] - w[k])
        return LL[k]

    for i in range(s.n):
        v = Mz[i].copy()
        for j in np.nonzero(s.N[i, :])[0]:
            v += s.N[i, j] * x[j]
        for j in range(s.p):
            c = s.P[i, j] - s.Q[i, j]
            if c != 0.0:
                v -= gamma * c * get_CR(j)
            if s.Q[i, j] != 0.0:
                v -= gamma * s.Q[i, j] * get_CP(j)
        for k in np.nonzero(s.H[i, :])[0]:
            v -= gamma * s.H[i, k] * get_LL(k)
        arg = v / s.D_diag[i]
        if collect:
            u[i] = arg
        x[i] = pb.A_list[i](gamma / s.D_diag[i], arg)

    y = []
    for k in range(s.r):
        get_LL(k)   # ensures LKx[k] is available
        L = pb.BL_list[k].L
        hx = np.zeros(pb.d)
        for i in np.nonzero(s.H[:, k])[0]:
            hx += s.H[i, k] * x[i]
        arg = LKx[k] - w[k] / s.E_diag[k] + L(hx)
        y.append(pb.BL_list[k].B(1.0 / s.E_diag[k], arg))

    xv, yv = BlockVector(x), BlockVector(y)
    if collect:
        return xv, yv, BlockVector(u), LKx
    return xv, yv


def eval_Gamma(scheme, problem, z, w, check=True):
    """The displacement map: gz = M^T x and gw_k = eta_k (L_k (H^T x)_k - y_k),
    so that T(z, w) = (z, w) - theta (gz, gw)."""
    x, y = eval_S(scheme, problem, z, w, check=check)
    gz = kron_apply(scheme.M.T, x)
    gw = []
    for k in range(scheme.r):
        L = problem.BL_list[k].L
        hx = np.zeros(problem.d)
        for i in np.nonzero(scheme.H[:, k])[0]:
            hx += scheme.H[i, k] * x[i]
        gw.append(scheme.E_diag[k] * (L(hx) - y[k]))
    return gz, BlockVector(gw), x, y


def certify_solution(scheme, problem, state, tol=1e-5):
    """Certificate report for a converged state.

    Re-evaluates S at (z, w) collecting the resolvent arguments, extracts
    a_i in A_i x_i from them, recovers the dual blocks
    s_k = eta_k L_k (K x)_k - w_k, and reports (a) the consensus gap,
    (b) the membership residuals ||L_k xbar - J_{B_k}(L_k xbar + s_k)||,
    and (c) the norm of a_total + sum L_k^* s_k + sum C_j xbar."""
    s = scheme
    x, y, u, LKx = eval_S(s, problem, state.z, state.w, collect=True)
    xbar = sum(x.blocks) / s.n
    gap = consensus_gap(x)

    # a_i = (delta_i / gamma)(u_i - x_i) lies in A_i x_i by the resolvent
    # definition; the Phi and dual terms are already inside u_i.
    total = np.zeros(problem.d)
    for i in range(s.n):
        total += s.D_diag[i] / s.gamma * (u[i] - x[i])

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
