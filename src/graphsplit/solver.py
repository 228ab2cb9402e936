"""Relaxed fixed-point solver: the solution operator S, the displacement
map Gamma, residual tracking in the scaled product norm, and solution
certification.  The public functions take and return BlockVectors; inside,
primal blocks are the rows of one array, and dual blocks the rows of
another, each zero-padded to the longest.

An EvalPlan compiles one scheme on one problem, once, into a tape of numpy
calls bound to buffers that the plan owns, and evaluates one point at a
time.  A constant per row that an elementwise call binds is 0-d for one
row, at its out's shape over rows of up to ROW_MAX entries, and the column
over longer ones (linalg.row_constant), so no call over short rows
broadcasts a column or converts a float.  The kernel eval_S runs the tape;
eval_Gamma, certify_solution and solve share it.  A caller's (z, w) is
copied into the plan's inputs and the outputs are copied out, so what a
public function returns is the caller's own.  solve keeps its iterate in
the plan's inputs, z and w, views of one flat vector, and gz and gw are
views of another: its residual is three calls bound once, summed as
residual_star sums them, and its update two bound calls over the flat
vectors."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .linalg import BlockVector, kron_apply  # noqa: F401  (re-exported)
from .linalg import row_constant
from .scheme import _check_number, check_explicit, compute_UW, compute_tau, \
    step_bounds, validate_standing, write_csv, write_json

__all__ = [
    "IterateState", "StarNormContext", "SolveOptions", "SolveReport",
    "RECORD_COLUMNS",
    "EvalPlan", "eval_S", "eval_Gamma", "step", "solve",
    "residual_star", "certify_solution", "check_scheme",
    "export_report_csv", "export_state_json",
]

LAMBDA_SLACK = 1e-12   # how far lambda may pass lambda_max, in _check_lambda


def _check_lambda(lam, lam_max=math.inf, name="lambda_t"):
    """lam as a float, if it is a number in (0, lam_max + LAMBDA_SLACK]."""
    lam = float(_check_number(name, lam))
    if not (math.isfinite(lam) and 0 < lam <= lam_max + LAMBDA_SLACK):
        raise ValueError(f"{name} = {lam} outside (0, {lam_max}]")
    return lam


def _stacked(z, shape=None, name="z"):
    """The primal blocks of z as the rows of one 2-D array, which must have
    the shape ``shape`` when given; blocks of unequal sizes are refused."""
    if not isinstance(z, BlockVector):
        z = np.asarray(z, dtype=float)
    elif z.dims == (z.dims[:1] if shape is None else [shape[1]]) * len(z):
        z = np.stack(z.blocks)
    else:
        raise ValueError(f"{name} has blocks of dimensions "
                         f"{sorted(set(z.dims))}, expected "
                         f"{shape or 'one size'}")
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


def _star_inner(gamma, E_diag, Z1, W1, Z2, W2):
    """<Z1, Z2> + gamma <E^{-1} W1, W2> of stacked and padded rows."""
    # a batch of one row product per dual block, then weighted by 1/eta
    rows = W1[:, None] @ W2[:, :, None]
    inv_eta = 1.0 / np.asarray(E_diag, dtype=float)
    return float(np.vdot(Z1, Z2)) + gamma * float(rows.ravel() @ inv_eta)


@dataclass
class StarNormContext:
    """The scaled product norm ||(z, w)||^2 = ||z||^2 + gamma <E^{-1}w, w>.
    z is a BlockVector or a stacked array; w a BlockVector, a list of blocks
    or their padded rows (see ``_dual_rows``).  z1 and z2 must have one
    shape, and w1 and w2 one padded shape with a row per entry of E_diag;
    when w1 comes as blocks, w2 must hold blocks of its sizes or their
    padded rows.  A second argument that is the first object is read once."""

    gamma: float
    E_diag: np.ndarray

    def inner(self, z1, w1, z2, w2):
        Z1, W1 = _stacked(z1, name="z1"), _dual_rows(w1)
        Z2 = Z1 if z2 is z1 else _stacked(z2, name="z2")
        W2 = W1 if w2 is w1 else _dual_rows(
            w2, None if W1 is w1 else [np.size(b) for b in w1], "w2")
        if Z1.shape != Z2.shape:
            raise ValueError(f"z1 has shape {Z1.shape} but z2 {Z2.shape}")
        if W1.shape != W2.shape or len(W1) != np.size(self.E_diag):
            raise ValueError(f"w1 and w2 have shapes {W1.shape} and {W2.shape}"
                             f", not one with a row per entry of E_diag")
        return _star_inner(self.gamma, self.E_diag, Z1, W1, Z2, W2)

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


def _combo(coef):
    """A linear combination of stacked rows, by a row or a block of rows of
    coefficients: the rows picked, as they are (a slice when consecutive),
    when each row picks one with coefficient exactly 1; else the first to
    last row read (empty if none) and the coefficients over them."""
    nz = coef != 0.0
    if (nz.sum(axis=-1) == 1).all() and (coef[nz] == 1.0).all():
        p = nz.argmax(axis=-1)   # the rows picked
        run = p.ndim and p.size and (np.diff(p) == 1).all()
        return slice(int(p[0]), int(p[-1]) + 1) if run else p, None
    nz = np.flatnonzero(nz if nz.ndim == 1 else nz.any(axis=0))
    cols = slice(int(nz[0]), int(nz[-1]) + 1) if nz.size else slice(0, 0)
    return cols, coef[..., cols]


def _index(ids):   # a lone row's own (1-D), an even slice (a view), or array
    ids, step = list(ids), (ids[-1] - ids[0]) // max(len(ids) - 1, 1)
    if ids == list(range(ids[0], ids[-1] + 1, step or 1)):
        return slice(ids[0], ids[-1] + 1, step) if step else ids[0]
    return np.array(ids)


def _kind(fs, hook="tape"):
    """The group hook ``hook`` of the operators fs if they are one kind: all
    of exactly one class, which defines the hook itself; else None."""
    kinds = {type(f) for f in fs}
    return vars(kinds.pop()).get(hook) if len(kinds) == 1 else None


def _dual_rows(w, dims=None, name="w", pad=None):
    """The dual blocks of w as the rows of one 2-D array, zero-padded to the
    longest; such an array passes through.  Blocks must have sizes ``dims``,
    and such an array their padded shape, when given; such an array must
    also be zero where the mask ``pad`` is set."""
    if isinstance(w, np.ndarray) and w.ndim == 2:
        if dims is not None:
            _check_shape(w, (len(dims), max(dims, default=0)), name)
        if pad is not None and w[pad].any():
            raise ValueError(f"{name} has a nonzero entry past the block "
                             f"sizes {dims}")
        return w
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
    C(P^T x) and L^*(E L K x - w) images share one stack ``S``, in the order
    the rows first need them; each reads its argument, R_j x, P_j^T x or
    (K x)_k, from its whole row.  Row i has its step gamma / delta_i, a
    mode, and coefficients: row i of N over the x blocks and -gamma times
    row i of P - Q, Q and H over the images, both divided by delta_i (as is
    M, in ``Md``); each argument and sum is a ``_combo``.  A row that
    repeats the previous row's coefficients wherever that row has a nonzero
    (the complete family, below each pivot) has mode "run": it sums only its
    new coefficients, added to the running sum ``T`` that the previous row
    ("start" or "run") left.  A row joins the current level if it reads no
    x block of it, through N or its images' arguments (star: {0},
    {1..n-1}); ``levels`` holds each level's rows.  The plan allocates its
    buffers: the inputs ``z`` and ``w``, views of one flat vector ``v``;
    ``U``, ``X``, ``LKx``, ``LHx`` and ``y``, which eval_S returns;
    eval_Gamma's ``gz`` and ``gw``, views of ``g``, with ``star``, the calls
    of solve's residual; ``S``, ``T`` and scratch, which only the tape
    reads.  Then, in one pass, each
    ``_level`` and the dual ``_tail`` append to ``tape`` the numpy calls,
    bound to those buffers, that evaluate S at ``z`` and ``w`` when run in
    order.  The operators of a group (a level's C_j, L_k or A_i; the tail's
    L_k or B_k) share one call if ``_kind`` finds them one kind, else each
    takes one generic ``_put``.  Every entry writes all of its destination,
    and the padding of the dual rows is zeroed here once, so no buffer is
    cleared per call.  ``scheme`` and ``problem`` are what it compiled."""

    def __init__(self, scheme, problem):
        s, gamma, d = scheme, scheme.gamma, problem.d
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
        G, by_row = np.zeros((s.n, len(images))), [[] for _ in range(s.n)]
        for t, (f, kind, j) in enumerate(images):   # by_row: by first row
            G[:, t] = -gamma * coefs[kind][:, j] / s.D_diag
            by_row[f].append((t, kind, j, (s.R, s.P.T, s.K)[kind][j]))
        self.Md = s.M / s.D_diag[:, None]
        self.dims = [blk.L.out_dim for blk in problem.BL_list]
        self.slices = [(k, slice(0, g)) for k, g in enumerate(self.dims)]
        width, self.inv_E = max(self.dims, default=0), 1.0 / s.E_diag
        self.eta = np.repeat(s.E_diag[:, None], width, 1)
        # per element: faster than broadcast
        self.inv_eta = np.repeat(self.inv_E[:, None], width, 1)
        # the padding of the shorter dual blocks; None when there is none
        self.pad = (np.arange(self.eta.shape[1]) >= np.c_[self.dims]
                    if len(set(self.dims)) > 1 else None)
        shape, md = self.eta.shape, s.m * d
        # (z, w) and (gz, gw) as views of one flat vector each, v and g
        self.v, self.g = (np.zeros(md + self.eta.size) for _ in range(2))
        (self.z, self.w), (self.gz, self.gw) = (
            (a[:md].reshape(s.m, d), a[md:].reshape(shape))
            for a in (self.v, self.g))
        self.U, self.X = np.empty((s.n, d)), np.empty((s.n, d))
        self.LKx, self.LHx, self.y = (np.zeros(shape) for _ in range(3))
        # <gz, gz>, then the row products of gw into an (r, 1, 1) buffer
        # and their product with 1/E: the terms _star_inner sums
        rows = np.empty((s.r, 1, 1))
        self.star = (partial(np.vdot, self.gz, self.gz),
                     partial(np.matmul, self.gw[:, None], self.gw[:, :, None],
                             out=rows),
                     partial(np.matmul, rows.reshape(-1), self.inv_E))
        self.S, self.T = np.empty((len(images), d)), np.empty(d)
        self.tape, self._pool = [partial(np.matmul, self.Md, self.z,
                                         out=self.U)], {}
        # row i's coefficients over the x blocks, then over the images
        coef = np.hstack([s.N / s.D_diag[:, None], G])
        prev = np.zeros(coef.shape[1])
        rows, starts = [], [0]
        for i in range(s.n):
            reads = np.vstack([s.N[i], *(a for *_, a in by_row[i])])
            if reads[:, starts[-1]:].any():   # reads into the level: next
                starts.append(i)
            c, old = coef[i], prev != 0.0
            run = old.any() and np.array_equal(c[old], prev[old])
            prev = c
            if run:   # sum only the new coefficients, onto the previous sum
                c = np.where(old, 0.0, c)
                rows[-1][3] = rows[-1][3] or "start"
            rows.append([i, c, gamma / s.D_diag[i], "run" if run else None])
        self.levels = [list(range(a, b))
                       for a, b in zip(starts, starts[1:] + [s.n])]
        for lv in self.levels:
            self._level([rows[i] for i in lv], [im for i in lv
                                                for im in by_row[i]],
                        coef, s, problem)
        self._tail(s, problem.BL_list)
        self.scheme, self.problem = scheme, problem

    def _scratch(self, shape, slot="arg"):
        """A buffer that the entries of a slot share, each spending it."""
        return self._pool.setdefault((slot, shape), np.empty(shape))

    def _read(self, a, index, slot="arg"):   # a[index], a view unless picked
        rows, cols = index if isinstance(index, tuple) else (
            index, slice(None))
        if not isinstance(rows, np.ndarray):
            return a[rows, cols]
        out = self._scratch((len(rows),) + a.shape[1:], slot)
        self.tape.append(partial(np.take, a, rows, axis=0, out=out))
        return out[:, cols]

    def _sum(self, a, c, coef, slot="arg"):   # the _combo (c, coef) of a
        if coef is None:
            return self._read(a, c, slot)
        out = self._scratch(coef.shape[:-1] + a.shape[1:], slot)
        self.tape.append(partial(np.dot, np.ascontiguousarray(coef), a[c],
                                 out=out))
        return out

    def _apply(self, dst, index, hook, f, *args):
        """Bind dst[index] = f(*args): the calls of the group hook
        ``hook(f, *args, out, scratch)`` of the operators f, into scratch and
        then by one dst.__setitem__ where an index array picks the rows; or,
        with no hook, one generic ``_put`` of the call f."""
        if hook is None:
            return self.tape.append(partial(_put, dst, index, f, *args))
        picked = isinstance(index[0] if isinstance(index, tuple) else index,
                            np.ndarray)
        out = self._scratch(dst[index].shape, "put") if picked else dst[index]
        self.tape += hook(f, *args, out, partial(self._scratch, slot="tmp"))
        if picked:
            self.tape.append(partial(dst.__setitem__, index, out))

    def _resolve(self, dst, src, at, rows, ops, steps):
        """Bind dst[i] = op(step, src[i]) for the resolvents ``ops`` of steps
        ``steps`` on ``rows``: one call on the rows ``at`` if they are one
        kind, else one per row."""
        fs = [getattr(op, "resolvent", None) for op in ops]
        hook = _kind(fs)
        for i, f, step in [(at, fs, steps)] if hook else zip(rows, ops, steps):
            self._apply(dst, i, hook, f, step, src[i])

    def _level(self, rows, new, coef, s, problem):
        """Bind one level, of rows [i, coefficients, step, mode], and the
        images ``new`` that they first need: the C images, one call at their
        arguments (one, if all are one) if they are one kind, else one each;
        L (K x)_k, one call per distinct argument, then S = L^*(eta LKx - w),
        one call, if the L_k are one kind, else both per image; the sums, of
        the block ``coef[at]``, or per row if one runs; and the A_i
        resolvents."""
        BL, X, S, T, U = problem.BL_list, self.X, self.S, self.T, self.U
        ids, _, steps, _ = zip(*rows)
        at = _index(ids)
        new_C = [(t, problem.C_list[j], a) for t, kind, j, a in new
                 if kind < 2]
        fs = [getattr(op, "apply", None) for _, op, _ in new_C]
        hook, R = _kind(fs), np.array([a for *_, a in new_C])
        # one call at their arguments (one row, if all are one), or one each
        for t, f, a in [(_index([t for t, *_ in new_C]), fs, R[0] if (
                R == R[0]).all() else R)] if hook else new_C:
            self._apply(S, t, hook, f, self._sum(X, *_combo(a)))
        new_L = [(t, k) for t, kind, k, _ in new if kind == 2]
        hook = _kind([BL[k].L for _, k in new_L])
        groups = [new_L] if hook else [[im] for im in new_L]
        for group in groups:
            by_arg = {}
            for _, k in group:   # one L call per distinct row of K
                by_arg.setdefault(s.K[k].tobytes(), []).append(k)
            for kk in by_arg.values():
                maps = [BL[k].L for k in kk]
                self._apply(self.LKx, (_index(kk), slice(
                    0, self.dims[kk[0]])), hook, maps if hook else maps[0],
                            self._sum(X, *_combo(s.K[kk[0]])))
        for group in groups:   # S[ts] = L^*(eta LKx[ks] - w[ks])
            ts, ks = zip(*group)
            maps, index = [BL[k].L for k in ks], (_index(ks), slice(
                0, self.dims[ks[0]]))
            lk = self._read(self.LKx, index, "lk")
            wk, arg = self._read(self.w, index, "wk"), self._scratch(lk.shape)
            e = row_constant(s.E_diag[index[0], None], lk.shape[-1],
                             self.eta[index])   # eta's rows at full shape
            self.tape += [partial(np.multiply, e, lk, out=arg),
                          partial(np.subtract, arg, wk, out=arg)]
            self._apply(S, _index(ts), hook and _kind(maps, "adjoint_tape"),
                        maps if hook else maps[0].adjoint, arg)
        for i, c, mode in [(i, c, mode) for i, c, _, mode in rows] if any(
                row[3] for row in rows) else [(at, coef[at], None)]:
            u = U[i] if mode is None else T   # all the rows at once, or a run
            if mode == "start":
                self.tape.append(partial(T.fill, 0.0))
            for a, b in zip((X, S), np.split(c, [s.n], axis=-1)):
                if b.any():
                    self.tape.append(partial(np.add, u, self._sum(
                        a, *_combo(b)), out=u))
            if mode is not None:
                self.tape.append(partial(np.add, U[i], T, out=U[i]))
        self._resolve(X, U, at, ids, [problem.A_list[i] for i in ids], steps)

    def _tail(self, s, BL):
        """Bind the dual tail, compiled like a level: the rows (H^T x)_k, a
        pick of X or the whole H^T product, in place of the images, which
        are spent; the (K x)_k of the zero columns of H, which no row
        needed, and L_k (H^T x)_k, one call for all k if the L_k are one
        kind; then the B_k resolvents of LKx - w / eta + LHx."""
        X, maps, (c, Ht) = self.X, [b.L for b in BL], _combo(s.H.T)
        # bit for bit: a pick of X, or the whole, contiguous H^T
        Hx = self._sum(X, c, None, "hx") if Ht is None else self._sum(
            X, slice(0, s.n), np.ascontiguousarray(s.H.T), "hx")
        for k in np.flatnonzero(~s.H.any(axis=0)):
            hook = _kind(maps[k:k + 1])
            self._apply(self.LKx, self.slices[k], hook,
                        maps[k:k + 1] if hook else maps[k],
                        self._sum(X, *_combo(s.K[k])))
        hook = _kind(maps)
        for index, f, arg in [(..., maps, Hx)] if hook else zip(
                self.slices, maps, Hx):
            self._apply(self.LHx, index, hook, f, arg)
        V = self._scratch(self.eta.shape)   # the B arguments
        self.tape += [partial(np.multiply, self.w, self.inv_eta, out=V),
                      partial(np.subtract, self.LKx, V, out=V),
                      partial(np.add, V, self.LHx, out=V)]
        self._resolve(self.y, V, ..., self.slices, [b.B for b in BL],
                      self.inv_E)

    def split(self, v):
        """The blocks of padded dual rows, as views."""
        return [v[sl] for sl in self.slices]


def _put(dst, index, call, *args):   # the tape's generic entry
    dst[index] = call(*args)


def _load(plan, z, w):
    """Whether z and w are the plan's own inputs; any others are checked
    (as stacked or padded rows, see eval_S) and copied into them."""
    if z is plan.z and w is plan.w:
        return True
    np.copyto(plan.z, _stacked(z, plan.z.shape))
    np.copyto(plan.w, _dual_rows(w, plan.dims, pad=plan.pad))
    return False


def eval_S(plan, z, w):
    """Evaluate the solution operator of ``plan.scheme`` on ``plan.problem``:
    forward substitution for the primal blocks x_1..x_n followed by the dual
    resolvents for y.  Row i solves x_i = J_{(gamma/delta_i) A_i}(u_i) with
        u_i = (1/delta_i) [ (Mz)_i + (Nx)_i - gamma (Phi x)_i
              - gamma (H L^*(E L K x - w))_i ]
    where Phi = (P - Q) C(Rx) + Q C(P^T x), by running ``plan.tape``.
    z and w come as BlockVectors or stacked (z as (m, d), w as one row per
    dual block, zero-padded; a nonzero in the padding is refused), and are
    copied into the plan's inputs; the plan's own ``plan.z`` and ``plan.w``
    are evaluated in place.  Returns X and U, the (n, d) arrays of the x_i
    and u_i, and y, L_k (K x)_k and L_k (H^T x)_k as padded rows: new
    arrays, or the plan's buffers when evaluated in place, which the next
    evaluation overwrites."""
    own = _load(plan, z, w)
    for call in plan.tape:
        call()
    out = plan.X, plan.y, plan.U, plan.LKx, plan.LHx
    return out if own else tuple(a.copy() for a in out)


def eval_Gamma(scheme, problem, z, w, check=True, plan=None):
    """The displacement map: gz = M^T x and gw_k = eta_k (L_k (H^T x)_k - y_k),
    so that T(z, w) = (z, w) - (gz, gw).  BlockVectors in give BlockVectors
    out; a stacked z gives stacked gz and x and, as eval_S does, gw and y as
    padded rows: new arrays, or the plan's buffers for the plan's own z and
    w.  ``plan`` is compiled when omitted; one compiled for another scheme
    or problem object is refused.  ``check`` selects nothing: the plan
    refuses an implicit scheme either way."""
    plan = plan or EvalPlan(scheme, problem)
    if plan.scheme is not scheme or plan.problem is not problem:
        other = "scheme" if plan.scheme is not scheme else "problem"
        raise ValueError(f"plan was compiled for another {other}")
    own = _load(plan, z, w)
    X, y, _, _, LHx = eval_S(plan, plan.z, plan.w)
    gz = np.matmul(scheme.M.T, X, out=plan.gz)
    gw = np.subtract(LHx, y, out=plan.gw)
    gw *= plan.eta
    out = (gz, gw, X, y) if own else tuple(
        a.copy() for a in (gz, gw, X, y))
    if isinstance(z, BlockVector):
        gz, gw, X, y = out
        return tuple(map(BlockVector, (gz, plan.split(gw), X, plan.split(y))))
    return out


def residual_star(scheme, gz, gw, lambda_t):
    """(1/lambda) ||(Id - T)(z, w)||_star^2 with (Id - T) = Gamma."""
    lambda_t = _check_lambda(lambda_t)
    Z, W = _stacked(gz, name="gz"), _dual_rows(gw, name="gw")
    return _star_inner(scheme.gamma, scheme.E_diag, Z, W, Z, W) / lambda_t


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
    """Run the relaxed fixed-point iteration from (z0, w0).  Each iteration
    decides its stop from its residual: ``stop_reason`` is "diverged" if it
    is not finite, "converged" if it is <= ``residual_tol``, "max_iters" at
    the last one.  That iteration is the last record; ``record_every`` thins
    only the records before it.  A non-finite z0 or w0 is refused, and lambda
    checked, first; lambda <= 1 + LAMBDA_SLACK keeps every state finite."""
    opts = opts or SolveOptions()
    for name, integer, low in (("max_iters", True, 0),
                               ("record_every", True, 1),
                               ("residual_tol", False, 0)):
        _check_number(name, getattr(opts, name), integer, low)
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

    z, w = plan.z, plan.w   # the iterate lives in the plan's inputs
    # (z, w) - lam (gz, gw), in place over the flat v and g
    update = (partial(np.multiply, plan.g, np.array(-lam), out=plan.g),
              partial(np.add, plan.v, plan.g, out=plan.v))
    if z0 is not None:
        z[...] = _stacked(z0, z.shape, "z0")
    if w0 is not None:
        w[...] = _dual_rows(w0, plan.dims, "w0", plan.pad)
    for name, a in (("z0", z), ("w0", w)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has a NaN or infinite entry")

    def record():
        return (t, res, consensus_gap(x),
                None if objective is None else float(objective(x[0])),
                1e3 * (time.perf_counter() - t0))

    records = []
    t0 = time.perf_counter()
    # a diverging run overflows in res, the records and s_bar, silently
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(opts.max_iters + 1):
            _, _, x, y = eval_Gamma(s, problem, z, w, plan=plan)
            zz, _, ww = (call() for call in plan.star)
            res = (float(zz) + s.gamma * float(ww)) / lam   # residual_star
            stop = ("diverged" if not math.isfinite(res) else "converged"
                    if res <= opts.residual_tol else "max_iters"
                    if t == opts.max_iters else None)
            if stop or t % opts.record_every == 0:
                records.append(record())
            if stop:
                break
            # lam <= lam_max + LAMBDA_SLACK <= 1 + 1e-12, gamma > 0, E > 0:
            # from a finite state, an update overflows only where |lam g| >=
            # 2^970, whose square made res infinite; so kept states are finite
            for call in update:
                call()

        # s_k = eta_k L_k (K x)_k - w_k from the last evaluation, in its gw
        s_bar = np.multiply(plan.LKx, plan.eta, out=plan.gw)
        s_bar -= w
        s_bar = BlockVector(plan.split(s_bar)) if s.r > 0 else None
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
    _check_number("tol", tol, low=0)
    s, plan = scheme, EvalPlan(scheme, problem)
    X, _, U, LKx, _ = eval_S(plan, state.z, state.w)
    w = plan.w
    xbar = X.sum(axis=0) / s.n
    gap = consensus_gap(X)

    # a_i = (delta_i / gamma)(u_i - x_i) lies in A_i x_i by the resolvent
    # definition; the Phi and dual terms are already inside u_i.
    total = (s.D_diag / s.gamma) @ (U - X)

    memberships = []
    for s_k, blk in zip(plan.split(plan.eta * LKx - w), problem.BL_list):
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
