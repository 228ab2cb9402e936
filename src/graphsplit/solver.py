"""Relaxed fixed-point solver: the solution operator S, the displacement
map Gamma, residual tracking in the scaled product norm, and solution
certification.  The public functions take and return BlockVectors; inside,
and in the kernel eval_S that they share, primal blocks are the rows of one
array, and dual blocks the rows of another, each zero-padded to the longest."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, List, NamedTuple, Optional, Tuple

import numpy as np

from .linalg import BlockVector, kron_apply  # noqa: F401  (re-exported)
from .operators import _L1Prox, _LeastSquares, _StackedLeastSquares, \
    _soft_threshold
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
        # a batch of one row product per dual block, then weighted by 1/eta
        rows = W1[:, None] @ W2[:, :, None]
        inv_eta = 1.0 / np.asarray(self.E_diag, dtype=float)
        return (float(np.vdot(Z1, Z2))
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


def _one_map(maps):
    """Whether ``maps`` are one map, and it takes stacked rows."""
    L = maps[0] if maps else None
    return getattr(L, "stacked_rows", False) and all(m is L for m in maps)


def _resolvents(ops, steps, at, rows):
    """(index, call, step) entries for resolvents ``ops`` of steps ``steps``
    on rows ``rows``: one soft-threshold of the rows ``at`` by the column
    step * weight (a float for one row) if all are l1, else one per row."""
    if ops and all(isinstance(getattr(op, "resolvent", None), _L1Prox)
                   for op in ops):
        col = np.array([[t * op.resolvent.weight] for t, op in zip(steps, ops)])
        return [(at, _soft_threshold, col.item() if col.size == 1 else col)]
    return list(zip(rows, ops, steps))


def _gradients(ops):
    """Two or more least-squares gradients as one _StackedLeastSquares."""
    maps = [getattr(op, "apply", None) for op in ops]
    if len(maps) > 1 and all(isinstance(f, _LeastSquares) for f in maps):
        k, m = len(maps), max(f.b.size for f in maps)
        A3, B2 = np.zeros((k, m, maps[0].A.shape[1])), np.zeros((k, m))
        for a, b, f in zip(A3, B2, maps):
            a[:f.b.size], b[:f.b.size] = f.A, f.b
        return _StackedLeastSquares(A3, B2)


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


_Level = NamedTuple("_Level", [(name, Any) for name in (   # see _level
    "images", "fills", "adjoints", "sums", "resolvents")])


class EvalPlan:
    """The forward substitution of one scheme on one problem, compiled once,
    for an explicit scheme (``check_explicit``) whose n, r and p are the
    problem's numbers of A_i, L_k and C_j; any other is refused.  The C(Rx),
    C(P^T x) and L^*(E L K x - w) images share one stack, in the order the
    rows first need them; each reads its argument, R_j x, P_j^T x or
    (K x)_k, from its whole row.  Row i has its step gamma / delta_i, a
    mode, and coefficients: row i of N over the x blocks and -gamma times
    row i of P - Q, Q and H over the images, both divided by delta_i (as is
    M, in ``Md``); each argument and sum is a ``_combo``.  A row that
    repeats the previous row's coefficients wherever that row has a nonzero
    (the complete family, below each pivot) has mode "run": it sums only its
    new coefficients, added to the running sum that the previous row
    ("start" or "run") left.  A row joins the current ``_level`` if it reads
    no x block of it, through N or its images' arguments (star: {0},
    {1..n-1}).  The dual tail is compiled like a level: ``Hx``, the rows
    (H^T x)_k (a pick of X, or the whole H^T product); ``fills`` (L, out,
    index, arg) for L_k (H^T x)_k, one for all k if ``_one_map``, and for
    the (K x)_k of the zero columns of H, which no row needed; and the B_k
    ``resolvents``.  ``scheme`` and ``problem`` are what it compiled."""

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
        G, by_row = np.zeros((s.n, len(images))), [[] for _ in range(s.n)]
        for t, (f, kind, j) in enumerate(images):   # by_row: by first row
            G[:, t] = -gamma * coefs[kind][:, j] / s.D_diag
            by_row[f].append((t, kind, j, (s.R, s.P.T, s.K)[kind][j]))
        self.n_images = len(images)
        self.Md = s.M / s.D_diag[:, None]
        self.dims = [blk.L.out_dim for blk in problem.BL_list]
        self.slices = [(k, slice(0, g)) for k, g in enumerate(self.dims)]
        self.eta = np.repeat(s.E_diag[:, None], max(self.dims, default=0), 1)
        self.inv_eta = 1.0 / self.eta   # per element: faster than broadcast
        # the padding of the shorter dual blocks; None when there is none
        self.pad = (np.arange(self.eta.shape[1]) >= np.c_[self.dims]
                    if len(set(self.dims)) > 1 else None)
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
        self.levels = [self._level(rows[a:b], by_row[a:b], coef, s, problem)
                       for a, b in zip(starts, starts[1:] + [s.n])]
        BL, (c, Ht) = problem.BL_list, _combo(s.H.T)
        self.Hx = (0, c, None) if Ht is None else (   # bit for bit: the
            0, slice(0, s.n), np.ascontiguousarray(s.H.T))   # whole H^T
        self.fills = [(BL[k].L, 0, self.slices[k], (0, *_combo(s.K[k])))
                      for k, f in enumerate(first_rows(s.H)) if f == s.n]
        whole = [(b.L, 1, ..., (1, ..., None)) for b in BL[:1]]
        self.fills += whole if _one_map([b.L for b in BL]) else [
            (b.L, 1, sl, (1, sl[0], None)) for b, sl in zip(BL, self.slices)]
        self.resolvents = _resolvents([b.B for b in BL], 1.0 / s.E_diag, ...,
                                      self.slices)
        self.scheme, self.problem = scheme, problem

    def _level(self, rows, by_row, coef, s, problem):
        """The ``_Level`` of rows [i, coefficients, step, mode] and the images
        they first need: ``images`` (ts, call, arg), a C call per image or
        one ``_gradients`` call; ``fills`` (L, 0, index, arg), an L call per
        distinct argument, and ``adjoints`` S[ts] = L^*(eta LKx[ks] - w[ks])
        (L, ks, ts, eta), one group if ``_one_map``; ``sums`` (i, combos,
        mode), of the block ``coef[at]``, or per row if one runs; and the
        A_i ``_resolvents``."""
        BL, (ids, _, steps, _) = problem.BL_list, zip(*rows)
        at, new = _index(ids), [im for images in by_row for im in images]
        new_C = [(t, j, a) for t, kind, j, a in new if kind < 2]
        grads = _gradients([problem.C_list[j] for _, j, _ in new_C])
        R = np.array([a for *_, a in new_C])   # one argument if all are one
        images = [(_index([t for t, *_ in new_C]), grads, (0, *_combo(
            R[0] if (R == R[0]).all() else R)))] if grads else [
            (t, problem.C_list[j], (0, *_combo(a))) for t, j, a in new_C]
        new_L = [(t, j) for t, kind, j, _ in new if kind == 2]
        fills, adjoints, one = [], [], _one_map([BL[k].L for _, k in new_L])
        for group in [new_L] if one else [[im] for im in new_L]:
            (ts, ks), L = zip(*group), BL[group[0][1]].L
            cols, by_arg = slice(0, self.dims[ks[0]]), {}
            for k in ks:   # one L call per distinct row of K
                by_arg.setdefault(s.K[k].tobytes(), []).append(k)
            fills += [(L, 0, (_index(kk), cols), (0, *_combo(s.K[kk[0]])))
                      for kk in by_arg.values()]
            adjoints.append((L, (_index(ks), cols), _index(ts),
                             s.E_diag[_index(ks), None]))
        sums = [(i, [(a, *_combo(b)) for a, b in enumerate(np.split(
            c, [s.n], axis=-1)) if b.any()], mode) for i, c, *_, mode in (
            rows if any(row[3] for row in rows) else [(at, coef[at], None)])]
        return _Level(images, fills, adjoints, sums, _resolvents(
            [problem.A_list[i] for i in ids], steps, at, ids))

    def split(self, v):
        """The blocks of padded dual rows, as views."""
        return [v[sl] for sl in self.slices]


def eval_S(plan, z, w):
    """Evaluate the solution operator of ``plan.scheme`` on ``plan.problem``:
    forward substitution for the primal blocks x_1..x_n followed by the dual
    resolvents for y.  Row i solves x_i = J_{(gamma/delta_i) A_i}(u_i) with
        u_i = (1/delta_i) [ (Mz)_i + (Nx)_i - gamma (Phi x)_i
              - gamma (H L^*(E L K x - w))_i ]
    where Phi = (P - Q) C(Rx) + Q C(P^T x); each stage runs the plan's
    entries as they come.  z and w come as BlockVectors or stacked (z as
    (m, d), w as one row per dual block, zero-padded; a nonzero in the
    padding is refused).  Returns new arrays: X and U, the (n, d) arrays of
    the x_i and u_i, and y, L_k (K x)_k and L_k (H^T x)_k as padded rows."""
    s, d = plan.scheme, plan.problem.d
    dot = np.dot   # on one-row products much cheaper than @
    w = _dual_rows(w, plan.dims, pad=plan.pad)
    # row i of U is (D^{-1} M z)_i; the sums add in
    U = plan.Md @ _stacked(z, (s.m, d))
    # every product below reads only rows and images already written
    X, S = np.empty((s.n, d)), np.empty((plan.n_images, d))
    LKx = np.zeros(w.shape)   # zero padded
    stacks, outs = [X, S], [LKx, None]   # what an arg reads, a fill writes
    T = np.empty(d)   # the running sum of the "run" rows

    def combo(a, c, coef):   # a _combo of the rows of stack a
        return stacks[a][c] if coef is None else dot(coef, stacks[a][c])

    for images, fills, adjoints, sums, resolvents in plan.levels:
        for ts, call, arg in images:
            S[ts] = call(combo(*arg))
        for L, out, index, arg in fills:
            outs[out][index] = L(combo(*arg))
        for L, ks, ts, eta in adjoints:
            S[ts] = L.adjoint(eta * LKx[ks] - w[ks])
        for i, combos, mode in sums:   # all the rows at once, unless running
            u = U[i] if mode is None else T
            if mode == "start":
                T.fill(0.0)
            for arg in combos:
                u += combo(*arg)
            if mode is not None:
                U[i] += T
        for i, call, step in resolvents:
            X[i] = call(step, U[i])

    stacks[1] = S = None   # the images are spent: free them before the tail
    stacks[1] = combo(*plan.Hx)   # row k: (H^T x)_k
    outs[1] = LHx = np.zeros(w.shape)
    for L, out, index, arg in plan.fills:
        outs[out][index] = L(combo(*arg))
    # y holds the B arguments LKx - w / eta + LHx, then their resolvents
    y = np.multiply(w, plan.inv_eta)
    np.subtract(LKx, y, out=y)
    y += LHx
    for i, call, step in plan.resolvents:
        y[i] = call(step, y[i])
    return X, y, U, LKx, LHx


def eval_Gamma(scheme, problem, z, w, check=True, plan=None):
    """The displacement map: gz = M^T x and gw_k = eta_k (L_k (H^T x)_k - y_k),
    so that T(z, w) = (z, w) - (gz, gw).  BlockVectors in give BlockVectors
    out; a stacked z gives stacked gz and x and, as eval_S does, gw and y as
    padded rows.  ``plan`` is compiled when omitted; one compiled for another
    scheme or problem object is refused.  ``check`` selects nothing: the plan
    refuses an implicit scheme either way."""
    plan = plan or EvalPlan(scheme, problem)
    if plan.scheme is not scheme or plan.problem is not problem:
        other = "scheme" if plan.scheme is not scheme else "problem"
        raise ValueError(f"plan was compiled for another {other}")
    X, y, _, _, LHx = eval_S(plan, z, w)
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

    z = (np.array(_stacked(z0, (s.m, problem.d), "z0"), dtype=float)
         if z0 is not None else np.zeros((s.m, problem.d)))
    w = (np.array(_dual_rows(w0, plan.dims, "w0", plan.pad), dtype=float)
         if w0 is not None else np.zeros(plan.eta.shape))
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
            gz, gw, x, y = eval_Gamma(s, problem, z, w, plan=plan)
            res = residual_star(s, gz, gw, lam)
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
            z_next = np.multiply(gz, -lam, out=gz)   # z - lam * gz, in gz
            z_next += z
            w_next = np.multiply(gw, -lam, out=gw)
            w_next += w
            z, w = z_next, w_next

        del gz, gw   # spent: the final evaluation holds no more than a step
        S = eval_S(plan, z, w)[3]   # s_k = eta_k L_k (K x)_k - w_k, in place:
        S *= plan.eta               # an (r, g) temporary here raised
        S -= w                      # wide-d1e4's peak RSS
        s_bar = BlockVector(plan.split(S)) if s.r > 0 else None
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
    w = _dual_rows(state.w, plan.dims)
    X, _, U, LKx, _ = eval_S(plan, state.z, w)
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
