"""Operator bundles: resolvent-callable set-valued operators, single-valued
operators with Lipschitz metadata, and the proximal toolbox used by the
fused-lasso benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .linalg import LinearMap, spectral_norm
from .scheme import _check_constant, _check_number

__all__ = [
    "ResolventOp",
    "SingleValuedOp",
    "ComposedBlock",
    "ProblemInstance",
    "prox_l1",
    "l1_resolvent",
    "zero_resolvent",
    "affine_resolvent",
    "resolvent_of_inverse",
    "least_squares_gradient",
]


@dataclass
class ResolventOp:
    """Maximally monotone operator A given through its resolvent
    ``resolvent(step, v) = J_{step A}(v)``."""

    dim: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]

    def __call__(self, step, v):
        return self.resolvent(step, np.asarray(v, dtype=float))


@dataclass
class SingleValuedOp:
    """Single-valued monotone operator with a Lipschitz constant and an
    optional cocoercivity flag (1/lipschitz-cocoercive when set)."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    cocoercive: bool = False

    def __call__(self, x):
        return self.apply(np.asarray(x, dtype=float))


@dataclass
class ComposedBlock:
    """A composition L^* B L: set-valued B on G together with the linear
    map L from the primal space into G."""

    B: ResolventOp
    L: LinearMap

    def __post_init__(self):
        if self.B.dim != self.L.out_dim:
            raise ValueError(
                f"B acts on dim {self.B.dim} but L maps into dim {self.L.out_dim}"
            )


@dataclass
class ProblemInstance:
    """The inclusion 0 in sum_i A_i x + sum_k L_k^* B_k L_k x + sum_j C_j x
    over R^d."""

    d: int
    A_list: List[ResolventOp]
    BL_list: List[ComposedBlock] = field(default_factory=list)
    C_list: List[SingleValuedOp] = field(default_factory=list)

    def __post_init__(self):
        _check_number("d", self.d, integer=True, low=1)
        if not self.A_list:
            raise ValueError("need at least one set-valued operator")
        for A in self.A_list:
            if A.dim != self.d:
                raise ValueError("all A_i must act on the primal space")
        for blk in self.BL_list:
            if blk.L.in_dim != self.d:
                raise ValueError("all L_k must map from the primal space")
        for C in self.C_list:
            if C.dim != self.d:
                raise ValueError("all C_j must act on the primal space")

    @property
    def n(self):
        return len(self.A_list)

    @property
    def r(self):
        return len(self.BL_list)

    @property
    def p(self):
        return len(self.C_list)

    @property
    def all_cocoercive(self):
        return all(C.cocoercive for C in self.C_list)

    @property
    def lipschitz_constants(self):
        return [C.lipschitz for C in self.C_list]


def prox_l1(v, t):
    """Componentwise soft-thresholding, the proximal map of t*||.||_1."""
    t = _check_number("t", t, low=0)   # inf too: every finite entry to 0
    return _soft_threshold(t, np.asarray(v, dtype=float))


def _soft_threshold(t, v):   # t first, as a resolvent takes its step
    """prox_l1 unchecked, for any t >= 0 that broadcasts against v."""
    out = np.minimum(v, t)   # v - clip(v, -t, t)
    np.maximum(out, -t, out=out)
    return np.subtract(v, out, out=out)


class _L1Prox:
    """l1_resolvent's resolvent, computed from ``weight``.  An EvalPlan reads
    the weight to threshold a level's A_i, or the B_k, in one call."""

    def __init__(self, weight):
        self.weight = weight

    def __call__(self, step, v):   # the weight is checked: only the step
        if not step >= 0:
            raise ValueError(f"step = {step!r} is not a number >= 0")
        return _soft_threshold(step * self.weight, np.asarray(v, dtype=float))


def l1_resolvent(weight, dim):
    """Resolvent of the subdifferential of ``weight * ||.||_1``."""
    return ResolventOp(dim=_check_number("dim", dim, integer=True, low=1),
                       resolvent=_L1Prox(_check_constant("weight", weight)))


def zero_resolvent(dim):
    """The artificial operator A = 0; its resolvent is the identity for
    every step size."""
    return ResolventOp(dim=_check_number("dim", dim, integer=True, low=1),
                       resolvent=lambda step, v: v)


def affine_resolvent(S, q):
    """Resolvent of the affine monotone operator x -> Sx + q (S PSD):
    J_{tA}(v) = (I + tS)^{-1}(v - t q).  Mainly used in tests."""
    S = np.asarray(S, dtype=float)
    q = np.asarray(q, dtype=float).reshape(-1)
    dim = q.size
    eye = np.eye(dim)

    def res(step, v):
        return np.linalg.solve(eye + step * S, v - step * q)

    return ResolventOp(dim=dim, resolvent=res)


def resolvent_of_inverse(B, eta, u):
    """J_{eta B^{-1}}(u) through the Moreau decomposition:
    ``u - eta * J_{(1/eta) B}(u / eta)``."""
    if not _check_number("eta", eta) > 0:   # NaN too
        raise ValueError("eta must be positive")
    u = np.asarray(u, dtype=float)
    return u - eta * B(1.0 / eta, u / eta)


class _LeastSquares:
    """least_squares_gradient's map: an EvalPlan may stack its A and b."""

    def __init__(self, A, b):
        self.A, self.b = A, b

    def __call__(self, x):
        return self.A.T @ (self.A @ x - self.b)


class _StackedLeastSquares(_LeastSquares):
    """Several _LeastSquares maps as one, A and b zero-padded to (k, m, d)
    and (k, m): row j of a call is map j at row j of x, or at x itself."""

    def __call__(self, x):   # every A_j^T (A_j x - b_j) at once
        r = (self.A @ x[..., None])[..., 0] - self.b
        return (r[:, None] @ self.A)[:, 0]


def least_squares_gradient(A, b):
    """Gradient of x -> 0.5*||Ax - b||^2 as a cocoercive SingleValuedOp
    with Lipschitz constant ||A||_2^2, exact (spectral_norm of the array).
    A and b must be finite."""
    return _least_squares_gradient(A, b, None)


def _least_squares_gradient(A, b, ell):
    """least_squares_gradient with ||A||_2^2 passed in as ``ell``, or found
    when ``ell`` is None."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError("A and b dimensions do not conform")
    for name, arr in (("A", A), ("b", b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
    return SingleValuedOp(
        dim=A.shape[1],
        apply=_LeastSquares(A, b),
        lipschitz=spectral_norm(A) ** 2 if ell is None else ell,
        cocoercive=True,
    )
