"""Operator bundles: resolvent-callable set-valued operators, single-valued
operators with Lipschitz metadata, and the proximal toolbox used by the
fused-lasso benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .linalg import LinearMap, spectral_norm

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
        if self.d < 1 or not self.A_list:
            raise ValueError("need d >= 1 and at least one set-valued operator")
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
    if t < 0:
        raise ValueError("t must be nonnegative")
    v = np.asarray(v, dtype=float)
    out = np.minimum(v, t)   # v - clip(v, -t, t)
    np.maximum(out, -t, out=out)
    return np.subtract(v, out, out=out)


def l1_resolvent(weight, dim):
    """Resolvent of the subdifferential of ``weight * ||.||_1``."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    return ResolventOp(dim=dim,
                       resolvent=lambda step, v: prox_l1(v, step * weight))


def zero_resolvent(dim):
    """The artificial operator A = 0; its resolvent is the identity for
    every step size."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return ResolventOp(dim=dim, resolvent=lambda step, v: v)


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
    if eta <= 0:
        raise ValueError("eta must be positive")
    u = np.asarray(u, dtype=float)
    return u - eta * B(1.0 / eta, u / eta)


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
        apply=lambda x: A.T @ (A @ x - b),
        lipschitz=spectral_norm(A) ** 2 if ell is None else ell,
        cocoercive=True,
    )
