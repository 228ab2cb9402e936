"""Shared builders for random monotone problems matched to a scheme."""

import numpy as np
import pytest

from graphsplit import (ComposedBlock, LinearMap, ProblemInstance,
                        affine_resolvent, least_squares_gradient,
                        scheme_sequential)
from graphsplit import fusedlasso


def monotone_affine(rng, dim, skew_scale=0.3):
    """Random maximally monotone affine operator x -> Sx + q with a PSD
    symmetric part and a skew part."""
    G = rng.standard_normal((dim, dim))
    sym = G @ G.T / dim
    sk = rng.standard_normal((dim, dim))
    sk = sk - sk.T
    q = rng.standard_normal(dim)
    return affine_resolvent(sym + skew_scale * sk, q)


def random_problem_for(rng, scheme, d, gdim=None):
    """Problem bundle with the operator counts the scheme expects."""
    A_list = [monotone_affine(rng, d) for _ in range(scheme.n)]
    BL_list = []
    for _ in range(scheme.r):
        g = gdim if gdim is not None else int(rng.integers(2, d + 1))
        L = LinearMap(rng.standard_normal((g, d)))
        BL_list.append(ComposedBlock(B=monotone_affine(rng, g), L=L))
    C_list = [
        least_squares_gradient(rng.standard_normal((d + 2, d)),
                               rng.standard_normal(d + 2))
        for _ in range(scheme.p)
    ]
    return ProblemInstance(d=d, A_list=A_list, BL_list=BL_list,
                           C_list=C_list)


def read_ahead_scheme():
    """scheme_sequential(3) with P[:, 0] = (0, 1e-170, 1) and R[0] =
    (1, 1e-170, 0): C_0's argument R_0 x is first needed in row 1 and reads
    x_1 there.  The product of the two 1e-170 entries underflows to zero, so
    the magnitudes of (P - Q) R show no mass on the diagonal, and the
    standing checks pass (the row sums stay 1 in floating point)."""
    s = scheme_sequential(3)
    P, R = s.P.copy(), s.R.copy()
    P[:, 0], R[0] = (0.0, 1e-170, 1.0), (1.0, 1e-170, 0.0)
    return s.replace(P=P, R=R)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def diverging(monkeypatch):
    """Make every grid cell diverge: its E is scaled by 60, so at the default
    eta_hat = 0.1 it is six times the largest E the step-size theory allows
    and the iterate overflows."""
    build = fusedlasso.build_family_scheme

    def steep(*args, **kwargs):
        scheme, tau, lam_max = build(*args, **kwargs)
        return scheme.replace(E_diag=60.0 * scheme.E_diag), tau, lam_max

    monkeypatch.setattr(fusedlasso, "build_family_scheme", steep)
