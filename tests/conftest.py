"""Shared builders for random monotone problems matched to a scheme."""

import numpy as np
import pytest

from graphsplit import (ComposedBlock, LinearMap, ProblemInstance,
                        affine_resolvent, least_squares_gradient)
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
