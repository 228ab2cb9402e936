"""Resolvent and single-valued operator toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsplit import (ComposedBlock, LinearMap, ProblemInstance,
                        affine_resolvent, l1_resolvent,
                        least_squares_gradient, prox_l1, resolvent_of_inverse,
                        zero_resolvent)
from graphsplit.operators import ResolventOp, SingleValuedOp


def check_firm_nonexpansive(op, n_samples=1000, step=1.0, seed=0, tol=1e-9):
    """Sampled firm-nonexpansiveness witness for a ResolventOp:
    ||Ju - Jv||^2 <= <Ju - Jv, u - v> + tol on random pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        du = op(step, u) - op(step, v)
        if du @ du > du @ (u - v) + tol:
            return False
    return True


def check_single_valued(op, n_samples=1000, seed=0, tol=1e-9):
    """Sampled Lipschitz (and cocoercivity, when flagged) inequalities for
    a SingleValuedOp."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        dc = op(u) - op(v)
        dn = float(np.linalg.norm(dc))
        if dn > op.lipschitz * np.linalg.norm(u - v) + tol:
            return False
        if op.cocoercive and op.lipschitz > 0:
            if dc @ (u - v) < dn ** 2 / op.lipschitz - tol:
                return False
    return True


def sign_formula_prox_l1(v, t):
    """Soft-thresholding as prox_l1 computed it before the clip form."""
    with np.errstate(invalid="ignore"):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class TestProxL1:
    @settings(max_examples=400, deadline=None)
    @given(v=arrays(float, st.integers(0, 30), elements=st.floats()),
           t=st.one_of(st.just(0.0), st.just(np.inf),
                       st.floats(0.0, 1e300)))
    def test_matches_sign_formula(self, v, t):
        # the same value under ==, so -0.0 and 0.0 agree, with nan and
        # +-inf in the same places; finite entries dominate the draws
        with np.errstate(invalid="ignore"):
            got = prox_l1(v, t)
        np.testing.assert_array_equal(got, sign_formula_prox_l1(v, t))

    def test_grid_search_oracle(self):
        grid = np.arange(-3.0, 3.0, 1e-4)
        for v, t in [(1.3, 0.5), (-0.2, 0.5), (0.4, 0.4), (-2.1, 1.0)]:
            vals = 0.5 * (grid - v) ** 2 + t * np.abs(grid)
            best = grid[np.argmin(vals)]
            assert abs(prox_l1(np.array([v]), t)[0] - best) <= 2e-4

    def test_componentwise(self):
        out = prox_l1(np.array([2.0, -0.5, 0.1]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_allclose(prox_l1(v, 0.0), v)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            prox_l1(np.zeros(2), -1.0)


class TestResolvents:
    def test_l1_resolvent_scales_with_step(self):
        op = l1_resolvent(2.0, 3)
        v = np.array([5.0, -1.0, 0.5])
        np.testing.assert_allclose(op(0.5, v), prox_l1(v, 1.0))

    def test_l1_negative_weight(self):
        with pytest.raises(ValueError):
            l1_resolvent(-1.0, 2)

    def test_l1_nan_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            l1_resolvent(float("nan"), 2)

    def test_zero_resolvent_identity(self):
        op = zero_resolvent(4)
        v = np.arange(4.0)
        np.testing.assert_allclose(op(3.7, v), v)
        with pytest.raises(ValueError):
            zero_resolvent(0)

    def test_affine_resolvent_inverts(self, rng):
        S = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        q = rng.standard_normal(3)
        op = affine_resolvent(S, q)
        v = rng.standard_normal(3)
        x = op(0.7, v)
        np.testing.assert_allclose(x + 0.7 * (S @ x + q), v, atol=1e-12)

    def test_moreau_decomposition_exact(self, rng):
        # J_{eta B^{-1}}(u) + eta J_{B/eta}(u/eta) = u must hold to rounding
        B = l1_resolvent(0.8, 4)
        u = rng.standard_normal(4)
        eta = 0.6
        lhs = resolvent_of_inverse(B, eta, u) + eta * B(1.0 / eta, u / eta)
        np.testing.assert_allclose(lhs, u, atol=1e-14)

    def test_inverse_of_l1_subdifferential_is_box_projection(self, rng):
        nu = 0.8
        B = l1_resolvent(nu, 5)
        u = 3.0 * rng.standard_normal(5)
        for eta in (0.3, 1.0, 2.5):
            out = resolvent_of_inverse(B, eta, u)
            np.testing.assert_allclose(out, np.clip(u, -nu, nu), atol=1e-12)

    def test_inverse_needs_positive_eta(self):
        with pytest.raises(ValueError):
            resolvent_of_inverse(l1_resolvent(1.0, 2), 0.0, np.zeros(2))


class TestLeastSquaresGradient:
    def test_finite_difference(self, rng):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        op = least_squares_gradient(A, b)
        x = rng.standard_normal(4)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h

            def f(v):
                r = A @ v - b
                return 0.5 * r @ r

            fd = (f(x + e) - f(x - e)) / (2 * h)
            assert abs(op(x)[i] - fd) <= 1e-4

    def test_lipschitz_constant(self, rng):
        A = rng.standard_normal((5, 3))
        op = least_squares_gradient(A, np.zeros(5))
        ref = np.linalg.norm(A, 2) ** 2
        assert abs(op.lipschitz - ref) <= 1e-8 * ref
        assert op.cocoercive

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_gradient(np.eye(3), np.zeros(2))

    def test_nan_in_A_named(self):
        A = np.ones((3, 4))
        A[1, 2] = np.nan
        with pytest.raises(ValueError, match="A must be finite"):
            least_squares_gradient(A, np.zeros(3))

    def test_inf_in_b_named(self):
        b = np.zeros(3)
        b[0] = np.inf
        with pytest.raises(ValueError, match="b must be finite"):
            least_squares_gradient(np.ones((3, 4)), b)


class TestSampledValidators:
    def test_prox_is_firmly_nonexpansive(self):
        assert check_firm_nonexpansive(l1_resolvent(1.0, 3))

    def test_affine_resolvent_is_firmly_nonexpansive(self, rng):
        G = rng.standard_normal((4, 4))
        op = affine_resolvent(G @ G.T / 4, np.zeros(4))
        assert check_firm_nonexpansive(op, n_samples=300)

    def test_expansion_detected(self):
        bad = ResolventOp(dim=2, resolvent=lambda t, v: 2.0 * v)
        assert not check_firm_nonexpansive(bad, n_samples=50)

    def test_gradient_satisfies_cocoercivity(self, rng):
        A = rng.standard_normal((6, 3))
        op = least_squares_gradient(A, rng.standard_normal(6))
        assert check_single_valued(op, n_samples=300)

    def test_wrong_lipschitz_claim_detected(self):
        op = SingleValuedOp(dim=2, apply=lambda x: 10.0 * x, lipschitz=1.0)
        assert not check_single_valued(op, n_samples=50)


class TestProblemInstance:
    def test_counts_and_flags(self, rng):
        d = 4
        L = LinearMap(rng.standard_normal((3, d)))
        pb = ProblemInstance(
            d=d,
            A_list=[zero_resolvent(d), l1_resolvent(1.0, d)],
            BL_list=[ComposedBlock(B=l1_resolvent(0.5, 3), L=L)],
            C_list=[least_squares_gradient(rng.standard_normal((5, d)),
                                           rng.standard_normal(5))],
        )
        assert (pb.n, pb.r, pb.p) == (2, 1, 1)
        assert pb.all_cocoercive
        assert len(pb.lipschitz_constants) == 1

    def test_composed_block_dim_check(self, rng):
        L = LinearMap(rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            ComposedBlock(B=l1_resolvent(1.0, 2), L=L)

    def test_operator_dim_checks(self):
        with pytest.raises(ValueError):
            ProblemInstance(d=3, A_list=[zero_resolvent(2)])
        with pytest.raises(ValueError):
            ProblemInstance(d=3, A_list=[])

    def test_dual_and_smooth_dim_checks_named(self, rng):
        d = 3
        A_list = [zero_resolvent(d)]
        L = LinearMap(rng.standard_normal((2, d + 1)))
        with pytest.raises(ValueError,
                           match="all L_k must map from the primal space"):
            ProblemInstance(d=d, A_list=A_list, BL_list=[
                ComposedBlock(B=l1_resolvent(1.0, 2), L=L)])
        C = least_squares_gradient(np.ones((2, d + 1)), np.ones(2))
        with pytest.raises(ValueError,
                           match="all C_j must act on the primal space"):
            ProblemInstance(d=d, A_list=A_list, C_list=[C])
