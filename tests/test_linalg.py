"""Block vectors, Kronecker application, norms and the pseudo-inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import (BlockVector, LinearMap, is_psd, kron_apply,
                        min_eigenvalue_sym, pinv, spectral_norm)


class TestBlockVector:
    def test_zeros_and_dims(self):
        v = BlockVector.zeros([3, 5, 2])
        assert v.dims == [3, 5, 2]
        assert len(v) == 3
        assert v.norm() == 0.0
        assert repr(v) == "BlockVector(dims=[3, 5, 2])"

    def test_arithmetic(self):
        a = BlockVector([[1.0, 2.0], [3.0]])
        b = BlockVector([[0.5, -1.0], [2.0]])
        s = a + b
        np.testing.assert_allclose(s[0], [1.5, 1.0])
        np.testing.assert_allclose((a - b)[1], [1.0])
        np.testing.assert_allclose((2.0 * a)[0], [2.0, 4.0])
        np.testing.assert_allclose((-a)[1], [-3.0])

    def test_dot_and_norm_match_concat(self):
        rng = np.random.default_rng(0)
        a = BlockVector([rng.standard_normal(4), rng.standard_normal(3)])
        b = BlockVector([rng.standard_normal(4), rng.standard_normal(3)])
        assert abs(a.dot(b) - a.concat() @ b.concat()) < 1e-12
        assert abs(a.norm() - np.linalg.norm(a.concat())) < 1e-12

    def test_conforming_check(self):
        a = BlockVector([[1.0, 2.0]])
        b = BlockVector([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            a + b

    def test_isfinite(self):
        assert BlockVector([[1.0]]).isfinite()
        assert not BlockVector([[np.inf]]).isfinite()


class TestKronApply:
    @pytest.mark.parametrize("n,m,d", [(1, 1, 1), (2, 3, 4), (6, 6, 5),
                                       (4, 2, 3)])
    def test_matches_materialized_kronecker(self, n, m, d):
        rng = np.random.default_rng(n * 100 + m * 10 + d)
        M = rng.standard_normal((n, m))
        z = BlockVector([rng.standard_normal(d) for _ in range(m)])
        out = kron_apply(M, z)
        ref = np.kron(M, np.eye(d)) @ z.concat()
        assert np.max(np.abs(out.concat() - ref)) <= 1e-12

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            kron_apply(np.eye(2), BlockVector([[1.0]]))

    def test_mixed_dims_rejected(self):
        z = BlockVector([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError):
            kron_apply(np.eye(2), z)

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="M must be a 2-D matrix"):
            kron_apply(np.ones(2), BlockVector([[1.0], [2.0]]))


class TestLinearMap:
    def test_adjoint_consistency(self):
        rng = np.random.default_rng(1)
        L = LinearMap(rng.standard_normal((5, 3)))
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(5)
            assert abs(L(x) @ y - x @ L.adjoint(y)) <= 1e-12

    def test_norm_cached_and_accurate(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 4))
        L = LinearMap(A)
        ref = np.linalg.norm(A, 2)
        assert abs(L.norm() - ref) <= 1e-8 * ref
        assert L.norm() == L.norm()

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            LinearMap(np.zeros(3))


class TestSpectralNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(3)
        for shape in [(4, 4), (7, 3), (2, 9)]:
            A = rng.standard_normal(shape)
            assert abs(spectral_norm(A) - np.linalg.norm(A, 2)) <= 1e-8

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_deterministic(self):
        A = np.random.default_rng(4).standard_normal((5, 5))
        assert spectral_norm(A) == spectral_norm(A)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(rows=st.integers(0, 12), cols=st.integers(0, 12),
           rank=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_matrix_exact_and_map_reads_its_norm(self, rows, cols, rank,
                                                 seed):
        # rank 0 gives the zero matrix, rank < min(rows, cols) a
        # rank-deficient one, and rows or cols 0 an empty one
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((rows, rank)) @ rng.standard_normal(
            (rank, cols))
        sv = np.linalg.svd(A, compute_uv=False) if A.size else [0.0]
        for got in (spectral_norm(A), LinearMap(A).norm()):
            assert abs(got - sv[0]) <= 1e-12 * sv[0]
        # a map is not iterated on: spectral_norm returns its own norm()
        assert spectral_norm(LinearMap(A)) == LinearMap(A).norm()


class TestPsd:
    def test_min_eigenvalue(self):
        S = np.diag([3.0, -1.0, 2.0])
        assert abs(min_eigenvalue_sym(S) + 1.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_min_eigenvalue_needs_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match="S must be square"):
            min_eigenvalue_sym(np.ones(shape))

    def test_min_eigenvalue_of_an_empty_matrix_is_zero(self):
        assert min_eigenvalue_sym(np.zeros((0, 0))) == 0.0

    def test_is_psd_agrees_with_sampling(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            G = rng.standard_normal((6, 6))
            S = 0.5 * (G + G.T)
            verdict = is_psd(S)
            sampled = True
            for _ in range(1000):
                x = rng.standard_normal(6)
                x /= np.linalg.norm(x)
                if x @ S @ x < -1e-8:
                    sampled = False
                    break
            if verdict:
                assert sampled
            else:
                assert not sampled

    def test_psd_boundary_tolerance(self):
        # a tiny negative eigenvalue within tolerance still counts as PSD
        S = np.diag([1.0, -1e-12])
        assert is_psd(S)
        assert not is_psd(np.diag([1.0, -1e-6]))


class TestPinv:
    def test_two_node_incidence(self):
        M = np.array([[1.0], [-1.0]])
        np.testing.assert_allclose(pinv(M.T), [[0.5], [-0.5]], atol=1e-14)

    def test_projector_onto_zero_sum_subspace(self):
        # for the path-graph incidence, pinv(M^T) M^T is the centering
        # projector I - (1/n) ones ones^T
        n = 5
        M = np.zeros((n, n - 1))
        for i in range(n - 1):
            M[i, i] = 1.0
            M[i + 1, i] = -1.0
        proj = pinv(M.T) @ M.T
        ref = np.eye(n) - np.full((n, n), 1.0 / n)
        assert np.max(np.abs(proj - ref)) <= 1e-12

    def test_least_squares_property(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 3))
        x = pinv(A) @ rng.standard_normal(6)
        assert x.shape == (3,)
