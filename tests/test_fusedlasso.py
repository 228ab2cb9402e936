"""Fused-lasso benchmark: instance generation, reference solver, grid
harness, and artifact IO."""

import csv
import json
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import (LinearMap, SolveOptions, difference_matrix,
                        gen_instance, objective, reference_solve, run_grid,
                        solve, to_problem)
from graphsplit import fusedlasso
from graphsplit.fusedlasso import (ExperimentConfig, build_family_scheme,
                                   desk_instance, load_instance, run_cell,
                                   save_instance)
from graphsplit.linalg import spectral_norm
from graphsplit.operators import prox_l1
from graphsplit.scheme import (compute_UW, compute_tau, step_bounds,
                               validate_standing)


def accumulated_adjoint(y):
    """The first-difference adjoint as DifferenceMap computed it before the
    one-subtract form."""
    out = np.zeros(y.size + 1)
    out[:-1] -= y
    out[1:] += y
    return out


def dense_reference_solve(instance, tol=1e-10, max_iters=500_000):
    """reference_solve as it was with the dense d-by-d Gram matrix A^T A,
    its 2-norm by SVD, and the gradient taken again for the check."""
    A = np.vstack(instance.A_blocks)
    b = np.concatenate(instance.b_blocks)
    mu_bar = float(sum(instance.mu))
    nu_bar = float(sum(instance.nu))
    d = instance.d
    L = difference_matrix(d)
    AtA = A.T @ A
    Lf = max(float(np.linalg.norm(AtA, 2)), 1e-12)
    Lnorm2 = L.norm() ** 2
    rho = Lf / (2.0 * Lnorm2)
    sigma = 0.99 / Lf
    Atb = A.T @ b
    x = np.zeros(d)
    u = np.zeros(d - 1)
    for it in range(max_iters):
        grad = AtA @ x - Atb
        x_new = prox_l1(x - sigma * (grad + L.adjoint(u)), sigma * mu_bar)
        u = np.clip(u + rho * L(2.0 * x_new - x), -nu_bar, nu_bar)
        x = x_new
        if it % 10 == 0:
            grad = AtA @ x - Atb
            v = -grad - L.adjoint(u)
            r1 = np.max(np.abs(x - prox_l1(x + v, mu_bar)), initial=0.0)
            lx = L(x)
            r2 = np.max(np.abs(lx - prox_l1(lx + u, nu_bar)), initial=0.0)
            if max(r1, r2) <= tol:
                return x, objective(instance, x)
    raise RuntimeError("dense reference solver did not converge")


class TestDifferenceOperator:
    def test_matrix_action_matches_diff(self, rng):
        L = difference_matrix(7)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(L(x), np.diff(x), atol=1e-14)
        dense = np.diff(np.eye(7), axis=0)
        np.testing.assert_allclose(dense @ x, L(x), atol=1e-14)

    def test_adjoint_consistency(self, rng):
        L = difference_matrix(6)
        x = rng.standard_normal(6)
        y = rng.standard_normal(5)
        assert abs(L(x) @ y - x @ L.adjoint(y)) <= 1e-12

    def test_norm_closed_form(self):
        assert abs(difference_matrix(2).norm() - np.sqrt(2.0)) <= 1e-14
        assert abs(difference_matrix(4).norm()
                   - np.sqrt(2.0 + np.sqrt(2.0))) <= 1e-14
        for d in (3, 10, 57):
            L = difference_matrix(d)
            dense = np.diff(np.eye(d), axis=0)
            assert abs(L.norm() - np.linalg.norm(dense, 2)) <= 1e-12

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="^d = 1 must be >= 2$"):
            difference_matrix(1)

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(d=st.integers(2, 300))
    def test_matrix_free_matches_dense(self, d):
        L = difference_matrix(d)
        dense = LinearMap(np.diff(np.eye(d), axis=0))
        rng = np.random.default_rng(d)
        x, y = rng.standard_normal(d), rng.standard_normal(d - 1)
        assert np.array_equal(L(x), dense(x))
        assert np.array_equal(L.adjoint(y), dense.adjoint(y))
        exact = dense.norm()   # from the dense Gram matrix
        assert abs(L.norm() - exact) <= 1e-15 * exact

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(d=st.integers(2, 300))
    def test_kernels_match_reference_formulas(self, d):
        # d = 2 gives a one-element y; zeros exercise the signed zeros
        L = difference_matrix(d)
        rng = np.random.default_rng(d)
        x, y = rng.standard_normal(d), rng.standard_normal(d - 1)
        x[::3], y[::4] = 0.0, 0.0
        assert np.array_equal(L(x), np.diff(x))
        assert np.array_equal(L.adjoint(y), accumulated_adjoint(y))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(d=st.integers(2, 300), k=st.integers(1, 6))
    def test_adjoint_of_stacked_rows_is_row_by_row(self, d, k):
        # an EvalPlan applies L^* to a level's (k, d-1) rows in one call
        L = difference_matrix(d)
        rng = np.random.default_rng([d, k])
        Y = rng.standard_normal((k, d - 1))
        Y[:, ::4] = 0.0   # and signed zeros, as above
        Y[::2, 1::5] = -0.0
        out, rows = L.adjoint(Y), np.array([L.adjoint(y) for y in Y])
        assert out.shape == (k, d)
        # bit for bit, the signs of zeros too
        assert np.array_equal(out.view(np.int64), rows.view(np.int64))
        # a view of other rows' columns, as the plan reads w[ks, :g]
        W = rng.standard_normal((2 * k, d + 2))[::2, :d - 1]
        assert np.array_equal(L.adjoint(W),
                              np.array([L.adjoint(w) for w in W]))

    @pytest.mark.parametrize("d,k", [(2, 1), (5, 3), (40, 7)])
    def test_adjoint_identity_holds_row_wise(self, rng, d, k):
        L = difference_matrix(d)
        X, Y = rng.standard_normal((k, d)), rng.standard_normal((k, d - 1))
        lhs = np.sum(L(X) * Y, axis=1)   # <L x_i, y_i> per row
        rhs = np.sum(X * L.adjoint(Y), axis=1)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * d)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(d=st.integers(2, 300))
    def test_spectral_norm_matches_closed_form(self, d):
        # sqrt(2 - 2 cos((d-1) pi / d)) = 2 cos(pi / (2 d))
        exact = 2.0 * np.cos(np.pi / (2 * d))
        assert abs(difference_matrix(d).norm() - exact) <= 4.5e-16

    def test_million_dimensions_stay_matrix_free(self):
        d = 10**6
        tracemalloc.start()
        try:
            pb = to_problem(gen_instance(0, n=1, m=1, d=d, k_nonzero=1))
            L = pb.BL_list[0].L
            assert L.adjoint(L(np.ones(d))).shape == (d,)
            assert L.norm() == difference_matrix(d).norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestGenInstance:
    def test_deterministic(self):
        a = gen_instance(5, n=3, m=20, d=12, k_nonzero=3)
        b = gen_instance(5, n=3, m=20, d=12, k_nonzero=3)
        for Ai, Bi in zip(a.A_blocks, b.A_blocks):
            np.testing.assert_array_equal(Ai, Bi)
        np.testing.assert_array_equal(a.x_true, b.x_true)

    def test_partition_covers_all_rows(self):
        inst = gen_instance(2, n=4, m=23, d=10, k_nonzero=2)
        assert inst.m == 23
        assert all(c >= 1 for c in inst.partition)
        assert sum(inst.partition) == 23

    def test_partition_independent_of_weights(self):
        a = gen_instance(9, n=3, m=18, d=8, k_nonzero=3, mu=1.0)
        b = gen_instance(9, n=3, m=18, d=8, k_nonzero=3, mu=50.0)
        assert a.partition == b.partition

    def test_noise_free_observations(self):
        inst = gen_instance(4, n=2, m=15, d=9, k_nonzero=3, noise_var=0.0)
        A = np.vstack(inst.A_blocks)
        b = np.concatenate(inst.b_blocks)
        np.testing.assert_allclose(b, A @ inst.x_true, atol=1e-12)

    def test_block_norms_in_gaussian_band(self):
        inst = gen_instance(0, n=2, m=40, d=30, k_nonzero=4)
        for A in inst.A_blocks:
            ell = spectral_norm(A) ** 2
            assert 30 / 4 <= ell <= 4 * 30

    def test_infeasible_sizes(self):
        with pytest.raises(ValueError):
            gen_instance(0, n=5, m=3, d=10)
        with pytest.raises(ValueError):
            gen_instance(0, n=2, m=10, d=4, k_nonzero=9)

    def test_negative_noise_var_refused_by_name(self):
        # its square root warned, and the NaN data it made was refused as
        # "A_blocks and b_blocks must be finite"
        with pytest.raises(ValueError, match=r"^noise_var = -1.0 must be "
                           r">= 0$"):
            gen_instance(1, n=2, m=10, d=12, noise_var=-1.0)

    @pytest.mark.parametrize("name", ["A_blocks", "b_blocks", "mu", "nu"])
    def test_short_per_agent_list_rejected(self, name):
        inst = gen_instance(1, n=3, m=12, d=6, k_nonzero=2)
        with pytest.raises(ValueError, match=name):
            replace(inst, **{name: getattr(inst, name)[:-1]})

    @pytest.mark.parametrize("name", ["A_blocks", "b_blocks"])
    def test_non_finite_data_rejected(self, name):
        inst = gen_instance(1, n=3, m=12, d=6, k_nonzero=2)
        blocks = [x.copy() for x in getattr(inst, name)]
        blocks[1].flat[0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            replace(inst, **{name: blocks})

    def test_sizes_read_from_a_blocks(self):
        inst = gen_instance(1, n=3, m=12, d=6, k_nonzero=2)
        assert (inst.n_agents, inst.d) == (3, 6)
        with pytest.raises(AttributeError):
            inst.d = 7

    def test_column_count_mismatch_names_the_block(self):
        inst = gen_instance(1, n=3, m=12, d=6, k_nonzero=2)
        blocks = list(inst.A_blocks)
        blocks[2] = blocks[2][:, :5]
        with pytest.raises(ValueError, match=r"A_blocks\[2\] has 5 columns"):
            replace(inst, A_blocks=blocks)

    @pytest.mark.parametrize("edit", ["no_agents", "d_1"])
    def test_empty_or_one_column_instance_refused(self, edit):
        inst = gen_instance(1, n=3, m=12, d=6, k_nonzero=2)
        fields = ({"A_blocks": [], "b_blocks": [], "mu": [], "nu": []}
                  if edit == "no_agents" else
                  {"A_blocks": [A[:, :1] for A in inst.A_blocks]})
        with pytest.raises(ValueError,
                           match="need at least one agent and d >= 2"):
            replace(inst, **fields)

    @pytest.mark.parametrize("rows", [-1, "none"])
    def test_rows_disagreeing_with_b_refused(self, rows):
        inst = gen_instance(1, n=3, m=12, d=6, k_nonzero=2)
        A_blocks, b_blocks = list(inst.A_blocks), list(inst.b_blocks)
        if rows == "none":   # a block with no row at all
            A_blocks[1], b_blocks[1] = A_blocks[1][:0], b_blocks[1][:0]
        else:
            b_blocks[1] = b_blocks[1][:rows]
        with pytest.raises(ValueError, match="inconsistent block shapes"):
            replace(inst, A_blocks=A_blocks, b_blocks=b_blocks)

    def test_desk_instance_shape(self):
        inst = desk_instance(0)
        assert (inst.n_agents, inst.m, inst.d) == (5, 50, 200)
        assert inst.mu == [5.0] * 5
        assert inst.nu == [2.0] * 5


class TestProblemMapping:
    def test_operator_counts(self):
        inst = gen_instance(1, n=3, m=15, d=10, k_nonzero=2)
        pb = to_problem(inst)
        assert (pb.n, pb.r, pb.p) == (4, 3, 3)
        v = np.arange(10.0)
        np.testing.assert_array_equal(pb.A_list[0](0.5, v), v)
        assert pb.all_cocoercive
        # the composed blocks share one difference operator
        assert pb.BL_list[0].L is pb.BL_list[1].L

    def test_objective_manual(self):
        inst = gen_instance(1, n=2, m=10, d=6, k_nonzero=2, mu=2.0, nu=1.0)
        x = np.linspace(-1.0, 1.0, 6)
        acc = 0.0
        for A, b in zip(inst.A_blocks, inst.b_blocks):
            r = A @ x - b
            acc += 0.5 * r @ r
        acc += 2.0 * 2.0 * np.sum(np.abs(x))
        acc += 2.0 * 1.0 * np.sum(np.abs(np.diff(x)))
        assert abs(objective(inst, x) - acc / 2.0) <= 1e-10


class TestReferenceSolve:
    def test_unregularized_matches_least_squares(self):
        inst = gen_instance(6, n=2, m=30, d=8, k_nonzero=2, mu=0.0, nu=0.0)
        x, f = reference_solve(inst, tol=1e-10)
        A = np.vstack(inst.A_blocks)
        b = np.concatenate(inst.b_blocks)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.max(np.abs(x - ref)) <= 1e-6
        assert abs(f - objective(inst, ref)) <= 1e-8 * (1.0 + abs(f))

    def test_heavy_weight_collapses_to_zero(self):
        inst = gen_instance(6, n=2, m=20, d=8, k_nonzero=2, mu=1e4, nu=1.0)
        x, _ = reference_solve(inst, tol=1e-8)
        assert np.max(np.abs(x)) <= 1e-10

    def test_output_is_a_local_minimizer(self):
        inst = gen_instance(7, n=2, m=20, d=12, k_nonzero=3, mu=1.0, nu=0.5)
        x, _ = reference_solve(inst, tol=1e-10)
        f0 = objective(inst, x)
        rng = np.random.default_rng(0)
        for _ in range(50):
            pert = x + 1e-5 * rng.standard_normal(12)
            assert objective(inst, pert) >= f0 - 1e-9

    def test_bad_tolerance(self):
        inst = gen_instance(1, n=2, m=10, d=6, k_nonzero=2)
        with pytest.raises(ValueError):
            reference_solve(inst, tol=0.0)

    def test_nan_tolerance_refused_before_iterating(self, monkeypatch):
        # max(r1, r2) <= nan is never true, so it would run the whole budget
        inst = gen_instance(2, n=2, m=6, d=5, k_nonzero=2)
        monkeypatch.setattr(fusedlasso, "REFERENCE_MAX_ITERS", 5)
        with pytest.raises(ValueError, match="tol must be positive"):
            reference_solve(inst, tol=float("nan"))

    def test_budget_named_when_exhausted(self, monkeypatch):
        inst = desk_instance(0)
        monkeypatch.setattr(fusedlasso, "REFERENCE_MAX_ITERS", 5)
        with pytest.raises(RuntimeError, match="in 5 iterations"):
            reference_solve(inst, tol=1e-10)

    @pytest.mark.parametrize("inst", [
        desk_instance(0),
        gen_instance(6, n=2, m=30, d=8, k_nonzero=2, mu=1.0, nu=0.5)],
        ids=["desk", "m_above_d"])
    def test_matches_the_dense_gram_iteration(self, inst):
        x, f = reference_solve(inst, tol=1e-10)
        x_dense, f_dense = dense_reference_solve(inst, tol=1e-10)
        assert np.max(np.abs(x - x_dense)) <= 1e-12
        assert abs(f - f_dense) <= 1e-12 * abs(f_dense)

    def test_memory_stays_order_m_d(self):
        # the d-by-d Gram matrix alone would take 31 MiB at d = 2000
        inst = gen_instance(3, n=2, m=20, d=2000, k_nonzero=5, mu=1e4,
                            nu=1.0)
        tracemalloc.start()
        try:
            x, _ = reference_solve(inst, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(x)) <= 1e-10
        assert peak < 4 * 2**20


class TestBuildFamilyScheme:
    def test_step_sizes_follow_hats(self):
        inst = gen_instance(2, n=3, m=20, d=12, k_nonzero=3, mu=1.0, nu=0.5)
        for fam in ("sequential", "star", "complete"):
            scheme, tau, lam_max = build_family_scheme(fam, inst, 0.5, 0.1)
            assert abs(scheme.gamma - 0.5 * 2.0 / tau) <= 1e-12
            lnorm2 = difference_matrix(inst.d).norm() ** 2
            eta_expected = 0.1 / (scheme.gamma * lnorm2)
            if fam == "complete":
                # E is eta * a_i^2 for the complete family
                a2 = scheme.E_diag / eta_expected
                assert np.all(a2 > 0)
            else:
                np.testing.assert_allclose(scheme.E_diag, eta_expected)
            assert 0.0 < lam_max <= 1.0
            assert validate_standing(scheme, has_B=True, has_C=True).all_pass

    @pytest.mark.parametrize("shape", [
        dict(n=5, m=50, d=200, mu=5.0, nu=2.0),
        dict(n=20, m=400, d=100)], ids=["desk", "agents20"])
    def test_lipschitz_constants_match_svd(self, shape):
        inst = gen_instance(1, **shape)
        assert len(inst.lipschitz_constants) == inst.n_agents
        for A, ell in zip(inst.A_blocks, inst.lipschitz_constants):
            ref = np.linalg.svd(A, compute_uv=False)[0] ** 2
            assert abs(ell - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("hats", [(0.5, 0.1), (0.9, 0.7)])
    def test_step_sizes_are_the_step_bounds(self, hats):
        gamma_hat, eta_hat = hats
        inst = desk_instance(0)
        for family, gen in fusedlasso.FAMILY_GENERATORS.items():
            scheme, tau, lam_max = build_family_scheme(family, inst,
                                                       gamma_hat, eta_hat)
            bounds = step_bounds(tau, [difference_matrix(inst.d).norm()],
                                 "cocoercive")
            gamma = gamma_hat * bounds.gamma_max
            eta = eta_hat * bounds.eta_max(gamma)
            assert scheme.gamma == gamma
            assert lam_max == bounds.lambda_max(gamma)
            base = gen(inst.n_agents + 1)
            np.testing.assert_array_equal(scheme.E_diag, eta * base.E_diag)

    def test_tau_reads_the_solver_constants(self):
        inst = desk_instance(0)
        ell = to_problem(inst).lipschitz_constants
        for family, gen in fusedlasso.FAMILY_GENERATORS.items():
            _, tau, _ = build_family_scheme(family, inst, 0.5, 0.1)
            base = gen(inst.n_agents + 1, gamma=1.0, eta=1.0)
            assert tau == compute_tau(compute_UW(base), ell, "cocoercive")

    def test_block_norms_computed_once_per_instance(self, monkeypatch):
        inst = gen_instance(2, n=3, m=20, d=12, k_nonzero=3, mu=1.0, nu=0.5)
        calls = []

        def counted(A):
            calls.append(A)
            return spectral_norm(A)

        monkeypatch.setattr(fusedlasso, "spectral_norm", counted)
        for fam in ("sequential", "star", "complete", "sequential"):
            build_family_scheme(fam, inst, 0.5, 0.1)
        assert len(calls) == inst.n_agents
        # the same values least_squares_gradient stores as C.lipschitz
        assert inst.lipschitz_constants == [
            C.lipschitz for C in to_problem(inst).C_list]


class TestGoldenIterations:
    """solve on the desk instance as the benchmark's grid runs it.  The
    counts and objectives were read before the flat dual buffer and the
    single image stack; a rewrite whose round-off moves an iteration count
    fails here."""

    @pytest.mark.parametrize("family, iters, obj", [
        ("sequential", 1021, 38.1096196514386),
        ("star", 1021, 38.1096141375033),
        ("complete", 726, 38.1096106290419)])
    def test_iterations_and_objective(self, family, iters, obj):
        inst = desk_instance(0)
        scheme, _, lam_max = build_family_scheme(family, inst, 0.5, 0.1)
        report = solve(scheme, to_problem(inst),
                       opts=SolveOptions(max_iters=20_000, residual_tol=1e-10,
                                         lambda_schedule=0.9 * lam_max))
        assert report.converged and report.iters_run == iters
        assert abs(objective(inst, report.final.x[0]) - obj) <= 1e-12 * obj


@pytest.fixture(scope="module")
def tiny():
    return gen_instance(8, n=2, m=16, d=20, k_nonzero=3, mu=0.5, nu=0.3)


class TestRunGrid:
    def test_rows_sorted_and_complete(self, tiny, tmp_path):
        config = ExperimentConfig(
            gamma_hats=[0.3, 0.6], eta_hats=[0.1], lambda_hats=[0.9],
            scheme_families=["sequential"], max_iters=20000, tol=1e-8)
        rows = run_grid(tiny, config, out_dir=str(tmp_path))
        assert len(rows) == 2
        assert [r["gamma_hat"] for r in rows] == [0.3, 0.6]
        assert all(r["status"] in ("ok", "maxiter") for r in rows)
        grid_path = tmp_path / "grid.csv"
        lines = grid_path.read_text().splitlines()
        assert lines[0] == ("family,gamma_hat,eta_hat,lambda_hat,"
                            "iters_to_tol,final_residual,final_objective,"
                            "wall_ms,status")
        assert len(lines) == 3
        curves = sorted(os.listdir(tmp_path / "curves"))
        assert curves == ["sequential_0.3_0.1_0.9.csv",
                         "sequential_0.6_0.1_0.9.csv"]

    def test_grid_csv_deterministic_modulo_walltime(self, tiny, tmp_path):
        config = ExperimentConfig(
            gamma_hats=[0.5], eta_hats=[0.1], lambda_hats=[0.9],
            scheme_families=["sequential"], max_iters=20000, tol=1e-8)

        def strip_wall(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [row[:7] + row[8:] for row in rows]

        run_grid(tiny, config, out_dir=str(tmp_path / "a"))
        run_grid(tiny, config, out_dir=str(tmp_path / "b"))
        a = strip_wall((tmp_path / "a" / "grid.csv").read_text())
        b = strip_wall((tmp_path / "b" / "grid.csv").read_text())
        assert a == b
        ca = (tmp_path / "a" / "curves" / "sequential_0.5_0.1_0.9.csv").read_bytes()
        cb = (tmp_path / "b" / "curves" / "sequential_0.5_0.1_0.9.csv").read_bytes()
        assert ca == cb

    @pytest.mark.parametrize("hats", [[0.5, 0.5000001], [0.5, 0.5]],
                             ids=["six_digits_alike", "repeated"])
    def test_one_curve_per_row_named_by_its_fields(self, tmp_path, hats):
        # :g names gave 0.5 and 0.5000001 one curve; a repeated hat ran twice
        inst = gen_instance(1, n=2, m=10, d=12, mu=0.5, nu=0.2)
        config = ExperimentConfig(gamma_hats=hats,
                                  scheme_families=["sequential"])
        rows = run_grid(inst, config, out_dir=str(tmp_path))
        assert len(rows) == len(set(hats))
        with open(tmp_path / "grid.csv", newline="") as fh:
            read = list(csv.DictReader(fh))
        names = ["{family}_{gamma_hat}_{eta_hat}_{lambda_hat}.csv".format(**r)
                 for r in read]
        assert len(read) == len(rows) and len(set(names)) == len(rows)
        assert sorted(os.listdir(tmp_path / "curves")) == sorted(names)
        for r, name in zip(read, names):
            with open(tmp_path / "curves" / name, newline="") as fh:
                *_, last = csv.DictReader(fh)
            assert last["iter"] == r["iters_to_tol"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(gamma_hats=[1.5])
        with pytest.raises(ValueError):
            ExperimentConfig(scheme_families=["ring"])

    @pytest.mark.parametrize("name", ["gamma_hats", "eta_hats",
                                      "lambda_hats", "scheme_families"])
    def test_empty_list_named(self, name):
        with pytest.raises(ValueError, match=f"{name} is empty"):
            ExperimentConfig(**{name: []})

    def test_cell_returns_its_report_and_tau(self, tiny):
        config = ExperimentConfig(max_iters=20000, tol=1e-8)
        cell = ("star", 0.5, 0.1, 0.9)
        row, report = run_cell(tiny, to_problem(tiny), cell, config)
        assert row["status"] == "ok" and report.converged
        assert row["iters_to_tol"] == report.iters_run
        assert row["tau"] == build_family_scheme("star", tiny, 0.5, 0.1)[1]
        assert row["final_residual"] == report.records[-1][1]

    def test_diverged_cell_keeps_its_curve(self, diverging, tmp_path):
        config = ExperimentConfig(scheme_families=["sequential"])
        [row] = run_grid(desk_instance(0), config, out_dir=str(tmp_path))
        assert row["status"] == "diverged" and row["iters_to_tol"] == 451
        assert row["final_residual"] == float("inf")
        grid = (tmp_path / "grid.csv").read_text().splitlines()
        assert grid[1].startswith("sequential,") and \
            grid[1].split(",")[4:6] == ["451", "inf"]
        assert grid[1].endswith(",diverged")
        curve = (tmp_path / "curves" / "sequential_0.5_0.1_0.9.csv")
        lines = curve.read_text().splitlines()
        assert lines[0] == "iter,residual,objective"
        assert lines[-1].startswith("451,inf,")
        # every RECORD_EVERY iterations, and the diverged one
        assert [int(line.split(",")[0]) for line in lines[1:]] == \
            list(range(0, 451, 10)) + [451]


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2, mu=1.5, nu=0.7)
        save_instance(inst, str(tmp_path / "inst"))
        back = load_instance(str(tmp_path / "inst"))
        assert back.n_agents == 3
        assert back.partition == inst.partition
        assert back.mu == inst.mu and back.nu == inst.nu
        for A, B in zip(inst.A_blocks, back.A_blocks):
            np.testing.assert_array_equal(A, B)
        np.testing.assert_array_equal(back.x_true, inst.x_true)

    def test_short_mu_in_meta_rejected_on_load(self, tmp_path):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2)
        save_instance(inst, str(tmp_path))
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["mu"] = meta["mu"][:-1]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="mu"):
            load_instance(str(tmp_path))

    def test_saved_bytes_unchanged_by_a_round_trip(self, tmp_path):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2)
        save_instance(inst, str(tmp_path / "a"))
        save_instance(load_instance(str(tmp_path / "a")), str(tmp_path / "b"))
        for name in ("meta.json", "A.csv", "b.csv", "x_true.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    @pytest.mark.parametrize("key", ["n", "d"])
    def test_meta_size_disagreeing_with_arrays_named(self, tmp_path, key):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2)
        save_instance(inst, str(tmp_path))
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"meta.json has {key} = "):
            load_instance(str(tmp_path))

    @pytest.mark.parametrize("edit, message", [
        ({"partition": [3, 3, 3]},
         "partition sums to 9, but A.csv's row count is 14"),
        ({"partition": [5, 4, 4]},
         "partition sums to 13, but A.csv's row count is 14"),
        ({"partition": [-1, 8, 7]},
         r"partition \[-1, 8, 7\] has an entry < 1"),
        ({"m": 15}, "partition sums to 14, but meta.json's m is 15")],
        ids=["short", "long", "negative", "meta_m"])
    def test_partition_checked_against_the_rows(self, tmp_path, edit,
                                                message):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2)
        save_instance(inst, str(tmp_path))
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta.update(edit)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=message):
            load_instance(str(tmp_path))

    @pytest.mark.parametrize("key, value", [
        ("m", "14"), ("n", "3"), ("d", "9"), ("n", True), ("m", 14.0)],
        ids=["m_string", "n_string", "d_string", "n_bool", "m_float"])
    def test_meta_size_of_another_type_named(self, tmp_path, key, value):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2)
        save_instance(inst, str(tmp_path))
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                f"meta.json's {key} = {value!r} is not of type int")):
            load_instance(str(tmp_path))

    def test_short_x_true_named(self, tmp_path):
        inst = gen_instance(3, n=3, m=14, d=9, k_nonzero=2)
        save_instance(inst, str(tmp_path))
        (tmp_path / "x_true.csv").write_text("0\n0\n0\n0\n0\n")
        with pytest.raises(ValueError, match=r"x_true has shape \(5,\), "
                                             "but A_blocks give d = 9"):
            load_instance(str(tmp_path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(str(tmp_path / "nope"))
