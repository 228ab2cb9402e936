"""Solution operator, displacement map, residual bookkeeping, and the full
relaxed iteration."""

import csv
import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsplit import (BlockVector, ComposedBlock, IterateState, LinearMap, ProblemInstance,
                        SolveOptions, StarNormContext, affine_resolvent,
                        certify_solution, eval_Gamma, eval_S, l1_resolvent,
                        prox_l1, residual_star, scheme_sequential,
                        scheme_star, solve, step, zero_resolvent)
from graphsplit.fusedlasso import (build_family_scheme, desk_instance,
                                   difference_matrix, gen_instance,
                                   to_problem)
from graphsplit.graphs import (GraphSpec, scheme_complete, scheme_from_graph,
                               scheme_ring)
from graphsplit.operators import SingleValuedOp, least_squares_gradient
from graphsplit.scheme import (CoefficientScheme, check_explicit, compute_tau,
                               compute_UW, step_bounds, validate_psd)
from graphsplit import solver as solver_module
from graphsplit.solver import (LAMBDA_SLACK, check_scheme, consensus_gap,
                               export_report_csv, export_state_json)

from conftest import monotone_affine, random_problem_for
import psd_oracle
import solver_oracle


def two_node_scheme(gamma=1.0):
    """Minimal n = 2 scheme with no dual or smooth slots."""
    return CoefficientScheme(
        M=np.array([[1.0], [-1.0]]), N=np.array([[0.0, 0.0], [2.0, 0.0]]),
        D_diag=np.ones(2), E_diag=np.zeros(0), H=np.zeros((2, 0)),
        K=np.zeros((0, 2)), P=np.zeros((2, 0)), Q=np.zeros((2, 0)),
        R=np.zeros((0, 2)), gamma=gamma,
    )


class TestStarNorm:
    def test_matches_manual_formula(self, rng):
        ctx = StarNormContext(gamma=0.4, E_diag=np.array([0.5, 2.0]))
        z = BlockVector([rng.standard_normal(3), rng.standard_normal(3)])
        w = BlockVector([rng.standard_normal(2), rng.standard_normal(4)])
        ref = z.norm() ** 2 + 0.4 * (w[0] @ w[0] / 0.5 + w[1] @ w[1] / 2.0)
        assert abs(ctx.norm(z, w) ** 2 - ref) <= 1e-12


class TestEvalS:
    def test_zero_operators_propagate_first_block(self, rng):
        s = two_node_scheme()
        pb = ProblemInstance(d=3, A_list=[zero_resolvent(3),
                                          zero_resolvent(3)])
        z = BlockVector([rng.standard_normal(3)])
        x, y = eval_S(s, pb, z, BlockVector([]))
        np.testing.assert_allclose(x[0], z[0], atol=1e-14)
        np.testing.assert_allclose(x[1], z[0], atol=1e-14)
        assert len(y) == 0

    def test_star_head_is_soft_threshold_of_mean(self, rng):
        n, d = 4, 6
        s = scheme_star(n, gamma=0.8)
        pb = random_problem_for(rng, s, d, gdim=3)
        mu = 1.3
        pb.A_list[0] = l1_resolvent(mu, d)
        z = BlockVector([rng.standard_normal(d) for _ in range(n - 1)])
        w = BlockVector([rng.standard_normal(3) for _ in range(n - 1)])
        x, _ = eval_S(s, pb, z, w)
        mean_z = sum(z.blocks) / (n - 1)
        ref = prox_l1(mean_z, 0.8 * mu / (n - 1))
        np.testing.assert_allclose(x[0], ref, atol=1e-12)

    def test_implicit_scheme_rejected(self, rng):
        s = two_node_scheme()
        bad = s.replace(N=np.array([[0.0, 1.0], [2.0, 0.0]]))
        pb = ProblemInstance(d=2, A_list=[zero_resolvent(2)] * 2)
        with pytest.raises(ValueError):
            eval_S(bad, pb, BlockVector([np.zeros(2)]), BlockVector([]))

    def test_collect_returns_resolvent_arguments(self, rng):
        s = scheme_sequential(3, gamma=0.5)
        pb = random_problem_for(rng, s, 4, gdim=2)
        z = BlockVector([rng.standard_normal(4) for _ in range(2)])
        w = BlockVector([rng.standard_normal(2) for _ in range(2)])
        x, y, u, LKx, LHx = eval_S(s, pb, z, w, collect=True)
        # x_i is the resolvent of A_i at u_i with step gamma / delta_i
        for i in range(3):
            ref = pb.A_list[i](s.gamma / s.D_diag[i], u[i])
            np.testing.assert_allclose(x[i], ref, atol=1e-12)
        assert len(LKx) == len(LHx) == 2


class TestResidual:
    def test_matches_displacement_definition(self, rng):
        s = scheme_sequential(3, gamma=0.6, eta=0.9)
        pb = random_problem_for(rng, s, 4, gdim=3)
        z = BlockVector([rng.standard_normal(4) for _ in range(2)])
        w = BlockVector([rng.standard_normal(3) for _ in range(2)])
        gz, gw, _, _ = eval_Gamma(s, pb, z, w)
        lam = 0.7
        res = residual_star(s, gz, gw, lam)
        # brute force: || (z,w) - T(z,w) ||_star^2 / lambda
        ctx = StarNormContext(gamma=s.gamma, E_diag=s.E_diag)
        ref = ctx.norm(gz, gw) ** 2 / lam
        assert abs(res - ref) <= 1e-10 * (1.0 + ref)

    def test_positive_lambda_required(self):
        s = two_node_scheme()
        gz = BlockVector([np.ones(2)])
        with pytest.raises(ValueError):
            residual_star(s, gz, BlockVector([]), 0.0)


class TestStep:
    def test_identity_operators_halve_z(self):
        # both A_i equal to the identity map: one relaxed step with
        # lambda = 1 halves the z block
        s = two_node_scheme(gamma=1.0)
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        state = IterateState(z=BlockVector([np.array([4.0, -2.0])]),
                             w=BlockVector([]))
        for t in range(5):
            state = step(s, pb, state, 1.0)
            np.testing.assert_allclose(state.z[0],
                                       [4.0 / 2 ** (t + 1),
                                        -2.0 / 2 ** (t + 1)], atol=1e-13)

    def test_lambda_validation(self, rng):
        s = two_node_scheme()
        pb = ProblemInstance(d=2, A_list=[zero_resolvent(2)] * 2)
        state = IterateState(z=BlockVector([np.ones(2)]), w=BlockVector([]))
        with pytest.raises(ValueError):
            step(s, pb, state, 0.0)
        with pytest.raises(ValueError):
            step(s, pb, state, 0.9, lambda_max=0.5)


class TestRegime:
    def test_default_regime_rules(self, rng):
        s = scheme_sequential(3)
        pb = random_problem_for(rng, s, 3, gdim=2)
        assert _regime(s, pb) == "cocoercive"
        # a merely Lipschitz C forces the lipschitz regime
        pb.C_list[0] = SingleValuedOp(dim=3, apply=lambda x: x,
                                      lipschitz=1.0, cocoercive=False)
        assert _regime(s, pb) == "lipschitz"
        ring = scheme_ring(4, regime="lipschitz")
        pb2 = random_problem_for(rng, ring, 3, gdim=2)
        assert _regime(ring, pb2) == "lipschitz"

    def test_consensus_gap(self):
        x = BlockVector([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        assert abs(consensus_gap(x) - 5.0) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 25), d=st.integers(1, 40),
           offset=st.sampled_from([0.0, 1.0, -3e3, 1e6]),
           spread=st.sampled_from([1.0, 1e-3, 1e-6, 1e-9]),
           subnormal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_gram_form_matches_pairwise_norms(self, n, d, offset, spread,
                                              subnormal, seed):
        # near consensus the blocks share a large offset and differ by a
        # small spread; the gap must stay accurate relative to the spread
        rng = np.random.default_rng(seed)
        X = offset + spread * rng.standard_normal((n, d))
        if subnormal:   # zeros, and a first block decayed to subnormals
            X[:, ::2] = 0.0
            X[0, ::2] = 5e-320
        ref = max((float(np.linalg.norm(X[i] - X[j]))
                   for i in range(n) for j in range(i + 1, n)), default=0.0)
        for x in (X, BlockVector(list(X))):
            got = consensus_gap(x)
            assert isinstance(got, float)
            assert abs(got - ref) <= 1e-10 * ref, (got, ref)
        if n == 1:
            assert consensus_gap(X) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), d=st.integers(1, 12),
           scale=st.sampled_from([1.0, 1e-300, 1e-310, 5e-324]))
    def test_one_buffer_is_bit_identical(self, data, n, d, scale):
        # the offsets built in one buffer, in place, against the expression
        # with three temporaries; scales below 2.2e-308 make them subnormal
        X = scale * data.draw(arrays(float, (n, d), elements=st.floats(
            -1e100, 1e100, allow_subnormal=True)))
        Y = X - X[0] + 2.0 ** -900 - 2.0 ** -900
        G = Y @ Y.T
        sq = np.diag(G)
        old = float(np.sqrt(max(np.max(sq[:, None] + sq - 2.0 * G), 0.0)))
        assert consensus_gap(X) == old
        assert consensus_gap(BlockVector(list(X))) == old


def _regime(scheme, problem):
    """The regime that solve's gate decides for a scheme on a problem."""
    norms = [blk.L.norm() for blk in problem.BL_list]
    return check_scheme(scheme, problem.lipschitz_constants, norms,
                        problem.all_cocoercive)[0]


def _lipschitz_ring_instance(d, nodes=4):
    """A ring-lipschitz problem: C is 0.5 I plus a skew circulant, monotone
    and Lipschitz but not cocoercive, so solve runs in the lipschitz
    regime; gamma and eta sit at half their bounds."""
    q = np.random.default_rng(0).standard_normal(d)
    C = SingleValuedOp(
        dim=d, apply=lambda x: 0.5 * x + np.roll(x, -1) - np.roll(x, 1) + q,
        lipschitz=math.sqrt(4.25), cocoercive=False)
    L = difference_matrix(d)
    pb = ProblemInstance(
        d=d,
        A_list=[zero_resolvent(d)] + [l1_resolvent(0.1, d)] * (nodes - 1),
        BL_list=[ComposedBlock(B=l1_resolvent(0.1, d - 1), L=L)],
        C_list=[C])
    base = scheme_ring(nodes, regime="lipschitz")
    tau = compute_tau(compute_UW(base, need_W=True), [C.lipschitz],
                      "lipschitz")
    bounds = step_bounds(tau, [L.norm()], "lipschitz")
    gamma = 0.5 * bounds.gamma_max
    s = scheme_ring(nodes, gamma=gamma, eta=0.5 * bounds.eta_max(gamma),
                    regime="lipschitz")
    return s, pb, bounds.lambda_max(gamma)


def _mixed_out_dims_instance(d):
    """A random problem whose dual blocks have different dimensions, on a
    sequential scheme with gamma and eta at half their bounds."""
    rng = np.random.default_rng(3)
    base = scheme_sequential(4)
    pb = random_problem_for(rng, base, d)
    assert len({blk.L.out_dim for blk in pb.BL_list}) > 1
    tau = compute_tau(compute_UW(base), pb.lipschitz_constants, "cocoercive")
    bounds = step_bounds(tau, [blk.L.norm() for blk in pb.BL_list],
                         "cocoercive")
    gamma = 0.5 * bounds.gamma_max
    s = scheme_sequential(4, gamma=gamma, eta=0.5 * bounds.eta_max(gamma))
    return s, pb, bounds.lambda_max(gamma)


class TestSolve:
    def test_geometric_decay_on_identity_instance(self):
        s = two_node_scheme(gamma=1.0)
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        z0 = BlockVector([np.array([1.0, 1.0])])
        report = solve(s, pb, z0=z0,
                       opts=SolveOptions(max_iters=100, residual_tol=1e-24,
                                         lambda_schedule=1.0))
        assert report.converged
        # residual is ||z||^2 / 4 here and z halves every iteration
        assert report.iters_run <= 45
        iters, vals = zip(*report.residual_history)
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        np.testing.assert_allclose(ratios, 0.25, rtol=1e-8)

    def test_invalid_scheme_rejected(self, rng):
        s = scheme_sequential(3)
        bad = s.replace(M=np.eye(3))
        pb = random_problem_for(rng, s, 3, gdim=2)
        with pytest.raises(ValueError):
            solve(bad, pb)

    def test_record_cadence(self):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        z0 = BlockVector([np.array([1.0, 0.0])])
        report = solve(s, pb, z0=z0,
                       opts=SolveOptions(max_iters=40, residual_tol=1e-30,
                                         record_every=7, lambda_schedule=1.0))
        iters = [t for t, _ in report.residual_history]
        assert iters == [0, 7, 14, 21, 28, 35, 40]

    def test_max_iters_exit_reports_consistent_state(self):
        inst = desk_instance(0)
        pb = to_problem(inst)
        scheme, _, lam_max = build_family_scheme("sequential", inst, 0.5, 0.1)
        report = solve(scheme, pb,
                       opts=SolveOptions(max_iters=3, residual_tol=1e-13,
                                         lambda_schedule=0.9 * lam_max))
        assert not report.converged and report.iters_run == 3
        final = report.final
        x, y = eval_S(scheme, pb, final.z, final.w)
        for got, want in ((x, final.x), (y, final.y)):
            np.testing.assert_allclose(got.concat(), want.concat(),
                                       rtol=0, atol=1e-12)

    def test_step_accepts_what_solve_accepts(self):
        # solve's own lambda bound, computed as solve computes it
        s, pb, _ = _mixed_out_dims_instance(3)
        tau = compute_tau(compute_UW(s), pb.lipschitz_constants, "cocoercive")
        lam_max = step_bounds(tau, [blk.L.norm() for blk in pb.BL_list],
                              "cocoercive").lambda_max(s.gamma)
        lam = lam_max + 5e-13
        report = solve(s, pb, opts=SolveOptions(max_iters=2,
                                                lambda_schedule=lam))
        state = IterateState(z=report.final.z, w=report.final.w)
        step(s, pb, state, lam, lambda_max=lam_max)
        too_long = lam_max + 2e-12
        with pytest.raises(ValueError):
            step(s, pb, state, too_long, lambda_max=lam_max)
        with pytest.raises(ValueError):
            solve(s, pb, opts=SolveOptions(max_iters=2,
                                           lambda_schedule=too_long))

    @pytest.mark.parametrize("every", [0, -3])
    def test_record_every_must_be_positive(self, every):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        with pytest.raises(ValueError, match="record_every"):
            solve(s, pb, opts=SolveOptions(max_iters=5, record_every=every))

    def test_negative_max_iters_refused(self):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            solve(s, pb, opts=SolveOptions(max_iters=-1))

    @pytest.mark.parametrize("field,value", [
        ("max_iters", 2.5), ("max_iters", "5"), ("residual_tol", "1"),
        ("record_every", 2.5)],
        ids=["max_iters_float", "max_iters_str", "residual_tol_str",
             "record_every_float"])
    def test_option_types_refused_by_name(self, field, value):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        opts = replace(SolveOptions(max_iters=7), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} = "):
            solve(s, pb, opts=opts)

    @pytest.mark.parametrize("field", ["max_iters", "record_every",
                                       "residual_tol", "lambda_schedule"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_options_refused_by_name(self, field, value):
        # a bool is an int to isinstance and float(True) is 1.0, so True ran
        # as residual_tol 1.0 (converged at iteration 0) or max_iters 1
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        opts = replace(SolveOptions(max_iters=7), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} "):
            solve(s, pb, z0=BlockVector([np.ones(2)]), opts=opts)

    def test_bool_lambda_refused_by_step_and_residual(self):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        state = IterateState(z=BlockVector([np.ones(2)]), w=BlockVector([]))
        with pytest.raises(ValueError, match="^lambda_t must be one number"):
            step(s, pb, state, True)
        with pytest.raises(ValueError, match="^lambda_t must be one number"):
            residual_star(s, state.z, state.w, True)

    def test_numpy_integer_options_accepted(self):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        report = solve(s, pb, z0=BlockVector([np.ones(2)]), opts=SolveOptions(
            max_iters=np.int64(7), record_every=np.int32(5),
            residual_tol=np.float64(0.0), lambda_schedule=1.0))
        assert [r[0] for r in report.records] == [0, 5, 7]

    def test_bounds_error_reraised(self):
        s = scheme_sequential(2)
        d = 2
        pb = ProblemInstance(
            d=d, A_list=[zero_resolvent(d), zero_resolvent(d)],
            BL_list=[ComposedBlock(B=zero_resolvent(d),
                                   L=LinearMap(np.eye(d)))],
            C_list=[SingleValuedOp(dim=d, apply=lambda x: x, lipschitz=-1.0,
                                   cocoercive=True)])
        with pytest.raises(ValueError,
                           match="Lipschitz constants must be nonnegative"):
            solve(s, pb)

    @pytest.mark.parametrize("name", ["z0", "w0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["blocks", "stacked"])
    def test_non_finite_start_refused(self, monkeypatch, name, value,
                                      stacked):
        # a finite start is what keeps every state of the loop finite
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        start = {"z0": BlockVector([np.zeros(pb.d) for _ in range(s.m)]),
                 "w0": BlockVector([np.zeros(blk.L.out_dim)
                                    for blk in pb.BL_list])}
        start[name].blocks[-1][3] = value
        if stacked:
            start = {k: np.stack(v.blocks) for k, v in start.items()}

        def no_evaluation(*args, **kwargs):
            raise AssertionError("Gamma evaluated at a non-finite start")

        monkeypatch.setattr(solver_module, "eval_Gamma", no_evaluation)
        with pytest.raises(ValueError,
                           match=f"^{name} has a NaN or infinite entry$"):
            solve(s, pb, **start, opts=SolveOptions(max_iters=5))

    def test_diverged_certificate_leaks_no_warning(self):
        # C overflows at the start, so the last x is not finite, and the
        # dual certificate is computed from it
        s = scheme_sequential(3, gamma=0.5, eta=0.5)
        d = 2
        blowup = SingleValuedOp(dim=d,
                                apply=lambda x: 1e300 * np.exp(np.abs(x)),
                                lipschitz=1.0, cocoercive=True)
        pb = ProblemInstance(
            d=d, A_list=[zero_resolvent(d)] * 3,
            BL_list=[ComposedBlock(B=zero_resolvent(d),
                                   L=LinearMap(np.eye(d)))] * 2,
            C_list=[blowup] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(s, pb, z0=BlockVector([np.full(d, 700.0)] * s.m),
                           opts=SolveOptions(max_iters=5))
        assert report.stop_reason == "diverged"
        assert report.final.z.isfinite() and report.final.w.isfinite()

    def test_lambda_out_of_range_rejected(self):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        with pytest.raises(ValueError):
            solve(s, pb, opts=SolveOptions(lambda_schedule=1.5))

    def test_divergence_guard(self):
        # lie about the Lipschitz constant so the admissible step is far
        # too long for the actual operator
        s = scheme_sequential(2, gamma=1.0, eta=1e-3)
        d = 2
        steep = SingleValuedOp(dim=d, apply=lambda x: 1e6 * x,
                               lipschitz=1e-6, cocoercive=True)
        pb = ProblemInstance(
            d=d, A_list=[zero_resolvent(d), zero_resolvent(d)],
            BL_list=[ComposedBlock(B=zero_resolvent(d),
                                   L=LinearMap(np.eye(d)))],
            C_list=[steep],
        )
        z0 = BlockVector([np.ones(d)])
        report = solve(s, pb, z0=z0, opts=SolveOptions(max_iters=2000))
        assert report.stop_reason == "diverged" and not report.converged
        assert report.iters_run < 2000

    def test_lipschitz_regime_checks_q_rows(self, rng):
        ring = scheme_ring(4, regime="lipschitz")
        pb = random_problem_for(rng, ring, 3, gdim=2)
        with pytest.raises(ValueError, match="'q_rows': False"):
            solve(ring.replace(Q=2.0 * ring.Q), pb)

    def test_lipschitz_ring_converges_and_certifies(self):
        s, pb, _ = _lipschitz_ring_instance(d=10)
        assert _regime(s, pb) == "lipschitz"
        report = solve(s, pb, opts=SolveOptions(max_iters=20_000,
                                                residual_tol=1e-20))
        assert report.converged
        cert = certify_solution(s, pb, report.final, tol=1e-8)
        assert cert["ok"], cert

    def test_lipschitz_ring_end_to_end_at_bench_shape(self):
        # six nodes, d = 12, one difference-map block: Omega >= 0 holds at
        # the half-bound eta, and at residual_tol 1e-16 the inclusion
        # residual (3.0e-7) certifies with a 30x margin; 1e-13 left 9.6e-6
        s, pb, _ = _lipschitz_ring_instance(d=12, nodes=6)
        assert _regime(s, pb) == "lipschitz"
        L_list = [blk.L for blk in pb.BL_list]
        ell = pb.lipschitz_constants
        verdict = validate_psd(s, L_list, ell, 12)
        assert verdict["A320"]
        assert verdict == psd_oracle.validate_psd(s, L_list, ell, 12)
        report = solve(s, pb, opts=SolveOptions(max_iters=50_000,
                                                residual_tol=1e-16))
        assert report.converged
        cert = certify_solution(s, pb, report.final, tol=1e-5)
        assert cert["ok"], cert
        assert cert["inclusion_residual"] <= 1e-6, cert

    @pytest.mark.parametrize("family", ["sequential", "complete",
                                        "ring_lipschitz", "mixed_out_dims"])
    def test_matches_public_steps(self, family):
        # the array hot loop of solve against K public step() calls on
        # BlockVectors from the same start
        K = 25
        if family == "ring_lipschitz":
            s, pb, lam_max = _lipschitz_ring_instance(d=8)
        elif family == "mixed_out_dims":
            s, pb, lam_max = _mixed_out_dims_instance(d=6)
        else:
            inst = gen_instance(4, n=3, m=12, d=9, k_nonzero=3, mu=0.4,
                                nu=0.2)
            pb = to_problem(inst)
            s, _, lam_max = build_family_scheme(family, inst, 0.5, 0.1)
        lam = 0.9 * lam_max
        report = solve(s, pb, opts=SolveOptions(max_iters=K, residual_tol=0.0,
                                                lambda_schedule=lam))
        assert report.iters_run == K and report.stop_reason == "max_iters"
        state = IterateState(
            z=BlockVector.zeros([pb.d] * s.m),
            w=BlockVector.zeros([blk.L.out_dim for blk in pb.BL_list]))
        for _ in range(K):
            state = step(s, pb, state, lam)
        gz, gw, x, _ = eval_Gamma(s, pb, state.z, state.w)
        final = report.final
        for got, want in ((final.z, state.z), (final.w, state.w),
                          (final.x, x)):
            assert _rel(got.blocks, want.blocks) <= 1e-12
        t, res = report.residual_history[-1]
        assert t == K
        ref = residual_star(s, gz, gw, lam)
        assert abs(res - ref) <= 1e-12 * ref
        assert final.w.dims == [blk.L.out_dim for blk in pb.BL_list]

    @pytest.mark.parametrize("case", ["size_one_blocks", "extra_block",
                                      "short"])
    def test_w0_must_match_dual_blocks(self, case):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, lam_max = build_family_scheme("sequential", inst, 0.5, 0.1)
        good = [np.zeros(blk.L.out_dim) for blk in pb.BL_list]
        w0 = {"size_one_blocks": [np.zeros(1)] * len(good),
              "extra_block": good + [np.zeros(pb.d - 1)],
              "short": good[:-1]}[case]
        with pytest.raises(ValueError, match="w0"):
            solve(s, pb, w0=w0, opts=SolveOptions(
                max_iters=50, lambda_schedule=0.9 * lam_max))

    def test_stop_reason_converged(self):
        s = two_node_scheme(gamma=1.0)
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        report = solve(s, pb, z0=BlockVector([np.ones(2)]),
                       opts=SolveOptions(max_iters=100, residual_tol=1e-12,
                                         lambda_schedule=1.0))
        assert report.converged and report.stop_reason == "converged"
        assert report.iters_run < 100

    def test_stop_reason_max_iters(self):
        s = two_node_scheme(gamma=1.0)
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        report = solve(s, pb, z0=BlockVector([np.ones(2)]),
                       opts=SolveOptions(max_iters=5, residual_tol=1e-30,
                                         lambda_schedule=1.0))
        assert not report.converged and report.stop_reason == "max_iters"
        assert report.iters_run == 5

    def test_divergence_carries_partial_report(self):
        s = scheme_sequential(2, gamma=1.0, eta=1e-3)
        d = 2
        steep = SingleValuedOp(dim=d, apply=lambda x: 1e6 * x,
                               lipschitz=1e-6, cocoercive=True)
        pb = ProblemInstance(
            d=d, A_list=[zero_resolvent(d), zero_resolvent(d)],
            BL_list=[ComposedBlock(B=zero_resolvent(d),
                                   L=LinearMap(np.eye(d)))],
            C_list=[steep],
        )
        report = solve(s, pb, z0=BlockVector([np.ones(d)]),
                       opts=SolveOptions(max_iters=2000))
        assert report.stop_reason == "diverged" and not report.converged
        # every iteration up to the last finite iterate was recorded
        assert [t for t, _ in report.residual_history] == \
            list(range(report.iters_run + 1))
        # the residual first overflows at iteration 25, and solve stops there
        # rather than when the iterate itself overflows (iteration 51)
        assert report.iters_run == 25
        assert all(math.isfinite(res) and math.isfinite(gap)
                   for _, res, gap, _, _ in report.records[:-1])
        assert not math.isfinite(report.records[-1][1])
        final = report.final
        assert final.z.isfinite() and final.w.isfinite()
        x, y = eval_S(s, pb, final.z, final.w)
        np.testing.assert_array_equal(x.concat(), final.x.concat())
        np.testing.assert_array_equal(y.concat(), final.y.concat())
        # that iteration is recorded between the record_every records too
        report = solve(s, pb, z0=BlockVector([np.ones(d)]),
                       opts=SolveOptions(max_iters=2000, record_every=10))
        assert report.stop_reason == "diverged"
        assert [r[0] for r in report.records] == [0, 10, 20, 25]
        assert not math.isfinite(report.records[-1][1])

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_unreachable_tolerance_refused(self, tol):
        s = two_node_scheme(gamma=1.0)
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        with pytest.raises(ValueError, match="residual_tol"):
            solve(s, pb, opts=SolveOptions(max_iters=5, residual_tol=tol))
        # an exact fixed point meets a zero tolerance
        report = solve(s, pb, opts=SolveOptions(max_iters=5, residual_tol=0.0))
        assert report.converged and report.iters_run == 0

    def test_lambda_schedule_callable_refused(self, monkeypatch):
        # lambda is one number per run, refused before any evaluation
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])

        def no_evaluation(*args, **kwargs):
            raise AssertionError("Gamma evaluated before lambda was checked")

        monkeypatch.setattr(solver_module, "eval_Gamma", no_evaluation)
        with pytest.raises(ValueError, match="lambda_schedule"):
            solve(s, pb, z0=BlockVector([np.ones(2)]),
                  opts=SolveOptions(max_iters=30,
                                    lambda_schedule=lambda t: 0.5))


def _accepts(call):
    try:
        call()
        return True
    except ValueError:
        return False


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(near=st.sampled_from(["zero", "lambda_max"]),
       offset=st.one_of(st.floats(-4 * LAMBDA_SLACK, 4 * LAMBDA_SLACK),
                        st.sampled_from([LAMBDA_SLACK, -LAMBDA_SLACK,
                                         math.inf, -math.inf, math.nan])))
def test_one_lambda_rule_for_solve_step_and_residual(near, offset):
    # solve and step with lambda_max accept the same lambda, and step
    # without a bound accepts what residual_star accepts
    s, pb, _ = _mixed_out_dims_instance(3)
    lam_max = check_scheme(s, pb.lipschitz_constants,
                           [blk.L.norm() for blk in pb.BL_list],
                           pb.all_cocoercive)[2].lambda_max(s.gamma)
    lam = (0.0 if near == "zero" else lam_max) + offset
    state = IterateState(z=BlockVector([np.zeros(pb.d)] * s.m),
                         w=BlockVector([np.zeros(blk.L.out_dim)
                                        for blk in pb.BL_list]))
    gz, gw, _, _ = eval_Gamma(s, pb, state.z, state.w)
    by_solve = _accepts(lambda: solve(s, pb, opts=SolveOptions(
        max_iters=0, lambda_schedule=lam)))
    by_step = _accepts(lambda: step(s, pb, state, lam, lambda_max=lam_max))
    by_step_unbounded = _accepts(lambda: step(s, pb, state, lam))
    by_residual = _accepts(lambda: residual_star(s, gz, gw, lam))
    finite_positive = math.isfinite(lam) and lam > 0
    assert by_solve == by_step == (finite_positive
                                   and lam <= lam_max + LAMBDA_SLACK)
    assert by_residual == by_step_unbounded == finite_positive


class TestSchemeAgainstProblem:
    @pytest.mark.parametrize("entry", ["solve", "eval_S"])
    @pytest.mark.parametrize("ops,size", [
        ("A_list", "n"), ("BL_list", "r"), ("C_list", "p")],
        ids=["extra_A", "extra_L", "extra_C"])
    def test_counts_must_match(self, rng, ops, size, entry):
        s = scheme_sequential(3, gamma=0.1)
        pb = random_problem_for(rng, s, 3, gdim=2)
        pb = replace(pb, **{ops: getattr(pb, ops) + getattr(pb, ops)[-1:]})
        named = (f"the scheme has {size} = {getattr(s, size)} but the "
                 f"problem has {getattr(s, size) + 1} operators")
        with pytest.raises(ValueError, match=named):
            if entry == "solve":
                solve(s, pb)
            else:
                eval_S(s, pb, np.zeros((s.m, 3)), [np.zeros(2)] * s.r)

    def test_solve_and_certificate_take_padded_dual_rows(self, rng):
        # a stacked w is one zero-padded row per dual block, of unequal sizes
        s, pb, lam_max = _mixed_out_dims_instance(3)
        dims = [blk.L.out_dim for blk in pb.BL_list]

        def pad(w):
            rows = np.zeros((s.r, max(dims)))
            for row, b in zip(rows, w):
                row[:b.size] = b
            return rows

        w0 = BlockVector([rng.standard_normal(g) for g in dims])
        opts = SolveOptions(max_iters=50, lambda_schedule=lam_max)
        want = solve(s, pb, w0=w0, opts=opts)
        got = solve(s, pb, w0=pad(w0), opts=opts)
        np.testing.assert_array_equal(got.final.w.concat(),
                                      want.final.w.concat())
        z, w = want.final.z, want.final.w
        assert certify_solution(s, pb, IterateState(
            z=np.stack(z.blocks), w=pad(w))) == certify_solution(
                s, pb, IterateState(z=z, w=w))

    @pytest.mark.parametrize("name,rows,cols", [
        ("w", 0, 1), ("w", 0, "one"), ("w", -1, 0), ("w", 1, 0),
        ("z", -1, 0), ("z", 0, "one"), ("z", 0, 1)],
        ids=["w_too_wide", "w_one_column", "w_too_few_rows",
             "w_too_many_rows", "z_too_few_rows", "z_one_column",
             "z_too_wide"])
    def test_stacked_iterates_must_have_their_shapes(self, name, rows, cols):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        shapes = {"z": (s.m, pb.d),
                  "w": (s.r, max(blk.L.out_dim for blk in pb.BL_list))}
        r, g = shapes[name]
        bad = (r + rows, 1 if cols == "one" else g + cols)
        zw = {k: np.zeros(bad if k == name else v) for k, v in shapes.items()}
        named = (rf"{name} has shape \({bad[0]}, {bad[1]}\), "
                 rf"expected \({r}, {g}\)")
        for call in (eval_S, eval_Gamma):
            with pytest.raises(ValueError, match=named):
                call(s, pb, zw["z"], zw["w"])
        with pytest.raises(ValueError, match=named):
            certify_solution(s, pb, IterateState(z=zw["z"], w=zw["w"]))

    def test_implicit_scheme_refused_by_every_evaluator(self, rng):
        # N[0, 2] is above the diagonal; its mass comes from N[2, 1], so
        # the standing checks pass and solve reaches the plan
        s = scheme_sequential(3, gamma=0.1)
        N = s.N.copy()
        N[0, 2], N[2, 1] = 0.5, N[2, 1] - 0.5
        bad = s.replace(N=N)
        pb = random_problem_for(rng, bad, 4, gdim=2)
        assert check_scheme(bad, pb.lipschitz_constants, [1.0] * bad.r,
                            pb.all_cocoercive)[1].all_pass
        z, w = np.zeros((bad.m, 4)), np.zeros((bad.r, 2))
        state = IterateState(z=z, w=w)
        implicit = r"^scheme is implicit \(not strictly lower triangular\)"
        for call in (lambda: solver_module.EvalPlan(bad, pb),
                     lambda: eval_S(bad, pb, z, w),
                     lambda: eval_Gamma(bad, pb, z, w, check=False),
                     lambda: step(bad, pb, state, 0.5),
                     lambda: certify_solution(bad, pb, state),
                     lambda: solve(bad, pb),
                     # solve refuses an implicit scheme before its gamma
                     lambda: solve(bad.replace(gamma=1e6), pb)):
            with pytest.raises(ValueError, match=implicit):
                call()
        # and after a failed standing check
        with pytest.raises(ValueError, match="fails structural validation"):
            solve(bad.replace(N=N + np.eye(3)), pb)

    def test_block_iterate_must_have_its_dimensions(self):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        z = BlockVector([np.zeros(pb.d)] * (s.m - 1) + [np.zeros(pb.d - 1)])
        w = BlockVector([np.zeros(blk.L.out_dim) for blk in pb.BL_list])
        named = (rf"has blocks of dimensions \[{pb.d - 1}, {pb.d}\], "
                 rf"expected \({s.m}, {pb.d}\)")
        for call in (eval_S, eval_Gamma):
            with pytest.raises(ValueError, match="^z " + named):
                call(s, pb, z, w)
        with pytest.raises(ValueError, match="^z " + named):
            certify_solution(s, pb, IterateState(z=z, w=w))
        with pytest.raises(ValueError, match="^z0 " + named):
            solve(s, pb, z0=z, w0=w)


HUGE = np.finfo(float).max
# finite floats, often within a factor 2 of +-max
_finite = st.one_of(st.floats(-HUGE, HUGE), st.floats(HUGE / 2, HUGE),
                    st.floats(-HUGE, -HUGE / 2))


def _update_and_residual(z, w, gz, gw, lam, gamma, E):
    """One update of solve's loop and the residual_star it follows."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = residual_star(SimpleNamespace(gamma=gamma, E_diag=E), gz, gw,
                            lam)
        z_next = np.multiply(gz, -lam) + z
        w_next = np.multiply(gw, -lam) + w
    return np.isfinite(z_next).all() and np.isfinite(w_next).all(), res


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m=st.integers(1, 3), d=st.integers(1, 3),
       r=st.integers(0, 2), g=st.integers(1, 3),
       lam=st.one_of(st.floats(0.0, 1.0 + LAMBDA_SLACK, exclude_min=True),
                     st.just(1.0 + LAMBDA_SLACK)),
       gamma=st.floats(0.0, HUGE, exclude_min=True))
def test_update_overflows_only_with_the_residual(data, m, d, r, g, lam,
                                                 gamma):
    # solve's one divergence check: with lambda <= 1 + LAMBDA_SLACK, gamma > 0
    # and E > 0, an update z - lam gz, w - lam gw from a finite state
    # overflows only when residual_star of (gz, gw) is not finite
    z, gz = (data.draw(arrays(float, (m, d), elements=_finite))
             for _ in range(2))
    w, gw = (data.draw(arrays(float, (r, g), elements=_finite))
             for _ in range(2))
    E = data.draw(arrays(float, r, elements=st.floats(0.0, HUGE,
                                                      exclude_min=True)))
    finite, res = _update_and_residual(z, w, gz, gw, lam, gamma, E)
    assert finite or not math.isfinite(res)


@pytest.mark.parametrize("part", ["z", "w"])
def test_update_overflow_needs_a_step_of_2_970(part):
    # max + 2^970 rounds to inf and max + 2^969 to max, and the square of
    # either step overflows the residual, at any gamma and E
    lam, E = 1.0 + LAMBDA_SLACK, np.array([HUGE])
    z, w = np.full((1, 1), HUGE), np.full((1, 1), HUGE)
    for size, overflows in ((2.0 ** 969, False), (2.0 ** 970, True)):
        gz = np.full((1, 1), -size if part == "z" else 0.0)
        gw = np.full((1, 1), -size if part == "w" else 0.0)
        finite, res = _update_and_residual(z, w, gz, gw, lam, 1e-300, E)
        assert finite != overflows and not math.isfinite(res)


def _perturbed(s, rng):
    """The scheme with every nonzero coefficient scaled by a random factor,
    so that the sums see unequal weights.  The sparsity pattern, and so
    explicitness, is kept; the structural assumptions need not hold."""
    def scale(a):
        return a * rng.uniform(0.5, 1.5, size=a.shape)
    return s.replace(M=scale(s.M), N=scale(s.N), H=scale(s.H), K=scale(s.K),
                     P=scale(s.P), Q=scale(s.Q), R=scale(s.R),
                     D_diag=scale(s.D_diag), E_diag=scale(s.E_diag))


def _rel(a, b):
    a, b = np.concatenate(a), np.concatenate(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _sparse(rng, shape, density=0.5):
    return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape) \
        * (rng.random(shape) < density)


def random_explicit_scheme(rng, n, gamma, eta):
    """Random strictly lower-triangular masks on N, P - Q, Q and H, with R
    and K supported ahead of the first row that uses each of their rows.
    Some columns of P - Q, Q and H are all zero (images no row uses), and
    the nonzeros of a row are scattered, so its spans hold zeros."""
    m = int(rng.integers(1, n + 1))
    p, r = (int(rng.integers(0, n + 1)) for _ in range(2))
    N = _sparse(rng, (n, n)) * np.tri(n, n, -1)
    P, Q = np.zeros((n, p)), np.zeros((n, p))
    for j in range(p):
        f = int(rng.integers(1, n + 1))   # P[:, j] is zero from row f on
        P[:f, j] = _sparse(rng, f, 0.4)
        Q[f:, j] = _sparse(rng, n - f)
    H = _sparse(rng, (n, r)) * (rng.random(r) < 0.7)
    R, K = _sparse(rng, (p, n)), _sparse(rng, (r, n))

    def first_row(col):
        nz = np.flatnonzero(col)
        return nz[0] if nz.size else n

    for j in range(p):
        R[j, first_row(P[:, j] - Q[:, j]):] = 0.0
    for k in range(r):
        K[k, first_row(H[:, k]):] = 0.0
    s = CoefficientScheme(
        M=rng.standard_normal((n, m)), N=N,
        D_diag=rng.uniform(0.5, 2.0, n), E_diag=eta * rng.uniform(0.5, 2.0, r),
        H=H, K=K, P=P, Q=Q, R=R, gamma=gamma)
    assert check_explicit(s)
    return s


def random_tree_scheme(rng, n, gamma, eta):
    """scheme_from_graph on a random spanning tree with random weights,
    inside a graph with random extra edges.  Vertices are labelled in a
    random order, so a vertex can have several lower-index tree neighbours
    and a row of H = P several scattered nonzeros."""
    order = rng.permutation(n) + 1
    tree = {}
    for t in range(1, n):
        u, v = sorted((int(order[t]), int(order[rng.integers(t)])))
        tree[(u, v)] = float(rng.uniform(0.5, 2.0))
    full = {(i, j): float(rng.uniform(0.5, 2.0)) for i in range(1, n + 1)
            for j in range(i + 1, n + 1) if rng.random() < 0.4}
    for e, wt in tree.items():
        full[e] = wt * float(rng.uniform(1.0, 2.0))
    g = GraphSpec(n=n, edges=[(i, j, wt) for (i, j), wt in full.items()],
                  subgraph_edges=[(i, j, wt) for (i, j), wt in tree.items()])
    return scheme_from_graph(g, gamma=gamma, eta=eta)


def random_subgraph_scheme(rng, n, gamma, eta):
    """scheme_from_graph on a random connected subgraph with a cycle: a
    random spanning tree plus one to n more edges, all randomly weighted,
    so that M is a Cholesky factor, whose columns fill in below their
    pivots, and so are those of H = P.  kappa is set on about half the
    draws."""
    tree = [(int(rng.integers(1, j)), j) for j in range(2, n + 1)]
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) not in tree]
    more = rng.permutation(len(rest))[:int(rng.integers(1, n + 1))]
    g = GraphSpec(n=n, edges=[(i, j, float(rng.uniform(0.2, 3.0)))
                              for i, j in tree + [rest[k] for k in more]])
    kappa = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else None
    return scheme_from_graph(g, gamma=gamma, eta=eta, kappa=kappa)


DIFF_FAMILIES = {
    "sequential": lambda rng, n, g, e: scheme_sequential(n, gamma=g, eta=e),
    "star": lambda rng, n, g, e: scheme_star(n, gamma=g, eta=e),
    "complete": lambda rng, n, g, e: scheme_complete(n, gamma=g, eta=e),
    "ring_cocoercive": lambda rng, n, g, e: scheme_ring(n, gamma=g, eta=e),
    "ring_lipschitz": lambda rng, n, g, e: scheme_ring(n, gamma=g, eta=e,
                                                       regime="lipschitz"),
    "random_explicit": random_explicit_scheme,
    "random_tree": random_tree_scheme,
    "subgraph": random_subgraph_scheme,
}


class TestAgainstLoopEvaluator:
    """The stacked forward pass against the per-row loop evaluator in
    solver_oracle, on random schemes, problems and points."""

    DRAWS = 40   # per family, 320 in all

    @pytest.mark.parametrize("family", sorted(DIFF_FAMILIES))
    def test_gamma_and_certificate_agree(self, family):
        rng = np.random.default_rng(sorted(DIFF_FAMILIES).index(family))
        tol = 1e-13
        for draw in range(self.DRAWS):
            n, d = int(rng.integers(3, 7)), int(rng.integers(2, 7))
            s = DIFF_FAMILIES[family](rng, n, rng.uniform(0.2, 1.5),
                                      rng.uniform(0.2, 1.5))
            if draw % 2:
                s = _perturbed(s, rng)
            pb = random_problem_for(rng, s, d)
            z = BlockVector([rng.standard_normal(d) for _ in range(s.m)])
            w = BlockVector([rng.standard_normal(blk.L.out_dim)
                             for blk in pb.BL_list])
            new = eval_Gamma(s, pb, z, w)
            old = solver_oracle.eval_Gamma(s, pb, z, w)
            for name, a, b in zip(("gz", "gw", "x", "y"), new, old):
                if len(b):
                    assert _rel(a.blocks, b.blocks) <= tol, (draw, name)
            state = IterateState(z=z, w=w)
            c_new = certify_solution(s, pb, state)
            c_old = solver_oracle.certify_solution(s, pb, state)
            for key in ("consensus_gap", "inclusion_residual"):
                assert abs(c_new[key] - c_old[key]) <= tol * c_old[key], \
                    (draw, key)
            np.testing.assert_allclose(c_new["memberships"],
                                       c_old["memberships"], rtol=tol)


def _gamma_error(s, rng, d):
    """The largest relative difference of gz, gw, x and y between eval_Gamma
    and the loop evaluator at a random point of a random problem."""
    pb = random_problem_for(rng, s, d)
    z = BlockVector([rng.standard_normal(d) for _ in range(s.m)])
    w = BlockVector([rng.standard_normal(blk.L.out_dim)
                     for blk in pb.BL_list])
    new = eval_Gamma(s, pb, z, w)
    old = solver_oracle.eval_Gamma(s, pb, z, w)
    return max(_rel(a.blocks, b.blocks) for a, b in zip(new, old))


def _modes(s, d=3):
    plan = solver_module.EvalPlan(
        s, random_problem_for(np.random.default_rng(0), s, d))
    return plan.modes, plan.Ht is not None


class TestRunningSums:
    """Rows that repeat the previous row's coefficients wherever it has a
    nonzero add only their new columns to a running sum, and a column of H
    with several nonzeros makes (H^T x)_k one product."""

    @pytest.mark.parametrize("seed", range(3))
    def test_complete_at_agents_scale_matches_loop_evaluator(self, seed):
        # 21 nodes, as on the agents20 benchmark: every row from the third
        # on runs; measured 1.9e-15 to 4.1e-15 on seeds 0-4 (the span dots
        # gave 1.1e-15 to 4.2e-15)
        rng = np.random.default_rng(seed)
        s = scheme_complete(21, gamma=rng.uniform(0.2, 1.5),
                            eta=rng.uniform(0.2, 1.5))
        assert _modes(s) == ([None, "start"] + ["run"] * 19, True)
        assert _gamma_error(s, rng, 120) <= 1e-13

    def test_perturbed_entry_falls_back_to_span_dots(self, rng):
        s = scheme_complete(8, gamma=0.7, eta=0.4)
        N = s.N.copy()
        # row 4 no longer repeats row 3, nor row 5 row 4: both sum their full
        # spans, and row 6 runs on from row 5's sum
        N[4, 1] *= 1.25
        s = s.replace(N=N)
        assert _modes(s)[0] == [None, "start", "run", "run", None, "start",
                                "run", "run"]
        assert _gamma_error(s, rng, 100) <= 1e-13

    # from n = 4 on: the three-node ring is the triangle, a complete graph,
    # and its last row repeats the one before
    @pytest.mark.parametrize("n", [4, 6, 21])
    @pytest.mark.parametrize("family", ["sequential", "star",
                                        "ring_cocoercive", "ring_lipschitz"])
    def test_other_families_compile_no_running_row(self, family, n):
        s = DIFF_FAMILIES[family](None, n, 0.5, 0.3)
        assert _modes(s) == ([None] * n, False)


class TestCertification:
    def test_small_instance_certifies(self):
        inst = gen_instance(3, n=2, m=10, d=6, k_nonzero=2, mu=0.4, nu=0.2)
        pb = to_problem(inst)
        scheme, _, lam_max = build_family_scheme("sequential", inst, 0.4, 0.5)
        report = solve(scheme, pb,
                       opts=SolveOptions(max_iters=50_000,
                                         residual_tol=1e-13,
                                         lambda_schedule=0.9 * lam_max))
        assert report.converged
        cert = certify_solution(scheme, pb, report.final, tol=1e-5)
        assert cert["ok"], cert
        assert cert["consensus_gap"] <= 1e-5
        assert cert["inclusion_residual"] <= 1e-5

    def test_unconverged_state_fails_certificate(self, rng):
        inst = gen_instance(3, n=2, m=10, d=6, k_nonzero=2, mu=0.4, nu=0.2)
        pb = to_problem(inst)
        scheme, _, lam_max = build_family_scheme("sequential", inst, 0.4, 0.5)
        report = solve(scheme, pb,
                       opts=SolveOptions(max_iters=3, residual_tol=1e-13,
                                         lambda_schedule=0.9 * lam_max))
        cert = certify_solution(scheme, pb, report.final, tol=1e-8)
        assert not cert["ok"]


class TestClassicalMethods:
    """Douglas-Rachford (p = 0) and Davis-Yin (p = 1) as schemes:
    scheme_sequential(2)'s M, N, D, P and R with no dual block, stepped
    against their textbook loops.  Each prints check_scheme's lambda_max
    beside the classical relaxation range."""

    STEPS = 60

    @pytest.mark.parametrize("method", ["douglas_rachford", "davis_yin"])
    def test_scheme_reproduces_the_textbook_loop(self, method, rng):
        d, p = 6, int(method == "davis_yin")
        A1, A2 = (monotone_affine(rng, d) for _ in range(2))
        C_list = ([least_squares_gradient(rng.standard_normal((d + 2, d)),
                                          rng.standard_normal(d + 2))]
                  if p else [])
        pb = ProblemInstance(d=d, A_list=[A1, A2], C_list=C_list)
        L = C_list[0].lipschitz if p else 0.0
        gamma = 1.0 / L if p else 0.7
        s = scheme_sequential(2, gamma=gamma).replace(
            E_diag=np.zeros(0), H=np.zeros((2, 0)), K=np.zeros((0, 2)),
            **({} if p else {"P": np.zeros((2, 0)), "Q": np.zeros((2, 0)),
                             "R": np.zeros((0, 2))}))
        regime, rep, bounds = check_scheme(s, pb.lipschitz_constants, [],
                                           pb.all_cocoercive)
        assert (regime, rep.all_pass, check_explicit(s)) == (
            "cocoercive", True, True)
        lam_max = bounds.lambda_max(gamma)
        classical = 2.0 - gamma * L / 2.0
        print(f"{method}: lambda_max {lam_max:.6g}, classical lambda < "
              f"{classical:.6g}")
        lam = 0.9 * lam_max

        def C(x):
            return C_list[0](x) if p else 0.0

        z = rng.standard_normal(d)
        state = IterateState(z=BlockVector([z]), w=BlockVector([]))
        for _ in range(self.STEPS):
            # x_B = J_{gamma B} z, x_A = J_{gamma A}(2 x_B - z - gamma C x_B)
            x_B = A1(gamma, z)
            x_A = A2(gamma, 2.0 * x_B - z - gamma * C(x_B))
            z = z + lam * (x_A - x_B)
            state = step(s, pb, state, lam)
            for got, want in ((state.x[0], x_B), (state.x[1], x_A),
                              (state.z[0], z)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12)


class TestExports:
    def _report(self):
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        return solve(s, pb, z0=BlockVector([np.ones(2)]),
                     opts=SolveOptions(max_iters=20, residual_tol=1e-15,
                                       lambda_schedule=1.0))

    def test_history_csv(self, tmp_path):
        report = self._report()
        path = tmp_path / "history.csv"
        export_report_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["iter", "residual", "consensus_gap",
                                        "objective", "time_ms"]
        assert len(rows) == len(report.residual_history)
        assert float(rows[0]["residual"]) == report.residual_history[0][1]

    def test_state_json(self, tmp_path):
        report = self._report()
        path = tmp_path / "state.json"
        export_state_json(report, path)
        data = json.loads(path.read_text())
        assert len(data["x"]) == 2
        assert data["s"] == []
