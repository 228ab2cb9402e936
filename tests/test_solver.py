"""Solution operator, displacement map, residual bookkeeping, and the full
relaxed iteration."""

import copy
import csv
import functools
import gc
import json
import math
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsplit import (BlockVector, ComposedBlock, IterateState, LinearMap, ProblemInstance,
                        SolveOptions, StarNormContext, affine_resolvent,
                        certify_solution, eval_Gamma, l1_resolvent,
                        prox_l1, residual_star, scheme_sequential,
                        scheme_star, solve, step, zero_resolvent)
from graphsplit.fusedlasso import (DifferenceMap, build_family_scheme,
                                   desk_instance, difference_matrix,
                                   gen_instance, to_problem)
from graphsplit.graphs import (GraphSpec, complete_graph, path_graph,
                               scheme_complete, scheme_from_graph,
                               scheme_ring, star_graph)
from graphsplit.operators import (ResolventOp, SingleValuedOp,
                                  least_squares_gradient)
from graphsplit.scheme import (CoefficientScheme, check_explicit, compute_tau,
                               compute_UW, step_bounds, validate_psd)
from graphsplit import solver as solver_module
from graphsplit.linalg import ROW_MAX
from graphsplit.solver import (LAMBDA_SLACK, EvalPlan, check_scheme,
                               consensus_gap, eval_S, export_report_csv,
                               export_state_json)

from conftest import monotone_affine, random_problem_for, read_ahead_scheme
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

    def test_mismatched_arguments_are_refused_by_name(self, rng):
        ctx = StarNormContext(gamma=0.4, E_diag=np.array([0.5, 2.0]))
        z2, z3 = np.ones((2, 2)), np.ones((2, 3))
        w = [np.ones(2)] * 2
        with pytest.raises(ValueError, match="w1 and w2 .* E_diag"):
            ctx.inner(z2, [np.ones(2)] * 3, z2, [np.ones(2)] * 3)
        with pytest.raises(ValueError, match=r"^w2 must hold 2 blocks of "
                           r"dimensions \[2, 2\]$"):
            ctx.inner(z2, w, z2, [np.ones(3)] * 2)
        with pytest.raises(ValueError, match="z1 has shape .* but z2"):
            ctx.inner(BlockVector(list(z2)), w, BlockVector(list(z3)), w)
        with pytest.raises(ValueError, match="z1 has blocks of dimensions"):
            ragged = BlockVector([np.ones(2), np.ones(3)])
            ctx.inner(ragged, w, ragged, w)

    @pytest.mark.parametrize("make", [list, BlockVector])
    def test_blocks_that_pad_alike_pair_by_size(self, make):
        # (2, 4) and (4, 2) pad to one shape: paired row by row they gave
        # 10.0, where blocks of matching sizes give 35.0
        ctx = StarNormContext(gamma=1.0, E_diag=np.ones(2))
        z, a2, a4 = np.zeros((1, 1)), np.arange(1.0, 3.0), np.arange(1.0, 5.0)
        assert ctx.inner(z, make([a2, a4]), z, make([a2, a4])) == 35.0
        with pytest.raises(ValueError, match=r"^w2 must hold 2 blocks of "
                           r"dimensions \[2, 4\]$"):
            ctx.inner(z, make([a2, a4]), z, make([a4, a2]))

    def test_one_argument_given_twice_is_read_once(self, rng, monkeypatch):
        s = scheme_sequential(4, gamma=0.7, eta=0.3)
        gz = rng.standard_normal((s.m, 5))
        gw = rng.standard_normal((s.r, 4))
        want = StarNormContext(s.gamma, s.E_diag).inner(
            gz, gw, gz.copy(), gw.copy()) / 0.8
        calls = []
        for name in ("_stacked", "_dual_rows"):
            def counted(*args, _f=getattr(solver_module, name), _n=name,
                        **kwargs):
                calls.append(_n)
                return _f(*args, **kwargs)
            monkeypatch.setattr(solver_module, name, counted)
        assert residual_star(s, gz, gw, 0.8) == want
        assert sorted(calls) == ["_dual_rows", "_stacked"]

    def test_checks_leave_the_arithmetic_as_it_was(self, rng):
        # the sum as it stood before the checks, term by term
        s = scheme_sequential(4, gamma=0.7, eta=0.3)
        gz = rng.standard_normal((s.m, 5))
        gw = rng.standard_normal((s.r, 4))
        rows = gw[:, None] @ gw[:, :, None]
        ref = (float(np.vdot(gz, gz))
               + s.gamma * float(rows.ravel() @ (1.0 / s.E_diag))) / 0.8
        assert residual_star(s, gz, gw, 0.8) == ref


class TestEvalS:
    def test_zero_operators_propagate_first_block(self, rng):
        s = two_node_scheme()
        pb = ProblemInstance(d=3, A_list=[zero_resolvent(3),
                                          zero_resolvent(3)])
        z = BlockVector([rng.standard_normal(3)])
        x, y = eval_S(EvalPlan(s, pb), z, BlockVector([]))[:2]
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
        x = eval_S(EvalPlan(s, pb), z, w)[0]
        mean_z = sum(z.blocks) / (n - 1)
        ref = prox_l1(mean_z, 0.8 * mu / (n - 1))
        np.testing.assert_allclose(x[0], ref, atol=1e-12)

    def test_implicit_scheme_rejected(self, rng):
        s = two_node_scheme()
        bad = s.replace(N=np.array([[0.0, 1.0], [2.0, 0.0]]))
        pb = ProblemInstance(d=2, A_list=[zero_resolvent(2)] * 2)
        with pytest.raises(ValueError):
            eval_S(EvalPlan(bad, pb), BlockVector([np.zeros(2)]),
                   BlockVector([]))

    def test_collect_returns_resolvent_arguments(self, rng):
        s = scheme_sequential(3, gamma=0.5)
        pb = random_problem_for(rng, s, 4, gdim=2)
        z = BlockVector([rng.standard_normal(4) for _ in range(2)])
        w = BlockVector([rng.standard_normal(2) for _ in range(2)])
        x, y, u, LKx, LHx = eval_S(EvalPlan(s, pb), z, w)
        # x_i is the resolvent of A_i at u_i with step gamma / delta_i
        for i in range(3):
            ref = pb.A_list[i](s.gamma / s.D_diag[i], u[i])
            np.testing.assert_allclose(x[i], ref, atol=1e-12)
        assert len(LKx) == len(LHx) == 2

    def test_plan_of_another_scheme_is_refused(self, rng):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s_seq, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        s_star, _, _ = build_family_scheme("star", inst, 0.5, 0.1)
        z = rng.standard_normal((s_seq.m, pb.d))
        w = rng.standard_normal((s_seq.r, pb.d - 1))
        plan = solver_module.EvalPlan(s_star, pb)
        with pytest.raises(ValueError, match="another scheme"):
            eval_Gamma(s_seq, pb, z, w, plan=plan)
        # the plan of an equal scheme object is another plan too
        with pytest.raises(ValueError, match="another scheme"):
            eval_Gamma(s_seq.replace(), pb, z, w,
                       plan=solver_module.EvalPlan(s_seq, pb))

    def test_plan_of_another_problem_is_refused(self, rng):
        # nu = 4 instead of 2: the plan holds the other problem's weights
        inst = gen_instance(3, n=2, m=10, d=12, mu=0.5, nu=2.0)
        other = gen_instance(3, n=2, m=10, d=12, mu=0.5, nu=4.0)
        pb, pb_other = to_problem(inst), to_problem(other)
        s, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        z = rng.standard_normal((s.m, pb.d))
        w = rng.standard_normal((s.r, pb.d - 1))
        plan = solver_module.EvalPlan(s, pb_other)
        with pytest.raises(ValueError, match="another problem"):
            eval_Gamma(s, pb, z, w, plan=plan)
        plan = solver_module.EvalPlan(s, pb)
        for a, b in zip(eval_Gamma(s, pb, z, w, plan=plan),
                        eval_Gamma(s, pb, z, w)):
            np.testing.assert_array_equal(a, b)


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

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
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

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
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


@functools.lru_cache(maxsize=None)
def _cadence_run(stop, every):
    """A solve that stops by ``stop``, recording every ``every`` iterations:
    desk sequential at 1e-10, the two-node setup of
    test_stop_reason_max_iters at max_iters 13, or the steep setup of
    test_divergence_carries_partial_report."""
    if stop == "converged":
        inst = desk_instance(0)
        s, _, lam_max = build_family_scheme("sequential", inst, 0.5, 0.1)
        return solve(s, to_problem(inst), opts=SolveOptions(
            max_iters=20_000, residual_tol=1e-10,
            lambda_schedule=0.9 * lam_max, record_every=every))
    d = 2
    if stop == "max_iters":
        ident = affine_resolvent(np.eye(d), np.zeros(d))
        s, pb = two_node_scheme(gamma=1.0), ProblemInstance(
            d=d, A_list=[ident, ident])
        opts = SolveOptions(max_iters=13, residual_tol=1e-30,
                            lambda_schedule=1.0, record_every=every)
    else:
        s = scheme_sequential(2, gamma=1.0, eta=1e-3)
        steep = SingleValuedOp(dim=d, apply=lambda x: 1e6 * x,
                               lipschitz=1e-6, cocoercive=True)
        pb = ProblemInstance(
            d=d, A_list=[zero_resolvent(d), zero_resolvent(d)],
            BL_list=[ComposedBlock(B=zero_resolvent(d),
                                   L=LinearMap(np.eye(d)))],
            C_list=[steep])
        opts = SolveOptions(max_iters=2000, record_every=every)
    return solve(s, pb, z0=BlockVector([np.ones(d)]), opts=opts)


def _final_arrays(report):
    """The final z, w, x and y of a report, and its dual certificate."""
    f, cert = report.final, report.dual_certificate
    return [np.concatenate(v.blocks) if v.blocks else np.zeros(0)
            for v in (f.z, f.w, f.x, f.y)] + [
        None if cert is None else np.concatenate(cert.blocks)]


def _regime(scheme, problem):
    """The regime that solve's gate decides for a scheme on a problem."""
    norms = [blk.L.norm() for blk in problem.BL_list]
    return check_scheme(scheme, problem.lipschitz_constants, norms,
                        problem.all_cocoercive)[0]


def _lipschitz_ring_instance(d, nodes=4):
    """A ring-lipschitz problem: C is 0.5 I plus a skew circulant, Lipschitz
    with constant sqrt(4.25).  It is also 2/17-cocoercive (ell = 8.5):
    <Cx - Cy, x - y> = 0.5 ||x - y||^2 >= (2/17) ||Cx - Cy||^2.  solve runs
    it in the lipschitz regime only because it is flagged
    cocoercive=False; gamma and eta sit at half their bounds."""
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

    @pytest.mark.parametrize("every", [1, 3, 7, 10, 25])
    @pytest.mark.parametrize("stop", ["converged", "max_iters", "diverged"])
    def test_record_every_thins_only_the_records(self, stop, every):
        # every stop is decided on every iteration: a run stops where the
        # record_every = 1 run stops, in its state, and records that run's
        # records at multiples of record_every, then the stopping one
        base, run = (_cadence_run(stop, e) for e in (1, every))
        assert (run.iters_run, run.stop_reason) == (base.iters_run, stop)
        for got, want in zip(_final_arrays(run), _final_arrays(base)):
            np.testing.assert_array_equal(got, want)
        kept = [r[:4] for r in base.records if r[0] % every == 0]
        if base.iters_run % every:
            kept.append(base.records[-1][:4])
        np.testing.assert_equal([r[:4] for r in run.records], kept)

    def test_max_iters_exit_reports_consistent_state(self):
        inst = desk_instance(0)
        pb = to_problem(inst)
        scheme, _, lam_max = build_family_scheme("sequential", inst, 0.5, 0.1)
        report = solve(scheme, pb,
                       opts=SolveOptions(max_iters=3, residual_tol=1e-13,
                                         lambda_schedule=0.9 * lam_max))
        assert not report.converged and report.iters_run == 3
        final = report.final
        _, _, x, y = eval_Gamma(scheme, pb, final.z, final.w)
        for got, want in ((x, final.x), (y, final.y)):
            np.testing.assert_allclose(np.concatenate(got.blocks),
                                       np.concatenate(want.blocks),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["sequential", "star", "complete",
                                      "mixed_out_dims"])
    def test_dual_certificate_is_eta_L_K_x_minus_w(self, case):
        # s_k = eta_k L_k (K x)_k - w_k, formed here from the final state
        if case == "mixed_out_dims":
            s, pb, lam_max = _mixed_out_dims_instance(5)
        else:
            inst = desk_instance(0)
            pb = to_problem(inst)
            s, _, lam_max = build_family_scheme(case, inst, 0.5, 0.1)
        report = solve(s, pb, opts=SolveOptions(max_iters=50,
                                                lambda_schedule=lam_max))
        final = report.final
        want = [eta * blk.L(kx) - wk for eta, blk, kx, wk in zip(
            s.E_diag, pb.BL_list, s.K @ np.stack(final.x.blocks),
            final.w.blocks)]
        got = report.dual_certificate.blocks
        assert [b.shape for b in got] == [b.shape for b in want]
        assert len({b.size for b in want}) == (2 if case == "mixed_out_dims"
                                               else 1)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

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
        with pytest.raises(ValueError, match=r"^max_iters = -1 must be >= 0$"):
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
        # a string is no number either: float() read "0.4" as 0.4, and
        # solve ran with it
        s = two_node_scheme()
        ident = affine_resolvent(np.eye(2), np.zeros(2))
        pb = ProblemInstance(d=2, A_list=[ident, ident])
        state = IterateState(z=BlockVector([np.ones(2)]), w=BlockVector([]))
        for lam in (True, "0.4"):
            named = f" = {lam!r} is not a number$"
            with pytest.raises(ValueError, match="^lambda_t" + named):
                step(s, pb, state, lam)
            with pytest.raises(ValueError, match="^lambda_t" + named):
                residual_star(s, state.z, state.w, lam)
            with pytest.raises(ValueError, match="^lambda_schedule" + named):
                solve(s, pb, z0=state.z, opts=SolveOptions(
                    max_iters=3, lambda_schedule=lam))

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
        with pytest.raises(ValueError, match=r"^ell\[0\] = -1.0 is not a "
                                             "finite number >= 0$"):
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
        assert np.isfinite(np.concatenate(
            report.final.z.blocks + report.final.w.blocks)).all()

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
        assert np.isfinite(np.concatenate(
            final.z.blocks + final.w.blocks)).all()
        _, _, x, y = eval_Gamma(s, pb, final.z, final.w)
        np.testing.assert_array_equal(np.concatenate(x.blocks),
                                      np.concatenate(final.x.blocks))
        np.testing.assert_array_equal(np.concatenate(y.blocks),
                                      np.concatenate(final.y.blocks))
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
                eval_S(EvalPlan(s, pb), np.zeros((s.m, 3)),
                       [np.zeros(2)] * s.r)

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
        np.testing.assert_array_equal(np.concatenate(got.final.w.blocks),
                                      np.concatenate(want.final.w.blocks))
        z, w = want.final.z, want.final.w
        assert certify_solution(s, pb, IterateState(
            z=np.stack(z.blocks), w=pad(w))) == certify_solution(
                s, pb, IterateState(z=z, w=w))

    def test_padding_of_w_must_be_zero(self, rng):
        # dual blocks of sizes 2, 4 and 2: on this problem at gamma = 1,
        # 7.0 in the padding left x as it was but moved gw, and
        # residual_star at 0.5 read 145,727.66 instead of 145,335.66
        s, pb, lam_max = _mixed_out_dims_instance(5)
        dims = [blk.L.out_dim for blk in pb.BL_list]
        assert dims == [2, 4, 2]
        z = rng.standard_normal((s.m, 5))
        w = np.zeros((s.r, 4))
        for row, g in zip(w, dims):
            row[:g] = rng.standard_normal(g)
        padded = w.copy()
        padded[0, 2:] = padded[2, 2:] = 7.0
        named = r"has a nonzero entry past the block sizes \[2, 4, 2\]"
        for call in (functools.partial(eval_S, EvalPlan(s, pb)),
                     functools.partial(eval_Gamma, s, pb)):
            call(z, w)
            with pytest.raises(ValueError, match="^w " + named):
                call(z, padded)
        with pytest.raises(ValueError, match="^w " + named):
            certify_solution(s, pb, IterateState(z=z, w=padded))
        opts = SolveOptions(max_iters=5, lambda_schedule=lam_max)
        solve(s, pb, w0=w, opts=opts)
        with pytest.raises(ValueError, match="^w0 " + named):
            solve(s, pb, w0=padded, opts=opts)
        # blocks of one size leave no padding, and the plan checks none
        inst = desk_instance(0)
        desk, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        assert solver_module.EvalPlan(desk, to_problem(inst)).pad is None

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
        for call in (functools.partial(eval_S, EvalPlan(s, pb)),
                     functools.partial(eval_Gamma, s, pb)):
            with pytest.raises(ValueError, match=named):
                call(zw["z"], zw["w"])
        with pytest.raises(ValueError, match=named):
            certify_solution(s, pb, IterateState(z=zw["z"], w=zw["w"]))

    def test_implicit_scheme_refused_by_every_evaluator(self, rng):
        # N[0, 2] is above the diagonal; its mass comes from N[2, 1], so
        # the standing checks pass and solve reaches the plan.  In the
        # read-ahead scheme only the nonzero patterns show the mass
        s = scheme_sequential(3, gamma=0.1)
        N = s.N.copy()
        N[0, 2], N[2, 1] = 0.5, N[2, 1] - 0.5
        implicit = r"^scheme is implicit \(not strictly lower triangular\)"
        for bad in (s.replace(N=N), read_ahead_scheme().replace(gamma=0.1)):
            pb = random_problem_for(rng, bad, 4, gdim=2)
            assert check_scheme(bad, pb.lipschitz_constants, [1.0] * bad.r,
                                pb.all_cocoercive)[1].all_pass
            z, w = np.zeros((bad.m, 4)), np.zeros((bad.r, 2))
            state = IterateState(z=z, w=w)
            for call in (lambda: solver_module.EvalPlan(bad, pb),
                         lambda: eval_S(EvalPlan(bad, pb), z, w),
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
            solve(s.replace(N=N + np.eye(3)), pb)

    def test_block_iterate_must_have_its_dimensions(self):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        z = BlockVector([np.zeros(pb.d)] * (s.m - 1) + [np.zeros(pb.d - 1)])
        w = BlockVector([np.zeros(blk.L.out_dim) for blk in pb.BL_list])
        named = (rf"has blocks of dimensions \[{pb.d - 1}, {pb.d}\], "
                 rf"expected \({s.m}, {pb.d}\)")
        for call in (functools.partial(eval_S, EvalPlan(s, pb)),
                     functools.partial(eval_Gamma, s, pb)):
            with pytest.raises(ValueError, match="^z " + named):
                call(z, w)
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


class _PlainDifferenceMap(DifferenceMap):
    """A difference map with no group hook: the plan calls it per k."""
    tape = adjoint_tape = None


# the plan buffers that a tape entry may read or write
_BUFFERS = ("S", "LKx", "LHx", "X", "U", "y", "z", "w")


def _buffer(plan, a):   # the plan buffer that a is a view of, or None
    # z and w are views of one flat vector: a is in the one it overlaps;
    # an empty view overlaps none, but the buffer may own its memory
    return next((name for name in _BUFFERS
                 if any(getattr(plan, name) is b for b in (a, a.base))
                 or np.may_share_memory(getattr(plan, name), a)), None)


def _rows(buf, view):   # the rows of the 2-D array buf that its view covers
    off = np.array(view.__array_interface__["data"][0]
                   - buf.__array_interface__["data"][0])
    for n, step in zip(view.shape, view.strides):
        off = np.add.outer(off, np.arange(n) * step)
    return tuple(np.unique(off // buf.strides[0]).tolist())


def _written(entry):
    """The array a tape entry writes and the index it writes through: the
    generic _put and dst.__setitem__ write dst at their index, T.fill T,
    np.copyto its first argument and any other its ``out`` (index None)."""
    if entry.func is solver_module._put:
        return entry.args[0], entry.args[1]
    if "out" in entry.keywords or entry.func is np.copyto:
        return entry.keywords.get("out", entry.args[0]), None
    return entry.func.__self__, (entry.args[0] if entry.args else None)


def _calls(plan):
    """The tape as calls: runs of consecutive entries that write the same
    rows of one plan buffer, each (buffer, rows, entries), where buffer is a
    name of _BUFFERS, or None for T and scratch (and rows None)."""
    calls = []
    for entry in plan.tape:
        dst, index = _written(entry)
        name, rows = _buffer(plan, dst), None
        if name and index is None:
            rows = _rows(getattr(plan, name), dst)
        elif name:
            rows = index[0] if isinstance(index, tuple) else index
            rows = tuple(np.atleast_1d(np.arange(len(dst))[rows]).tolist())
        if name and calls and calls[-1][:2] == (name, rows):
            calls[-1][2].append(entry)
        else:
            calls.append((name, rows, [entry]))
    return calls


def _stages(plan):
    """_calls split into the levels, each ending with the calls that write
    X, and the dual tail, last."""
    stages = [[]]
    for call in _calls(plan):
        if stages[-1] and stages[-1][-1][0] == "X" and call[0] != "X":
            stages.append([])
        stages[-1].append(call)
    return stages


def _sources(plan, i, a):
    """What tape entry i reads as the array a, traced back through the
    scratch that earlier entries wrote: a list of (buffer, rows, coef), the
    rows of a plan buffer as they are (coef None) or combined by coef in
    one np.dot.  A constant, which no entry wrote, gives none."""
    name = _buffer(plan, a)
    if name:
        return [(name, _rows(getattr(plan, name), a), None)]
    j = next((j for j in range(i - 1, -1, -1)
              if np.shares_memory(_written(plan.tape[j])[0], a)), None)
    entry = None if j is None else plan.tape[j]
    if entry is None:
        return []
    if entry.func is np.take:
        return [(_buffer(plan, entry.args[0]), tuple(entry.args[1].tolist()),
                 None)]
    if entry.func is np.dot and _buffer(plan, entry.args[1]):
        [(name, rows, _)] = _sources(plan, j, entry.args[1])
        return [(name, rows, entry.args[0])]
    return [s for b in entry.args if isinstance(b, np.ndarray)
            for s in _sources(plan, j, b)]


def _reads(plan, call):
    """The _sources of every array that the entries of a call read, but
    for the one each entry writes."""
    i = next(i for i, e in enumerate(plan.tape) if e is call[2][0])
    return [s for k, e in enumerate(call[2], i)
            for b in e.args[3 if e.func is solver_module._put else 0:]
            if isinstance(b, np.ndarray) and b.dtype == float
            and b is not _written(e)[0] for s in _sources(plan, k, b)]


def _image_calls(plan, stage, kind):
    """The calls of a stage that write images: "C", those that read only
    x blocks, or "L*", those that read w."""
    calls = [c for c in stage if c[0] == "S"]
    reads = [{name for name, *_ in _reads(plan, c)} for c in calls]
    return [c for c, r in zip(calls, reads)
            if (r == {"X"} if kind == "C" else "w" in r)]


def _stacked_gradients(plan, stage):
    """The (A, b) of a stage's stacked least-squares products: A (k, m, d)
    is read by the call's last product, b by the subtraction before it."""
    return [(e.args[1], plan.tape[plan.tape.index(e) - 1].args[1])
            for c in _image_calls(plan, stage, "C") for e in c[2]
            if e.func is np.matmul and e.args[1].ndim == 3]


def _dense(n, source):
    """A (buffer, rows, coef) source as dense coefficient rows over n x
    blocks, one per argument row."""
    _, rows, coef = source
    if coef is None:
        return np.eye(n)[list(rows)]
    out = np.zeros(np.atleast_2d(coef).shape[:-1] + (n,))
    out[:, list(rows)] = np.atleast_2d(coef)
    return out


class TestArgumentTable:
    """EvalPlan compiles each operator's argument from its whole row, which
    is the row before the image's first use: the forward images, the L_k
    fills and the tail's lone (K x)_k each hold theirs."""

    DRAWS = 20   # per family

    @pytest.mark.parametrize("family", sorted(DIFF_FAMILIES))
    def test_whole_row_is_the_row_before_first_use(self, family):
        rng = np.random.default_rng(sorted(DIFF_FAMILIES).index(family) + 100)
        for draw in range(self.DRAWS):
            n = int(rng.integers(3, 7))
            s = DIFF_FAMILIES[family](rng, n, rng.uniform(0.2, 1.5),
                                      rng.uniform(0.2, 1.5))
            if draw % 2:
                s = _perturbed(s, rng)
            pb = random_problem_for(rng, s, 3)
            plan, firsts, want = solver_module.EvalPlan(s, pb), [], {}
            for kind, (coef, rows) in enumerate(
                    ((s.P - s.Q, s.R), (s.Q, s.P.T), (s.H, s.K))):
                for j, (col, row) in enumerate(zip(coef.T, rows)):
                    nz = np.flatnonzero(col)
                    first = int(nz[0]) if nz.size else n
                    firsts.append((kind, j, first))
                    want[kind, j] = np.r_[row[:first], np.zeros(n - first)]
            # the plan orders the images by first row, then kind and index;
            # every image is written once, and a C call reads its images'
            # own rows (one argument, or one row each)
            images = sorted((f, kind, j) for kind, j, f in firsts if f < n)
            stages = _stages(plan)
            assert sorted(t for stage in stages[:-1] for name, ts, _ in stage
                          if name == "S" for t in ts) == list(
                              range(len(images))), draw
            for stage in stages[:-1]:
                for call in _image_calls(plan, stage, "C"):
                    [source] = _reads(plan, call)
                    got = _dense(n, source)
                    for q, t in enumerate(call[1]):
                        _, kind, j = images[t]
                        np.testing.assert_array_equal(
                            got[q if len(got) > 1 else 0], want[kind, j])
                        assert all(e.args[2] is pb.C_list[j] for e in call[2]
                                   if e.func is solver_module._put), draw
                # an argument that several L_k share is the first one's,
                # and each of them has that argument
                for call in [c for c in stage if c[0] == "LKx"]:
                    [source] = _reads(plan, call)
                    for k in call[1]:
                        np.testing.assert_array_equal(
                            _dense(n, source)[0], want[2, k])
            # the tail forms the (K x)_k of the zero columns of H, and only
            # those, from the whole row of K
            lone = [c for c in stages[-1] if c[0] == "LKx"]
            assert [k for c in lone for k in c[1]] == [
                j for kind, j, f in firsts if kind == 2 and f == n]
            for call in lone:
                [source] = _reads(plan, call)
                np.testing.assert_array_equal(_dense(n, source)[0],
                                              want[2, call[1][0]])


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
    """Each row's mode, read from the tape: "start" or "run" for a row whose
    sums go to the running sum T (after a T.fill for "start"), else None;
    and whether the tail reads (H^T x)_k from one H^T product."""
    plan = solver_module.EvalPlan(
        s, random_problem_for(np.random.default_rng(0), s, d))
    modes, start = {}, False
    for entry in plan.tape:
        if getattr(entry.func, "__self__", None) is plan.T:   # T.fill
            start = True
        elif entry.func is np.add and entry.args[1] is plan.T:   # U_i += T
            [i] = _rows(plan.U, entry.args[0])
            modes[i], start = "start" if start else "run", False
    return [modes.get(i) for i in range(s.n)], _one_HT(plan)


class TestRunningSums:
    """Rows that repeat the previous row's coefficients wherever it has a
    nonzero add only their new columns to a running sum, and a column of H
    that is not one x_i with coefficient 1 makes H^T x one product."""

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


def _per_k_dual_tail(s, BL, X, w, LKx):
    """eval_S's dual tail as it stood before the whole-array tail, verbatim
    but for its arguments: (y, LHx) by a loop over k.  The per-k arguments
    are derived from scheme s as the plan of that time compiled them."""
    dot = np.dot
    LHx = np.zeros(w.shape)
    _combo = solver_module._combo
    several = np.count_nonzero(s.H, axis=0) > 1
    Ht = np.ascontiguousarray(s.H.T) if several.any() else None
    duals = [(k, (k, slice(0, blk.L.out_dim)),
              _combo(s.K[k]) if not s.H[:, k].any() else None,
              _combo(s.H[:, k]), 1.0 / float(s.E_diag[k]))
             for k, blk in enumerate(BL)]
    inv_eta = 1.0 / np.repeat(s.E_diag[:, None], w.shape[1], 1)

    def combo(a, c, coef):   # a _combo of the rows of a
        return a[c] if coef is None else dot(coef, a[c])

    HtX = None if Ht is None else Ht @ X
    for k, sl, K_arg, H_arg, _ in duals:
        L = BL[k].L
        if K_arg is not None:   # column k of H is zero, so no row needed it
            LKx[sl] = L(combo(X, *K_arg))
        LHx[sl] = L(combo(X, *H_arg) if HtX is None else HtX[k])
    # y holds the B arguments LKx - w / eta + LHx, then their resolvents
    y = np.multiply(w, inv_eta)
    np.subtract(LKx, y, out=y)
    y += LHx
    for k, sl, _, _, inv_eta in duals:
        y[sl] = BL[k].B(inv_eta, y[sl])
    return y, LHx


def _looped(pb):
    """pb with each B_k's resolvent replaced by the same function and each
    L_k by a difference map with no group hook, which keeps the dual tail a
    loop over k."""
    BL = [ComposedBlock(B=ResolventOp(blk.B.dim, blk.B.resolvent.__call__),
                        L=_PlainDifferenceMap(blk.L.in_dim))
          for blk in pb.BL_list]
    return replace(pb, BL_list=BL)


def _tail_calls(plan, name):   # the tail's calls that write buffer name
    return [c for c in _stages(plan)[-1] if c[0] == name]


def _one_HT(plan):
    """Whether the tail reads (H^T x)_k from one H^T product."""
    [call] = _tail_calls(plan, "LHx")[:1]
    return _reads(plan, call)[0][2] is not None


def _one_L(plan):
    """Whether the tail forms every L_k (H^T x)_k by one bound L call."""
    calls = _tail_calls(plan, "LHx")
    return len(calls) == 1 and solver_module._put not in [
        e.func for e in calls[0][2]]


def _one_soft(plan):
    """Whether the tail takes every B_k resolvent by one soft-threshold."""
    return [[e.func for e in c[2]] for c in _tail_calls(plan, "y")] == [
        [np.minimum, np.maximum, np.subtract]]


def _l1_difference_problem(rng, s, d):
    """A problem for scheme s whose L_k are one difference map and whose B_k
    are l1 resolvents, so that its dual tail may run whole-array."""
    pb = random_problem_for(rng, s, d)
    L = difference_matrix(d)
    BL = [ComposedBlock(B=l1_resolvent(rng.uniform(0.1, 2.0), d - 1), L=L)
          for _ in range(s.r)]
    return replace(pb, BL_list=BL)


def _H_pattern(s, case):
    """Scheme s, whose columns of H each pick one x_i with coefficient 1,
    with a zero column of H, a single entry that is not 1, or both and a
    column that mixes two x_i."""
    H = s.H.copy()
    if case == "zero_column":
        H[:, 1] = 0.0
    elif case == "non_unit":
        H[:, 1] *= 1.5
    else:   # below the column's first nonzero, so the scheme stays explicit
        H[:, 0] = 0.0
        H[:, 1] *= 0.7
        H[-1, 2] = -0.4
    return s.replace(H=H)


def _assert_same(a, b, rtol=0.0):
    """a and b array_equal, or with ``rtol`` within rtol of b's norm."""
    if rtol:
        assert a.shape == b.shape
        assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)
    else:
        np.testing.assert_array_equal(a, b)


def _assert_same_solve(s, pb, other, lam_max, rtol=0.0):
    """200 iterations of solve on pb and on other give the same records and
    final state, bit for bit; or, with ``rtol``, the same iteration numbers,
    each final array within rtol relative and each record within 100 rtol."""
    opts = SolveOptions(max_iters=200, residual_tol=0.0,
                        lambda_schedule=0.9 * lam_max)
    new, old = solve(s, pb, opts=opts), solve(s, other, opts=opts)
    if rtol:   # the residual and the gap are norms of differences: their
        # round-off grows as they shrink (2.5e-14 at desk scale)
        assert [r[0] for r in new.records] == [r[0] for r in old.records]
        np.testing.assert_allclose([r[1:3] for r in new.records],
                                   [r[1:3] for r in old.records],
                                   rtol=100 * rtol)
    else:
        assert [r[:4] for r in new.records] == [r[:4] for r in old.records]
    for name in ("z", "w", "x", "y"):
        _assert_same(np.concatenate(getattr(new.final, name).blocks),
                     np.concatenate(getattr(old.final, name).blocks), rtol)


class TestWholeArrayDualTail:
    """One L call for every dual block when the L_k are one difference map,
    and one soft-threshold when the B_k are l1 resolvents, each decided
    apart from the other, whatever H is."""

    @pytest.mark.parametrize("family", ["sequential", "star", "complete",
                                        "complete_agents"])
    def test_bit_identical_to_the_loop_over_k(self, family):
        # agents: 21 nodes at d = 100, where an H^T product trimmed to its
        # span, or not contiguous, rounds LHx differently
        family, _, size = family.partition("_")
        inst = (gen_instance(0, n=20, m=400, d=100, mu=15.0, nu=5.0)
                if size == "agents" else desk_instance(0))
        pb = to_problem(inst)
        s, _, lam_max = build_family_scheme(family, inst, 0.5, 0.1)
        plan, looped = solver_module.EvalPlan(s, pb), _looped(pb)
        plan_k = solver_module.EvalPlan(s, looped)
        assert _one_L(plan) and _one_soft(plan)
        assert not _one_L(plan_k) and not _one_soft(plan_k)
        rng = np.random.default_rng(5)
        # the agents instance thresholds more: below scale 1 y is all zero
        for scale in (1.0, 10.0) if size == "agents" else (0.1, 1.0, 10.0):
            z = scale * rng.standard_normal((s.m, pb.d))
            w = scale * rng.standard_normal((s.r, pb.d - 1))
            X, y, U, LKx, LHx = eval_S(plan, z, w)
            y_old, LHx_old = _per_k_dual_tail(s, looped.BL_list, X, w,
                                              LKx.copy())
            assert 0 < np.count_nonzero(y) < y.size   # both sides of prox
            np.testing.assert_array_equal(y, y_old)
            np.testing.assert_array_equal(LHx, LHx_old)
            for a, b in zip((X, y, U, LKx, LHx), eval_S(plan_k, z, w)):
                np.testing.assert_array_equal(a, b)
        _assert_same_solve(s, pb, looped, lam_max)

    @pytest.mark.parametrize("case", ["zero_column", "non_unit", "mixed"])
    def test_bit_identical_on_other_H_patterns(self, case):
        rng = np.random.default_rng(7)
        s = _H_pattern(scheme_sequential(5, gamma=0.6, eta=0.4), case)
        pb = _l1_difference_problem(rng, s, 9)
        looped = _looped(pb)
        plan, plan_k = EvalPlan(s, pb), EvalPlan(s, looped)
        assert _one_L(plan) and _one_soft(plan) and _one_HT(plan)
        assert not _one_L(plan_k) and not _one_soft(plan_k)
        lone = ~s.H.any(axis=0)   # rows of LKx that the tail forms
        for scale in (0.01, 0.1, 1.0):
            z = scale * rng.standard_normal((s.m, pb.d))
            w = scale * rng.standard_normal((s.r, pb.d - 1))
            X, y, U, LKx, LHx = eval_S(plan, z, w)
            LKx_old = np.where(lone[:, None], 0.0, LKx)
            y_old, LHx_old = _per_k_dual_tail(s, looped.BL_list, X, w,
                                              LKx_old)
            assert 0 < np.count_nonzero(y) < y.size   # both sides of prox
            np.testing.assert_array_equal(y, y_old)
            np.testing.assert_array_equal(LHx, LHx_old)
            np.testing.assert_array_equal(LKx, LKx_old)
            for a, b in zip((X, y, U, LKx, LHx), eval_S(plan_k, z, w)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("case", ["one_map_affine_B",
                                      "distinct_maps_l1_B"])
    def test_L_and_B_batched_apart_match_the_loop_over_k(self, case):
        # one difference map with affine B_k: one L call, a B_k call per k;
        # a difference map per k with no group hook, with l1 B_k: an L call
        # per k, one soft-threshold
        rng = np.random.default_rng(13)
        s = scheme_complete(5, gamma=0.6, eta=0.4)
        pb = _l1_difference_problem(rng, s, 9)
        one = case == "one_map_affine_B"
        pb = replace(pb, BL_list=[ComposedBlock(
            B=monotone_affine(rng, 8) if one else blk.B,
            L=blk.L if one else _PlainDifferenceMap(9))
            for blk in pb.BL_list])
        plan, looped = EvalPlan(s, pb), _looped(pb)
        plan_k = EvalPlan(s, looped)
        assert (_one_L(plan), _one_soft(plan)) == (one, not one)
        assert [len(_tail_calls(plan, name)) for name in ("LHx", "y")] == (
            [1, s.r] if one else [s.r, 1])
        assert not _one_L(plan_k) and not _one_soft(plan_k)
        for scale in (0.1, 1.0, 10.0):
            z = scale * rng.standard_normal((s.m, pb.d))
            w = scale * rng.standard_normal((s.r, pb.d - 1))
            X, y, U, LKx, LHx = eval_S(plan, z, w)
            y_old, LHx_old = _per_k_dual_tail(s, looped.BL_list, X, w,
                                              LKx.copy())
            np.testing.assert_array_equal(y, y_old)
            np.testing.assert_array_equal(LHx, LHx_old)
            for a, b in zip((X, y, U, LKx, LHx), eval_S(plan_k, z, w)):
                np.testing.assert_array_equal(a, b)

    @staticmethod
    def _check_drawn_H(family, n, d, seed, column):
        """eval_Gamma against the loop evaluator on family's scheme, with
        column k of H redrawn by column(first), first the row of its first
        nonzero: ("unit",) keeps it, ("zero",) zeroes it, ("scale", c) puts
        c at first and ("mix", row, c) puts c at a row below it.

        Each output's error is measured against the size of what it sums,
        from the oracle: the prox argument LKx - w / eta + LHx by its three
        terms for y (after the soft threshold y may be far smaller), the
        resolvent argument u and x for x, |M|^T |x| for gz and
        eta (|LHx| + |y|) for gw.  An error of 1e-12 on that scale fails."""
        rng = np.random.default_rng(seed)
        s = DIFF_FAMILIES[family](rng, n, 0.6, 0.4)
        H = s.H.copy()
        for k in range(s.r):
            first = int(np.flatnonzero(H[:, k])[0])
            kind, *how = column(first)
            if kind == "zero":
                H[:, k] = 0.0
            elif kind == "scale":
                H[first, k] = how[0]
            elif kind == "mix":   # below the first nonzero: stays explicit
                H[how[0], k] = how[1]
        s = s.replace(H=H)
        pb = _l1_difference_problem(rng, s, d)
        plan = solver_module.EvalPlan(s, pb)
        assert _one_L(plan) and _one_soft(plan)
        z = BlockVector([rng.standard_normal(d) for _ in range(s.m)])
        w = BlockVector([rng.standard_normal(d - 1) for _ in range(s.r)])
        new = eval_Gamma(s, pb, z, w)
        old = solver_oracle.eval_Gamma(s, pb, z, w)
        X, Y, U, LKx = (np.array(v) for v in solver_oracle.eval_S(
            s, pb, z, w, collect=True))
        L, eta = pb.BL_list[0].L, s.E_diag[:, None]
        LHx = np.array([L(hx) for hx in s.H.T @ X])
        W = np.array(w.blocks)
        scales = [np.abs(s.M).T @ np.abs(X), eta * (abs(LHx) + abs(Y)),
                  abs(U) + abs(X), abs(LKx) + abs(W / eta) + abs(LHx)]
        for a, b, scale in zip(new, old, scales):
            if not len(b):
                continue
            a, b = np.concatenate(a.blocks), np.concatenate(b.blocks)
            size = np.linalg.norm(scale)
            assert np.linalg.norm(a - b) <= 1e-13 * size
            a[0] += 1e-12 * size   # caught, unless nothing was summed
            assert size == 0 or np.linalg.norm(a - b) > 1e-13 * size

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n=st.integers(3, 6), d=st.integers(2, 6),
           family=st.sampled_from(["sequential", "star", "ring_cocoercive",
                                   "random_tree"]))
    def test_drawn_H_patterns_match_loop_evaluator(self, data, n, d, family):
        coef = st.floats(-2.0, 2.0).filter(lambda c: c not in (0.0, 1.0))

        def column(first):
            kind = data.draw(st.sampled_from(["unit", "zero", "scale", "mix"]))
            if kind == "scale":
                return kind, data.draw(coef)
            if kind == "mix" and first < n - 1:
                return (kind, data.draw(st.integers(first + 1, n - 1)),
                        data.draw(coef))
            return ("unit",) if kind == "mix" else (kind,)
        self._check_drawn_H(family, n, d,
                            data.draw(st.integers(0, 2 ** 32 - 1)), column)

    def test_drawn_H_thresholded_y_measured_on_its_argument(self):
        # y is about 0.00256 after the soft threshold and 4.4e-16 off, 2 ulp
        # of its O(1) argument: 1.7e-13 relative to y, 7.6e-17 relative to
        # the size of the argument's terms
        columns = iter([("scale", 0.7578125), ("zero",), ("unit",)])
        self._check_drawn_H("random_tree", 4, 2, 1027734,
                            lambda first: next(columns))

    @pytest.mark.parametrize("case", ["distinct_maps", "affine_B",
                                      "mixed_out_dims", "zero_H_column"])
    def test_other_problems_loop_over_k(self, case):
        rng = np.random.default_rng(11)
        if case == "mixed_out_dims":
            s, pb, _ = _mixed_out_dims_instance(d=6)
        else:
            s = scheme_complete(5, gamma=0.6, eta=0.4)
            if case == "zero_H_column":
                H = s.H.copy()
                H[:, 2] = 0.0
                s = s.replace(H=H)
            pb = _l1_difference_problem(rng, s, 7)
            if case == "distinct_maps":
                pb = replace(pb, BL_list=[
                    ComposedBlock(B=blk.B, L=_PlainDifferenceMap(7))
                    for blk in pb.BL_list])
            elif case == "affine_B":
                blk = pb.BL_list[1]
                pb.BL_list[1] = ComposedBlock(B=monotone_affine(rng, 6),
                                              L=blk.L)
        # each fact decides its own half of the tail; a zero column of H
        # leaves both standing
        plan = solver_module.EvalPlan(s, pb)
        assert (_one_L(plan), _one_soft(plan)) == {
            "distinct_maps": (False, True), "affine_B": (True, False),
            "mixed_out_dims": (False, False),
            "zero_H_column": (True, True)}[case]
        for _ in range(10):
            z = BlockVector([rng.standard_normal(pb.d) for _ in range(s.m)])
            w = BlockVector([rng.standard_normal(blk.L.out_dim)
                             for blk in pb.BL_list])
            new = eval_Gamma(s, pb, z, w)
            old = solver_oracle.eval_Gamma(s, pb, z, w)
            for a, b in zip(new, old):
                assert _rel(a.blocks, b.blocks) <= 1e-13

    def test_a_replaced_resolvent_is_the_one_applied(self, rng):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("sequential", inst, 0.5, 0.1)
        B, L = pb.BL_list[1].B, pb.BL_list[1].L
        heavier = l1_resolvent(3.0 * B.resolvent.weight, B.dim)
        z = rng.standard_normal((s.m, pb.d))
        w = rng.standard_normal((s.r, pb.d - 1))
        y_before = eval_S(EvalPlan(s, pb), z, w)[1]
        B.resolvent = lambda step, v: heavier(step, v)   # after construction
        assert not _one_soft(solver_module.EvalPlan(s, pb))
        y = eval_S(EvalPlan(s, pb), z, w)[1]
        assert not np.array_equal(y[1], y_before[1])
        np.testing.assert_array_equal(np.delete(y, 1, 0),
                                      np.delete(y_before, 1, 0))
        pb.BL_list[1] = ComposedBlock(
            B=replace(B, resolvent=heavier.resolvent), L=L)
        assert _one_soft(solver_module.EvalPlan(s, pb))
        np.testing.assert_array_equal(eval_S(EvalPlan(s, pb), z, w)[1], y)

    @pytest.mark.parametrize("family", sorted(DIFF_FAMILIES))
    def test_matches_loop_evaluator(self, family):
        # every family's H pattern, perturbed or not: picks of X or H^T X;
        # a loop over k only when a drawn scheme has no L_k
        rng = np.random.default_rng(sorted(DIFF_FAMILIES).index(family) + 50)
        kinds = set()
        for draw in range(20):
            n, d = int(rng.integers(3, 7)), int(rng.integers(2, 7))
            s = DIFF_FAMILIES[family](rng, n, rng.uniform(0.2, 1.5),
                                      rng.uniform(0.2, 1.5))
            if draw % 2:
                s = _perturbed(s, rng)
            pb = _l1_difference_problem(rng, s, d)
            plan = solver_module.EvalPlan(s, pb)
            kinds.add(_one_L(plan) and _one_soft(plan) or s.r == 0)
            z = BlockVector([rng.standard_normal(d) for _ in range(s.m)])
            w = BlockVector([rng.standard_normal(d - 1) for _ in range(s.r)])
            new = eval_Gamma(s, pb, z, w)
            old = solver_oracle.eval_Gamma(s, pb, z, w)
            for a, b in zip(new, old):
                if len(b):
                    assert _rel(a.blocks, b.blocks) <= 1e-13, (draw, family)
        assert kinds == {True}


def _per_row(pb):
    """pb with each A_i's resolvent and each C_j's map replaced by the same
    function and each L_k by a difference map with no group hook, so that
    every level runs its A_i, its C_j and its L_k one row at a time, and
    the dual tail loops over k."""
    A = [ResolventOp(op.dim, op.resolvent.__call__) for op in pb.A_list]
    C = [replace(op, apply=op.apply.__call__) for op in pb.C_list]
    BL = [ComposedBlock(B=blk.B, L=_PlainDifferenceMap(pb.d))
          for blk in pb.BL_list]
    return replace(pb, A_list=A, BL_list=BL, C_list=C)


def _l1_star_problem(rng, s, d, rows=None):
    """A problem for scheme s as to_problem builds one: A_0 = 0 and l1
    resolvents after it, l1 B_k on one difference map; the C_j are
    least-squares gradients with ``rows[j]`` rows (d + 2 each if None)."""
    A = [zero_resolvent(d)] + [l1_resolvent(rng.uniform(0.1, 2.0), d)
                               for _ in range(s.n - 1)]
    C = [least_squares_gradient(rng.standard_normal((m, d)),
                                rng.standard_normal(m))
         for m in (rows or [d + 2] * s.p)]
    return replace(_l1_difference_problem(rng, s, d), A_list=A, C_list=C)


def _weighted_star(rng, n):
    """scheme_from_graph on a star with random edge weights, so that the
    rows of its level differ in delta_i and in eta_k."""
    g = GraphSpec(n=n, edges=[(1, j, float(rng.uniform(0.5, 2.0)))
                              for j in range(2, n + 1)])
    return scheme_from_graph(g, gamma=0.6, eta=0.4)


def _level_rows(plan):
    """The rows each level's resolvents write, which are plan.levels."""
    rows = [[i for name, rows, _ in stage if name == "X" for i in rows]
            for stage in _stages(plan)[:-1]]
    assert rows == plan.levels
    return rows


def _written_by(stage, name):   # the calls of a stage that write buffer name
    return [c for c in stage if c[0] == name]


# eval_S of a level whose gradients or sums are one product against one
# that takes them per image: they round differently, so agree to round-off
BATCHED_RTOL = 1e-14


class TestLevels:
    """A row that reads no x block of the current level joins it: star runs
    rows 1..n-1 as one level, with one soft-threshold for its A_i, one L
    and one L^* call for its L_k, one product for its least-squares
    gradients and one product per stack for its sums; the per-row path
    agrees bit for bit where no product is batched, else to round-off."""

    @pytest.mark.parametrize("n", range(3, 22))
    def test_star_has_two_levels_hub_then_leaves(self, n):
        s = scheme_from_graph(star_graph(n), gamma=0.5, eta=0.3)
        plan = EvalPlan(s, random_problem_for(np.random.default_rng(n), s, 3))
        assert _level_rows(plan) == [[0], list(range(1, n))]

    @pytest.mark.parametrize("n", [3, 4, 6, 21])
    @pytest.mark.parametrize("family", [
        "sequential", "complete", "ring_cocoercive", "ring_lipschitz",
        "path_graph", "complete_graph"])
    def test_other_families_have_one_row_per_level(self, family, n):
        if family.endswith("_graph"):
            graph = path_graph if family == "path_graph" else complete_graph
            s = scheme_from_graph(graph(n), gamma=0.5, eta=0.3)
        else:
            s = DIFF_FAMILIES[family](None, n, 0.5, 0.3)
        plan = EvalPlan(s, random_problem_for(np.random.default_rng(n), s, 3))
        assert _level_rows(plan) == [[i] for i in range(s.n)]
        # a lone row: its own index, at most one C call, its own sums
        for i, stage in enumerate(_stages(plan)[:-1]):
            assert [rows for name, rows, _ in stage if name == "X"] == [(i,)]
            assert _stacked_gradients(plan, stage) == []
            assert len(_image_calls(plan, stage, "C")) <= 1
            sums = _written_by(stage[i == 0:], "U")   # after U = Md z
            assert {rows for _, rows, _ in sums} <= {(i,)}
            assert all(coef is None or coef.ndim == 1 for call in sums
                       for *_, coef in _reads(plan, call))

    @staticmethod
    def _same_S(plan, other, rng, s, d, rtol=0.0):
        """eval_S of both plans at points of three scales, array_equal or
        within ``rtol`` relative; the A_i threshold must leave some x
        entries zero and some not."""
        zero = nonzero = False
        for scale in (0.1, 1.0, 10.0):
            z = scale * rng.standard_normal((s.m, d))
            w = scale * rng.standard_normal((s.r, d - 1))
            new, old = eval_S(plan, z, w), eval_S(other, z, w)
            for a, b in zip(new, old):
                _assert_same(a, b, rtol)
            zero |= not np.all(new[0][1:])
            nonzero |= bool(np.any(new[0][1:]))
        assert zero and nonzero   # both sides of the prox

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_star_level_matches_per_row_path(self, n):
        rng = np.random.default_rng(n)
        s = _weighted_star(rng, n)
        pb = _l1_star_problem(rng, s, 9)
        plan, rows = EvalPlan(s, pb), EvalPlan(s, _per_row(pb))
        stage = _stages(plan)[1]
        # one soft-threshold, by thresholds at the rows' full shape
        [(_, at, soft)] = _written_by(stage, "X")
        assert at == tuple(range(1, n))
        assert [e.func for e in soft] == [np.minimum, np.maximum, np.subtract]
        t = soft[0].args[1]
        assert t.shape == (n - 1, 9) and (t == t[:, :1]).all()
        np.testing.assert_array_equal(soft[1].args[1], -t)
        # one L call, one L^* call
        assert len(_written_by(stage, "LKx")) == 1
        assert len(_image_calls(plan, stage, "L*")) == 1
        # one product for the gradients, at the one argument x_0 as it is
        [(A, b)] = _stacked_gradients(plan, stage)
        assert A.shape == (n - 1, 11, 9) and b.shape == (n - 1, 11)
        [call] = _image_calls(plan, stage, "C")
        assert _reads(plan, call) == [("X", (0,), None)]
        # one product per stack: x_0 and the images, for all n - 1 rows
        sums = _written_by(stage, "U")
        assert {rows for _, rows, _ in sums} == {at}
        assert [(name, coef.shape[0]) for call in sums
                for name, _, coef in _reads(plan, call)
                if coef is not None] == [("X", n - 1), ("S", n - 1)]
        stage = _stages(rows)[1]
        assert [len(_written_by(stage, "X")), len(_written_by(stage, "LKx")),
                len(_image_calls(rows, stage, "L*")),
                len(_image_calls(rows, stage, "C"))] == [n - 1] * 4
        assert _stacked_gradients(rows, stage) == []
        self._same_S(plan, rows, rng, s, pb.d, BATCHED_RTOL)

    def test_desk_star_solve_matches_per_row_path(self):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, lam_max = build_family_scheme("star", inst, 0.5, 0.1)
        rows = _per_row(pb)
        plan = EvalPlan(s, pb)
        stage = _stages(plan)[1]
        assert len(_written_by(stage, "X")) == 1
        assert len(_stacked_gradients(plan, stage)) == 1
        self._same_S(EvalPlan(s, pb), EvalPlan(s, rows),
                     np.random.default_rng(3), s, pb.d, BATCHED_RTOL)
        _assert_same_solve(s, pb, rows, lam_max, BATCHED_RTOL)

    def test_level_of_mixed_resolvents_runs_them_per_row(self):
        rng = np.random.default_rng(21)
        s = _weighted_star(rng, 5)
        pb = _l1_star_problem(rng, s, 8)
        pb.A_list[2] = monotone_affine(rng, 8)   # among l1 resolvents
        plan = EvalPlan(s, pb)
        stage = _stages(plan)[1]
        assert len(_written_by(stage, "X")) == 4
        assert len(_image_calls(plan, stage, "L*")) == 1
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d,
                     BATCHED_RTOL)

    def test_level_of_distinct_maps_runs_them_per_image(self):
        # a map per k with no group hook: an L and an L^* call per image
        rng = np.random.default_rng(22)
        s = _weighted_star(rng, 5)
        pb = _l1_star_problem(rng, s, 8)
        own = replace(pb, BL_list=[
            ComposedBlock(B=blk.B, L=_PlainDifferenceMap(8))
            for blk in pb.BL_list])
        plan = EvalPlan(s, own)
        stage = _stages(plan)[1]
        assert len(_written_by(stage, "LKx")) == 4
        assert len(_image_calls(plan, stage, "L*")) == 4
        assert len(_written_by(stage, "X")) == 1
        self._same_S(plan, EvalPlan(s, pb), rng, s, pb.d)
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d,
                     BATCHED_RTOL)

    def test_distinct_arguments_share_one_adjoint_call(self):
        # K row 2 reads 0.5 x_0, the other three x_0: two L calls, one L^*,
        # and rows [0, 1, 3] of LKx taken by an index array
        rng = np.random.default_rng(23)
        s = _weighted_star(rng, 5)
        K = s.K.copy()
        K[2, 0] = 0.5
        s = s.replace(K=K)
        pb = _l1_star_problem(rng, s, 8)
        plan = EvalPlan(s, pb)
        stage = _stages(plan)[1]
        [adjoint] = _image_calls(plan, stage, "L*")
        assert {(name, rows) for name, rows, _ in _reads(plan, adjoint)} == {
            ("LKx", (0, 1, 2, 3)), ("w", (0, 1, 2, 3))}
        fills = _written_by(stage, "LKx")
        assert [rows for _, rows, _ in fills] == [(0, 1, 3), (2,)]
        assert fills[0][2][-1].func.__name__ == "__setitem__"   # picked
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d,
                     BATCHED_RTOL)

    @pytest.mark.parametrize("n", [4, 7])
    def test_unequal_row_counts_are_zero_padded(self, n):
        rng = np.random.default_rng(30 + n)
        s = _weighted_star(rng, n)
        rows = [int(m) for m in rng.integers(1, 15, s.p)]
        rows[-1] = 15   # fewer and more rows than d
        pb = _l1_star_problem(rng, s, 9, rows)
        plan = EvalPlan(s, pb)
        [(A3, B2)] = _stacked_gradients(plan, _stages(plan)[1])
        assert A3.shape == (n - 1, 15, 9) and B2.shape == (n - 1, 15)
        for a, b, m, C in zip(A3, B2, rows, pb.C_list):
            np.testing.assert_array_equal(a[:m], C.apply.A)
            np.testing.assert_array_equal(b[:m], C.apply.b)
            assert not a[m:].any() and not b[m:].any()
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d,
                     BATCHED_RTOL)

    def test_distinct_gradient_arguments_are_stacked(self):
        # R row 2 reads 0.5 x_0, the other three x_0: four arguments,
        # stacked by one product with a block of the rows of R
        rng = np.random.default_rng(24)
        s = _weighted_star(rng, 5)
        R = s.R.copy()
        R[2, 0] = 0.5
        s = s.replace(R=R)
        pb = _l1_star_problem(rng, s, 8, [3, 9, 5, 7])
        plan = EvalPlan(s, pb)
        [call] = _image_calls(plan, _stages(plan)[1], "C")
        [(name, rows, coef)] = _reads(plan, call)
        assert (name, rows) == ("X", (0,))   # (1, 1, 0.5, 1) times x_0
        np.testing.assert_array_equal(coef, [[1.0], [1.0], [0.5], [1.0]])
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d,
                     BATCHED_RTOL)

    def test_level_with_another_gradient_calls_each_image(self):
        # one C_j that is not a least-squares gradient: every image of the
        # level is a call, so the level agrees with the per-row path bit
        # for bit (the sums are one block on both sides)
        rng = np.random.default_rng(25)
        s = _weighted_star(rng, 5)
        pb = _l1_star_problem(rng, s, 8)
        pb.C_list[1] = SingleValuedOp(dim=8, apply=lambda x: 2.0 * x,
                                      lipschitz=2.0, cocoercive=True)
        plan = EvalPlan(s, pb)
        calls = _image_calls(plan, _stages(plan)[1], "C")
        assert [e.func for c in calls for e in c[2]] == [
            solver_module._put] * len(pb.C_list)
        assert [c[2][0].args[2] for c in calls] == pb.C_list   # in order
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d)

    def test_lone_gradient_keeps_the_plain_call(self):
        # a star of one leaf: its level has one row and one C image
        rng = np.random.default_rng(26)
        s = _weighted_star(rng, 2)
        pb = _l1_star_problem(rng, s, 40)
        plan = EvalPlan(s, pb)
        assert _level_rows(plan) == [[0], [1]]
        [call] = _image_calls(plan, _stages(plan)[1], "C")
        [product] = call[2]   # A^T r, after r = A x_0 - b into scratch
        assert product.func is np.matmul
        assert product.args[0].base is pb.C_list[0].apply.A
        self._same_S(plan, EvalPlan(s, _per_row(pb)), rng, s, pb.d)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(3, 9), d=st.integers(3, 12),
           rows=st.lists(st.integers(1, 20), min_size=8, max_size=8),
           seed=st.integers(0, 2 ** 16))
    def test_random_stars_match_per_row_path(self, n, d, rows, seed):
        rng = np.random.default_rng(seed)
        s = _weighted_star(rng, n)
        pb = _l1_star_problem(rng, s, d, rows[:s.p])
        plan, other = EvalPlan(s, pb), EvalPlan(s, _per_row(pb))
        [(A, _)] = _stacked_gradients(plan, _stages(plan)[1])
        assert A.shape == (n - 1, max(rows[:s.p]), d)
        for scale in (0.1, 10.0):
            z = scale * rng.standard_normal((s.m, d))
            w = scale * rng.standard_normal((s.r, d - 1))
            for a, b in zip(eval_S(plan, z, w), eval_S(other, z, w)):
                _assert_same(a, b, BATCHED_RTOL)
            # both plans sum a level as one block: the loop evaluator,
            # which sums row by row, checks that block
            new = eval_Gamma(s, pb, BlockVector(list(z)), BlockVector(list(w)))
            old = solver_oracle.eval_Gamma(s, pb, BlockVector(list(z)),
                                           BlockVector(list(w)))
            assert max(_rel(a.blocks, b.blocks)
                       for a, b in zip(new, old)) <= 1e-13


def _summary(plan):   # each call of the tape: its buffer, rows and calls
    return [(name, rows, [e.func for e in entries])
            for name, rows, entries in _calls(plan)]


class TestKindRule:
    """One rule decides which operators share a call: a group whose
    operators are all of exactly one class that defines a group hook.  So
    distinct difference maps, one per k, share one call as one map does."""

    def test_difference_map_per_k_shares_one_call(self):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, lam_max = build_family_scheme("star", inst, 0.5, 0.1)
        own = replace(pb, BL_list=[
            ComposedBlock(B=blk.B, L=difference_matrix(pb.d))
            for blk in pb.BL_list])
        assert len({id(blk.L) for blk in own.BL_list}) == s.r
        plan, one = EvalPlan(s, own), EvalPlan(s, pb)
        # one L call and one L^* call for the star's leaves, one in the tail
        stage = _stages(plan)[1]
        assert len(_written_by(stage, "LKx")) == 1
        assert len(_image_calls(plan, stage, "L*")) == 1
        assert _one_L(plan)
        assert _summary(plan) == _summary(one)
        rng = np.random.default_rng(4)
        for scale in (0.1, 1.0, 10.0):
            z = scale * rng.standard_normal((s.m, pb.d))
            w = scale * rng.standard_normal((s.r, pb.d - 1))
            for a, b in zip(eval_S(plan, z, w), eval_S(one, z, w)):
                np.testing.assert_array_equal(a, b)
        _assert_same_solve(s, own, pb, lam_max)

    # the lengths of the tapes of the bench's plans, at their shapes and at
    # small d and m; a change that adds numpy calls per Gamma updates them
    TAPE_LENGTHS = {"sequential": 85, "star": 25, "complete": 96,
                    "complete_21": 351, "ring": 42}

    @pytest.mark.parametrize("size", ["bench", "small"])
    def test_tape_lengths(self, size):
        bench = size == "bench"
        lengths = {}
        for n, m, d in ((5, 50, 200), (20, 400, 1000)) if bench else (
                (5, 10, 3), (20, 20, 2)):
            inst = gen_instance(1, n=n, m=m, d=d, mu=5.0, nu=2.0,
                                k_nonzero=min(d, 10))
            pb = to_problem(inst)
            for family in ("sequential", "star", "complete"):
                if n == 20 and family != "complete":
                    continue
                s, _, _ = build_family_scheme(family, inst, 0.5, 0.1)
                name = family + ("_21" if n == 20 else "")
                lengths[name] = len(EvalPlan(s, pb).tape)
        s, pb, _ = _lipschitz_ring_instance(1000 if bench else 3, nodes=6)
        lengths["ring"] = len(EvalPlan(s, pb).tape)
        assert lengths == self.TAPE_LENGTHS

    @staticmethod
    def _bench_plans():
        """The plans of the bench's solves, at their shapes: desk
        sequential, star and complete; 20 agents (n = 21) sequential, star
        and complete; wide sequential; and the ring."""
        for n, m, d, mu, nu, families in (
                (5, 50, 200, 5.0, 2.0, ("sequential", "star", "complete")),
                (20, 400, 1000, 15.0, 5.0, ("sequential", "star",
                                            "complete")),
                (5, 100, 10_000, 15.0, 5.0, ("sequential",))):
            inst = gen_instance(1, n=n, m=m, d=d, mu=mu, nu=nu)
            pb = to_problem(inst)
            for family in families:
                s, _, _ = build_family_scheme(family, inst, 0.5, 0.1)
                yield family, EvalPlan(s, pb)
        s, pb, _ = _lipschitz_ring_instance(1000, nodes=6)
        yield "ring", EvalPlan(s, pb)

    def test_constants_are_bound_by_row_length(self):
        # an elementwise entry that broadcasts a constant column against
        # short rows, or converts a Python float on every call, leaves
        # numpy's contiguous fast path; over rows longer than ROW_MAX a
        # full-shape constant costs more memory traffic than the column
        plans, columns, rows = 0, [], []
        for family, plan in self._bench_plans():
            for entry in plan.tape:
                if not (isinstance(entry.func, np.ufunc)
                        and entry.func.signature is None):
                    continue
                shape = entry.keywords["out"].shape
                for a in entry.args:
                    assert isinstance(a, np.ndarray), (family, entry)
                    if len(shape) == 2 and a.shape == (shape[0], 1) != shape:
                        columns.append((family, shape))
                        assert shape[-1] > ROW_MAX, (family, entry.func)
                    elif len(shape) == 2 and a.shape == shape[1:]:
                        # one row of x read by every L_k of a group, as
                        # the star's leaves read its centre: a row down
                        # out's rows, whose inner loop stays contiguous
                        rows.append((family, entry.func, shape))
                        assert np.may_share_memory(a, plan.X)
                    else:
                        assert a.ndim == 0 or a.shape == shape, (
                            family, entry.func, a.shape, shape)
            plans += 1
        assert plans == 8
        # wide's tail: the thresholds of its five rows and their negation
        assert columns == [("sequential", (5, 9999))] * 2
        # the star's L call: x[1:] - x[:-1] of the centre's row, per leaf
        assert rows == [("star", np.subtract, (leaves, d - 1))
                        for leaves, d in ((5, 200), (20, 1000))
                        for _ in range(2)]

def _user_resolvent(dim):
    """A resolvent the plan knows nothing of: J of x -> x, at any step."""
    return ResolventOp(dim, lambda step, v: v / (1.0 + step))


def _user_gradient(rng, d):
    """A gradient the plan knows nothing of: of 0.25 ||x||^2 + <c, x>."""
    c = rng.standard_normal(d)
    return SingleValuedOp(dim=d, apply=lambda x: 0.5 * x + c, lipschitz=0.5,
                          cocoercive=True)


def _drawn_problem(draw, rng, s, d):
    """A problem for scheme s whose operators are each drawn from the kinds
    the plan binds and from ones it does not: for the A_i l1, zero, affine
    or user resolvents; for the C_j least-squares gradients of 1 to d + 2
    rows or a user map; for the (L_k, B_k) one difference map, one each or
    dense maps of unequal sizes, and l1, affine or user resolvents."""
    def resolvent(kind, dim):
        return {"l1": lambda: l1_resolvent(rng.uniform(0.1, 2.0), dim),
                "zero": lambda: zero_resolvent(dim),
                "affine": lambda: monotone_affine(rng, dim),
                "user": lambda: _user_resolvent(dim)}[kind]()

    kinds = st.sampled_from(["l1", "zero", "affine", "user"])
    A = [resolvent(draw(kinds), d) for _ in range(s.n)]
    C = [least_squares_gradient(rng.standard_normal((m, d)),
                                rng.standard_normal(m))
         if draw(st.booleans()) else _user_gradient(rng, d)
         for m in rng.integers(1, d + 3, size=s.p)]
    maps = draw(st.sampled_from(["one", "each", "dense"]))
    one = difference_matrix(d)
    L = [one if maps == "one" else difference_matrix(d) if maps == "each"
         else LinearMap(rng.standard_normal((int(rng.integers(1, d + 2)), d)))
         for _ in range(s.r)]
    BL = [ComposedBlock(B=resolvent(draw(kinds.filter(lambda k: k != "zero")),
                                    Lk.out_dim), L=Lk) for Lk in L]
    return ProblemInstance(d=d, A_list=A, BL_list=BL, C_list=C)


def _drawn_scheme(draw, rng, n, family):
    """A star with random weights or a random scheme of the family, with
    drawn columns of H and of P and Q zero (_dropped)."""
    s = (_weighted_star(rng, n) if family == "star" else
         DIFF_FAMILIES[family](rng, n, rng.uniform(0.2, 1.5),
                               rng.uniform(0.2, 1.5)))
    drop_H, drop_P = (draw(st.lists(st.booleans(), min_size=k, max_size=k))
                      for k in (s.r, s.p))
    return _dropped(s, drop_H, drop_P)


def _plain_solve(s, pb, z, w, lam, opts):
    """solve's records, time aside, and its final z, w, x and y, by a plain
    loop over the public eval_Gamma, residual_star and consensus_gap on
    stacked z and padded w."""
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(opts.max_iters + 1):
            gz, gw, x, y = eval_Gamma(s, pb, z, w)
            res = residual_star(s, gz, gw, lam)
            stop = (not math.isfinite(res) or res <= opts.residual_tol
                    or t == opts.max_iters)
            if stop or t % opts.record_every == 0:
                records.append((t, res, consensus_gap(x), None))
            if stop:
                return records, z, w, x, y
            z, w = z - lam * gz, w - lam * gw


def _assert_plain_loop(report, s, pb, z0, w0, opts):
    """report is _plain_solve's run from z0 and w0, bit for bit."""
    records, z, w, x, y = _plain_solve(s, pb, z0, w0, report.lambda_used,
                                       opts)
    assert report.iters_run == records[-1][0]
    assert [r[0] for r in report.records] == [r[0] for r in records]
    assert all(r[3] is None for r in report.records)
    np.testing.assert_array_equal([r[1:3] for r in report.records],
                                  [r[1:3] for r in records])
    final = report.final
    for got, want in ((final.z, z), (final.x, x), (final.w, w),
                      (final.y, y)):
        assert len(got) == len(want)
        for b, row in zip(got.blocks, want):
            np.testing.assert_array_equal(b, row[:b.size])


def _dropped(s, drop_H, drop_P):
    """Scheme s with the columns ``drop_H`` of H zero, so their (K x)_k are
    formed in the dual tail, and the columns ``drop_P`` of P and Q zero, so
    no row reads their C_j: a level's images are then not evenly spaced."""
    H, P, Q = s.H.copy(), s.P.copy(), s.Q.copy()
    H[:, drop_H] = 0.0
    P[:, drop_P], Q[:, drop_P] = 0.0, 0.0
    return s.replace(H=H, P=P, Q=Q)


def _index_arrays(plan):
    """The tape's entries that pick rows by an index array: the np.take
    reads, and the generic entries and the dst.__setitem__ that write
    through one."""
    def picked(entry):
        index = _written(entry)[1]
        rows = index[0] if isinstance(index, tuple) else index
        return isinstance(rows, np.ndarray)
    return [e for e in plan.tape if e.func is np.take or picked(e)]


class TestTape:
    """EvalPlan's tape against the loop evaluator, and its two paths: a
    caller's z and w copied in and the outputs copied out, or the plan's own
    inputs evaluated in place."""

    @staticmethod
    def _check(s, pb, rng):
        d, plan = pb.d, EvalPlan(s, pb)
        z = rng.standard_normal((s.m, d))
        w = rng.standard_normal(plan.eta.shape)
        if plan.pad is not None:
            w[plan.pad] = 0.0
        eval_S(plan, 3.0 * z, -w)   # every buffer written at another point
        got = eval_S(plan, z, w)
        if plan.pad is not None:   # y, LKx and LHx zero past each block
            assert not any(a[plan.pad].any() for a in got[1:2] + got[3:])
        for a, b in zip(got, eval_S(EvalPlan(s, pb), z, w)):
            np.testing.assert_array_equal(a, b)   # nothing stale was read
        plan.z[...], plan.w[...] = z, w
        own = eval_S(plan, plan.z, plan.w)
        assert own[0] is plan.X and own[2] is plan.U
        for a, b in zip(got, own):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)
        copied = eval_Gamma(s, pb, z, w, plan=plan)
        for a, b in zip(copied, eval_Gamma(s, pb, plan.z, plan.w,
                                           plan=plan)):
            np.testing.assert_array_equal(a, b)
        # against the loop evaluator, each output measured on the size of
        # what it sums (a resolvent is nonexpansive, so x and y on their
        # arguments'); the level's batched products round differently
        blocks = plan.split(w)
        X, Y, U, LKx = solver_oracle.eval_S(
            s, pb, BlockVector(list(z)), BlockVector(blocks), collect=True)
        LHx = plan.split(got[4])
        arg = [np.abs(a) + np.abs(b / e) + np.abs(c) for a, b, c, e in zip(
            LKx, blocks, LHx, s.E_diag)]
        for new, old, size in (
                (got[0], X.blocks, U.blocks),
                (got[2], U.blocks, U.blocks),
                (plan.split(got[1]), Y.blocks, arg),
                (plan.split(got[3]), LKx, LKx)):
            for a, b, c in zip(new, old, size):
                assert np.linalg.norm(a - b) <= 1e-13 * (
                    np.linalg.norm(np.abs(c)) + 1.0)
        return plan

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n=st.integers(3, 8), d=st.integers(2, 7),
           family=st.sampled_from(["star", "random_explicit", "random_tree",
                                   "subgraph"]))
    def test_matches_loop_evaluator_and_in_place(self, data, n, d, family):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        s = _drawn_scheme(data.draw, rng, n, family)
        self._check(s, _drawn_problem(data.draw, rng, s, d), rng)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n=st.integers(3, 8), d=st.integers(2, 7),
           family=st.sampled_from(["star", "random_explicit", "random_tree",
                                   "subgraph"]),
           record_every=st.sampled_from([1, 3]))
    def test_solve_is_the_plain_loop(self, data, n, d, family, record_every):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        s = _drawn_scheme(data.draw, rng, n, family)
        pb = _drawn_problem(data.draw, rng, s, d)
        plan = EvalPlan(s, pb)
        z0 = rng.standard_normal(plan.z.shape)
        w0 = rng.standard_normal(plan.w.shape)
        if plan.pad is not None:
            w0[plan.pad] = 0.0
        opts = SolveOptions(
            max_iters=data.draw(st.integers(0, 12)),
            residual_tol=data.draw(st.sampled_from([0.0, 1e-2])),
            lambda_schedule=data.draw(st.sampled_from([0.5, 1.0])),
            record_every=record_every)
        # most drawn schemes fail solve's standing checks, which other tests
        # cover; here they pass, with lambda_max 1, so that the loop runs
        gate = ("cocoercive", SimpleNamespace(all_pass=True),
                SimpleNamespace(lambda_max=lambda gamma: 1.0))
        with mock.patch.object(solver_module, "check_scheme",
                               lambda *args: gate):
            report = solve(s, pb, z0, w0, opts=opts)
        _assert_plain_loop(report, s, pb, z0, w0, opts)

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_diverging_solve_is_the_plain_loop(self, record_every):
        # the residual overflows at iteration 25 (test_divergence_carries_
        # partial_report)
        s = scheme_sequential(2, gamma=1.0, eta=1e-3)
        d = 2
        steep = SingleValuedOp(dim=d, apply=lambda x: 1e6 * x,
                               lipschitz=1e-6, cocoercive=True)
        pb = ProblemInstance(
            d=d, A_list=[zero_resolvent(d), zero_resolvent(d)],
            BL_list=[ComposedBlock(B=zero_resolvent(d),
                                   L=LinearMap(np.eye(d)))],
            C_list=[steep])
        z0, w0 = np.ones((s.m, d)), np.zeros((s.r, d))
        opts = SolveOptions(max_iters=2000, record_every=record_every)
        report = solve(s, pb, z0, w0, opts=opts)
        assert report.stop_reason == "diverged" and report.iters_run == 25
        _assert_plain_loop(report, s, pb, z0, w0, opts)

    @pytest.mark.parametrize("kinds", ["built_in", "user"])
    def test_rows_not_evenly_spaced(self, kinds):
        # a star without C_1 and without the H column of L_2: the level's
        # gradients and its L images are at rows no slice picks, and so are
        # the rows of LKx that its one L call fills
        rng = np.random.default_rng(5)
        s = _dropped(_weighted_star(rng, 7), [2], [1])
        pb = _l1_star_problem(rng, s, 6)
        if kinds == "user":   # the A_i, C_j and B_k taken one at a time
            pb = replace(_per_row(pb), BL_list=[ComposedBlock(
                B=_user_resolvent(blk.B.dim), L=blk.L) for blk in pb.BL_list])
        plan = self._check(s, pb, rng)
        picks = _index_arrays(plan)
        # a group hook writes picked rows into scratch, then sets them (the
        # one L map in both); a call per row or per image writes one row
        assert {e.func.__name__ for e in picks} == {"take", "__setitem__"}

    def test_built_in_kinds_are_bound_and_others_generic(self):
        # the desk star: one product for the gradients, one stencil each for
        # L and L^*, one soft-threshold each for the A_i and the B_k, and
        # the zero resolvent of A_0 as the one generic entry
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("star", inst, 0.5, 0.1)
        tape = EvalPlan(s, pb).tape
        generic = [call for call in tape if call.func is solver_module._put]
        assert [call.args[2] for call in generic] == pb.A_list[:1]
        # wrapped, as a traced run wraps them, each A_i and C_j is one
        traced = replace(_per_row(pb), BL_list=pb.BL_list)
        generic = [call.args[2] for call in EvalPlan(s, traced).tape
                   if call.func is solver_module._put]
        assert sorted(map(id, generic)) == sorted(
            map(id, traced.A_list + traced.C_list))

    def test_a_plan_is_freed_without_the_collector(self):
        # the tape holds the plan's buffers, never the plan: no cycle keeps
        # an evaluated plan alive when its last reference goes
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("star", inst, 0.5, 0.1)
        gc.collect()
        gc.disable()
        try:
            for problem in (pb, _per_row(pb)):
                plan = EvalPlan(s, problem)
                eval_S(plan, plan.z, plan.w)
                eval_Gamma(s, problem, np.ones(plan.z.shape),
                           np.ones(plan.w.shape), plan=plan)
                ref = weakref.ref(plan)
                del plan
                assert ref() is None
        finally:
            gc.enable()


class TestFreshArrays:
    """What eval_Gamma, eval_S and solve return is the caller's own, also
    with one plan and with the whole-array tail's views of X."""

    def test_evaluations_with_one_plan_share_no_memory(self, rng):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme("complete", inst, 0.5, 0.1)
        plan = solver_module.EvalPlan(s, pb)
        outs = [eval_Gamma(s, pb, rng.standard_normal((s.m, pb.d)),
                           rng.standard_normal((s.r, pb.d - 1)), plan=plan)
                for _ in range(2)]
        outs += [eval_S(plan, rng.standard_normal((s.m, pb.d)),
                        rng.standard_normal((s.r, pb.d - 1)))
                 for _ in range(2)]
        for i, a in enumerate(outs):
            for b in outs[i + 1:]:
                assert not any(np.shares_memory(u, v) for u in a for v in b)

    @pytest.mark.parametrize("family", ["sequential", "complete"])
    def test_final_state_shares_no_memory(self, family):
        inst = desk_instance(0)
        pb = to_problem(inst)
        s, _, _ = build_family_scheme(family, inst, 0.5, 0.1)
        final = solve(s, pb, opts=SolveOptions(max_iters=30)).final
        parts = [final.z, final.w, final.x, final.y]
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not any(np.shares_memory(u, v)
                               for u in a.blocks for v in b.blocks)


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
    scheme_sequential(2)'s M, N, D, P and R with no dual block, and
    Malitsky-Tam as scheme_ring(5, r=0, p=0), stepped against their
    textbook loops.  Each prints check_scheme's lambda_max beside the
    classical relaxation range."""

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

    def test_malitsky_tam_is_the_ring_without_dual_or_smooth_slots(self,
                                                                   rng):
        # minimal-lifting resolvent splitting: n resolvents and m = n - 1
        # z-blocks, each resolvent fed the one before it
        n, d, gamma, lam = 5, 6, 0.7, 0.8
        s = scheme_ring(n, gamma=gamma, r=0, p=0)
        assert s.m == n - 1
        A = [monotone_affine(rng, d) for _ in range(n)]
        pb = ProblemInstance(d=d, A_list=A)
        regime, rep, bounds = check_scheme(s, pb.lipschitz_constants, [],
                                           pb.all_cocoercive)
        assert (regime, rep.all_pass, check_explicit(s)) == (
            "cocoercive", True, True)
        print(f"malitsky_tam: lambda_max {bounds.lambda_max(gamma):.6g}, "
              f"classical lambda < 1")
        z = [rng.standard_normal(d) for _ in range(n - 1)]
        state = IterateState(z=BlockVector(z), w=BlockVector([]))
        for _ in range(self.STEPS):
            x = [A[0](gamma, z[0])]
            for i in range(1, n - 1):
                x.append(A[i](gamma, z[i] + x[i - 1] - z[i - 1]))
            x.append(A[n - 1](gamma, x[0] + x[n - 2] - z[n - 2]))
            z = [z[i] + lam * (x[i + 1] - x[i]) for i in range(n - 1)]
            state = step(s, pb, state, lam)
            for got, want in zip(state.x.blocks + state.z.blocks, x + z):
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
