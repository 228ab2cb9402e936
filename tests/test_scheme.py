"""Coefficient scheme validation, the tau/step-size calculus, and the PSD
assembly."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import (BlockVector, CoefficientScheme, GraphSpec,
                        IterateState, LinearMap, ProblemInstance,
                        SolveOptions, affine_resolvent, assemble_omega,
                        assemble_upsilons, certify_solution, check_explicit,
                        complete_graph, compute_UW, compute_tau,
                        difference_matrix, gen_instance, l1_resolvent,
                        load_graph, load_scheme, reference_solve,
                        resolvent_of_inverse, save_graph, save_scheme,
                        scheme_complete, scheme_ring, scheme_sequential,
                        scheme_star, solve, star_graph, step, step_bounds,
                        validate_psd, validate_standing, zero_resolvent)
from graphsplit.fusedlasso import (FAMILY_GENERATORS, ExperimentConfig,
                                   load_instance, save_instance)
from graphsplit.graphs import path_graph, scheme_from_graph
from graphsplit.scheme import dumps_json, scheme_from_dict, scheme_to_dict

import psd_oracle
from conftest import read_ahead_scheme
from test_graphs import random_tree_graph
from test_solver import two_node_scheme


@dataclasses.dataclass
class NotedScheme(CoefficientScheme):
    """A scheme with one field more, as a later version might add."""

    note: str = ""


def identity_m_scheme(n=3):
    """A structurally invalid scheme: M = I has no ones-kernel."""
    return CoefficientScheme(
        M=np.eye(n), N=np.zeros((n, n)),
        D_diag=np.zeros(n) + n / n, E_diag=np.zeros(0),
        H=np.zeros((n, 0)), K=np.zeros((0, n)), P=np.zeros((n, 0)),
        Q=np.zeros((n, 0)), R=np.zeros((0, n)), gamma=1.0,
    )


class TestConstruction:
    def test_shape_coercion_and_properties(self):
        s = scheme_sequential(4)
        assert s.M.shape == (4, 3)
        assert s.D.shape == (4, 4)
        assert s.E.shape == (3, 3)
        np.testing.assert_allclose(np.diag(s.D), s.D_diag)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            scheme_sequential(3, gamma=0.0)
        data = scheme_to_dict(scheme_sequential(3))
        data["theta"] = 1.5
        with pytest.raises(ValueError, match="theta"):
            scheme_from_dict(data)
        with pytest.raises(ValueError):
            scheme_sequential(3).replace(D_diag=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            scheme_sequential(3).replace(E_diag=np.zeros(2))

    def test_empty_m_refused(self):
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            CoefficientScheme(
                M=np.zeros((0, 1)), N=np.zeros((0, 0)), D_diag=np.zeros(0),
                E_diag=np.zeros(0), H=np.zeros((0, 0)), K=np.zeros((0, 0)),
                P=np.zeros((0, 0)), Q=np.zeros((0, 0)), R=np.zeros((0, 0)),
                gamma=1.0)

    def test_sizes_read_from_the_matrices(self):
        s = scheme_ring(4, r=2, p=3)
        assert (s.n, s.m, s.r, s.p) == (4, 3, 2, 3)
        s2 = s.replace(H=np.zeros((4, 0)), K=np.zeros((0, 4)),
                       E_diag=np.zeros(0))
        assert (s2.r, s.r) == (0, 2)
        with pytest.raises(TypeError):
            CoefficientScheme(n=4, **{f.name: getattr(s, f.name)
                                      for f in dataclasses.fields(s)
                                      if f.init})

    def test_replace_keeps_other_fields(self):
        s = scheme_star(3, gamma=0.5)
        s2 = s.replace(gamma=0.7)
        assert s2.gamma == 0.7
        assert s2.family == "star"
        np.testing.assert_allclose(s2.M, s.M)

    def test_replace_without_arguments_keeps_every_field(self):
        ring = scheme_ring(4, gamma=0.3, eta=0.2, regime="lipschitz")
        s = NotedScheme(**{f.name: getattr(ring, f.name)
                           for f in dataclasses.fields(ring) if f.init},
                        note="kept")
        s2 = s.replace()
        assert type(s2) is NotedScheme and s2 is not s
        for f in dataclasses.fields(s):
            np.testing.assert_array_equal(getattr(s2, f.name),
                                          getattr(s, f.name), err_msg=f.name)


class TestStanding:
    def test_sequential_matrices_and_verdicts(self):
        s = scheme_sequential(3)
        np.testing.assert_allclose(s.M, [[1, 0], [-1, 1], [0, -1]])
        np.testing.assert_allclose(s.N, [[0, 0, 0], [2, 0, 0], [0, 2, 0]])
        np.testing.assert_allclose(s.D_diag, [1, 2, 1])
        rep = validate_standing(s, has_B=True, has_C=True)
        assert rep.all_pass
        assert rep.as_dict()["all_pass"]

    def test_star_and_complete_pass(self):
        for s in (scheme_star(4), scheme_complete(4)):
            assert validate_standing(s, has_B=True, has_C=True).all_pass

    def test_identity_m_fails_kernel(self):
        rep = validate_standing(identity_m_scheme(), has_B=False, has_C=False)
        assert not rep.kernel
        assert not rep.all_pass

    def test_tampered_trace_fails(self):
        s = scheme_sequential(3)
        N = s.N.copy()
        N[2, 0] = 0.5
        rep = validate_standing(s.replace(N=N), has_B=True, has_C=True)
        assert not rep.trace

    def test_q_rows_checked_in_lipschitz_regime(self):
        ring = scheme_ring(4, regime="lipschitz")
        rep = validate_standing(ring, has_B=True, has_C=True, check_q=True)
        assert rep.q_rows and rep.all_pass
        # the cocoercive families have Q = 0, so the extra condition fails
        rep2 = validate_standing(scheme_sequential(3), has_B=True,
                                 has_C=True, check_q=True)
        assert rep2.q_rows is False
        assert not rep2.all_pass

    def test_zero_pr_required_without_smooth_terms(self):
        s = scheme_sequential(3)
        rep = validate_standing(s, has_B=True, has_C=False)
        assert not rep.pr_rows


class TestExplicit:
    def test_named_families_are_explicit(self):
        for s in (scheme_sequential(4), scheme_star(4), scheme_complete(4),
                  scheme_ring(4), scheme_ring(4, regime="lipschitz")):
            assert check_explicit(s) is True

    def test_upper_triangular_mass_detected(self):
        s = scheme_sequential(3)
        N = s.N.copy()
        N[0, 2] = 1.0
        assert check_explicit(s.replace(N=N)) is False
        # the product of magnitudes underflows; the nonzero patterns do not
        s = read_ahead_scheme()
        assert not np.triu(np.abs(s.P - s.Q) @ np.abs(s.R)).any()
        assert check_explicit(s) is False


class TestUW:
    def test_sequential_U_is_negative_identity(self):
        s = scheme_sequential(5)
        U, _ = compute_UW(s)
        np.testing.assert_allclose(U, -np.eye(4), atol=1e-12)

    def test_ring_case1_U_all_minus_ones(self):
        s = scheme_ring(5, p=2)
        U, _ = compute_UW(s)
        np.testing.assert_allclose(U, -np.ones((2, 4)), atol=1e-12)

    def test_ring_case2_U_and_W(self):
        n, p = 5, 2
        s = scheme_ring(n, regime="lipschitz", p=p)
        U, W = compute_UW(s, need_W=True)
        U_ref = np.hstack([-np.ones((p, n - 2)), np.zeros((p, 1))])
        W_ref = np.hstack([np.zeros((p, n - 2)), np.ones((p, 1))])
        np.testing.assert_allclose(U, U_ref, atol=1e-12)
        np.testing.assert_allclose(W, W_ref, atol=1e-12)

    def test_empty_p_gives_empty_factors(self):
        s = scheme_ring(3, p=0)
        U, W = compute_UW(s, need_W=True)
        assert U.shape == (0, 2)
        assert W.shape == (0, 2)

    def test_inconsistent_system_raises(self):
        s = scheme_sequential(3)
        P = s.P.copy()
        P[0, 0] = 1.0   # breaks the zero-column-sum structure
        with pytest.raises(ValueError):
            compute_UW(s.replace(P=P, R=np.zeros((2, 3))))


class TestTau:
    def test_sequential_is_max_ell(self):
        s = scheme_sequential(4)
        uw = compute_UW(s)
        ell = [2.0, 5.0, 3.0]
        assert abs(compute_tau(uw, ell, "cocoercive") - 5.0) <= 5e-12

    def test_empty_ell_gives_zero(self):
        uw = compute_UW(scheme_ring(3, p=0))
        assert compute_tau(uw, [], "cocoercive") == 0.0

    def test_lipschitz_needs_W(self):
        uw = compute_UW(scheme_ring(4, regime="lipschitz"))
        with pytest.raises(ValueError):
            compute_tau(uw, [1.0], "lipschitz")

    def test_unknown_regime(self):
        uw = compute_UW(scheme_sequential(3))
        with pytest.raises(ValueError):
            compute_tau(uw, [1.0, 1.0], "other")

    def test_negative_ell_rejected(self):
        uw = compute_UW(scheme_sequential(3))
        with pytest.raises(ValueError):
            compute_tau(uw, [1.0, -1.0], "cocoercive")

    def test_one_ell_per_smooth_operator(self):
        uw = compute_UW(scheme_sequential(3))
        with pytest.raises(ValueError,
                           match="^ell needs p = 2 entries, not 3$"):
            compute_tau(uw, [1.0, 1.0, 1.0], "cocoercive")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ell_rejected(self, bad):
        uw = compute_UW(scheme_sequential(3))
        with pytest.raises(ValueError, match=re.escape(
                f"ell[1] = {bad!r} is not a finite number >= 0")):
            compute_tau(uw, [1.0, bad], "cocoercive")


def _draw_scheme(rng, family, n, gamma, eta):
    """One scheme of the named family: the graph families, both ring
    regimes with one to three dual blocks, and scheme_from_graph on a
    random tree plus extra edges, with and without kappa.  In
    "graph_lipschitz" Q has ones in its last row, so Q^T 1 = 1 and, unlike
    the ring's, Omega - gamma Upsilon_1 can be PSD."""
    if family in ("ring", "ring_lipschitz"):
        regime = "lipschitz" if family == "ring_lipschitz" else "cocoercive"
        return scheme_ring(n, gamma, eta, regime=regime,
                           r=int(rng.integers(1, 4)))
    if family.startswith("graph"):
        g = random_tree_graph(rng, n, extra_edges=int(rng.integers(0, 4)))
        kappa = (None if family == "graph_no_kappa"
                 else float(rng.uniform(0.25, 4.0)))
        s = scheme_from_graph(g, gamma, eta, kappa=kappa)
        if family == "graph_lipschitz":
            s = s.replace(Q=np.eye(n)[[-1] * s.p].T)
        return s
    return FAMILY_GENERATORS[family](n, gamma=gamma, eta=eta)


class TestOmegaUpsilon:
    def test_no_dual_blocks_reduces_to_base_kronecker(self):
        s = scheme_ring(3, p=0).replace(H=np.zeros((3, 0)),
                                        K=np.zeros((0, 3)),
                                        E_diag=np.zeros(0))
        d = 2
        base = 2.0 * s.D - s.N - s.N.T - s.M @ s.M.T
        np.testing.assert_array_equal(assemble_omega(s, [], d), base)
        omega = psd_oracle.assemble_omega(s, [], d)
        np.testing.assert_allclose(omega, np.kron(base, np.eye(d)),
                                   atol=1e-12)

    def test_upsilons_need_p_lipschitz_constants(self):
        with pytest.raises(ValueError,
                           match="^ell needs p = 2 entries, not 1$"):
            assemble_upsilons(scheme_sequential(3), [1.0])

    def test_matches_direct_formula(self):
        s = scheme_sequential(3, gamma=0.4, eta=0.7)
        d = 2
        rng = np.random.default_rng(11)
        L_list = [LinearMap(rng.standard_normal((3, d))) for _ in range(2)]
        base = 2.0 * s.D - s.N - s.N.T - s.M @ s.M.T
        ref = np.kron(base, np.eye(d))
        small = base.copy()
        HK = s.H - s.K.T
        for k in range(2):
            A = L_list[k].matrix
            hh = np.outer(HK[:, k], HK[:, k])
            ref -= s.gamma * s.E_diag[k] * np.kron(hh, A.T @ A)
            small -= s.gamma * s.E_diag[k] * np.linalg.norm(A, 2) ** 2 * hh
        np.testing.assert_allclose(psd_oracle.assemble_omega(s, L_list, d),
                                   ref, atol=1e-12)
        np.testing.assert_allclose(assemble_omega(s, L_list, d), small,
                                   atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from([scheme_sequential, scheme_star,
                                   scheme_complete]),
           n=st.integers(2, 5), d=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_difference_map_matches_dense_matrix(self, family, n, d, seed):
        rng = np.random.default_rng(seed)
        s = family(n, gamma=float(rng.uniform(0.05, 2.0)),
                   eta=float(rng.uniform(0.05, 2.0)))
        ell = rng.uniform(0.1, 2.0, size=s.p)
        free = [difference_matrix(d)] * s.r
        dense = [LinearMap(np.diff(np.eye(d), axis=0))] * s.r
        np.testing.assert_array_equal(psd_oracle.assemble_omega(s, free, d),
                                      psd_oracle.assemble_omega(s, dense, d))
        np.testing.assert_allclose(assemble_omega(s, free, d),
                                   assemble_omega(s, dense, d), atol=1e-12)
        assert validate_psd(s, free, ell, d) == validate_psd(s, dense, ell, d)

    def test_one_map_verdicts_match_dense_oracle(self):
        # exact for L_k = c_k L, and sufficient for unrelated L_k
        seen = {key: set() for key in ("A320", "A321", "A322")}

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(family=st.sampled_from(["sequential", "star", "complete",
                                       "ring", "ring_lipschitz", "graph",
                                       "graph_no_kappa", "graph_lipschitz"]),
               n=st.integers(3, 6), d=st.integers(2, 8),
               one_map=st.booleans(), seed=st.integers(0, 2**32 - 1))
        def check(family, n, d, one_map, seed):
            rng = np.random.default_rng(seed)
            gamma = float(np.exp(rng.uniform(np.log(0.01), np.log(1.5))))
            s = _draw_scheme(rng, family, n, gamma, 1.0)
            if one_map:
                B = (np.diff(np.eye(d), axis=0) if rng.random() < 0.5
                     else rng.standard_normal((int(rng.integers(1, d + 2)),
                                               d)))
                L_list = [LinearMap(c * B)
                          for c in rng.uniform(-2.0, 2.0, size=s.r)]
            else:
                L_list = [LinearMap(rng.standard_normal(
                    (int(rng.integers(1, d + 2)), d))) for _ in range(s.r)]
            # eta between a tenth of and four times 1 / (gamma max ||L_k||^2)
            lmax2 = max(L.norm() for L in L_list) ** 2
            factor = float(np.exp(rng.uniform(np.log(0.1), np.log(4.0))))
            s = s.replace(E_diag=s.E_diag * factor / (gamma * lmax2))
            ell = np.exp(rng.uniform(np.log(0.01), np.log(2.0), size=s.p))
            got = validate_psd(s, L_list, ell, d)
            want = psd_oracle.validate_psd(s, L_list, ell, d)
            if one_map:
                assert got == want
                for key, verdict in got.items():
                    seen[key].add(verdict)
            else:
                assert all(want[key] for key in got if got[key]), (got, want)

        check()
        assert all(v == {True, False} for v in seen.values()), seen

    @pytest.mark.parametrize("family, n, d",
                             [(scheme_complete, 21, 1000),
                              (scheme_sequential, 6, 10**4)],
                             ids=["agents20-complete", "wide-d1e4"])
    def test_benchmark_scale_gets_verdicts(self, family, n, d):
        # n d = 21,000 and 60,000: no dense Omega is built
        L = difference_matrix(d)
        gamma = 0.3
        eta_star = 1.0 / (gamma * L.norm() ** 2)
        for factor, psd in ((0.5, True), (1.01, False)):
            s = family(n, gamma=gamma, eta=factor * eta_star)
            verdict = validate_psd(s, [L] * s.r, np.ones(s.p), d)
            assert verdict["A320"] is psd, factor

    def test_wrong_input_dimension_named(self):
        s = scheme_sequential(3)
        with pytest.raises(ValueError, match="L_0 acts on dim 4"):
            assemble_omega(s, [difference_matrix(4)] * s.r, 3)

    def test_upsilons_symmetric_psd_ordered(self):
        rng = np.random.default_rng(12)
        for fam in (scheme_sequential, scheme_star, scheme_complete):
            s = fam(4)
            ell = rng.uniform(0.5, 2.0, size=3)
            u1, u2 = assemble_upsilons(s, ell)
            for m in (u1, u2, u1 - u2):
                np.testing.assert_allclose(m, m.T, atol=1e-12)
                assert np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) >= -1e-10

    def test_psd_implication_chain(self):
        # A321 implies A322 implies A320 on any scheme
        rng = np.random.default_rng(13)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            fam = (scheme_sequential, scheme_star, scheme_complete)[trial % 3]
            s = fam(n, gamma=float(rng.uniform(0.05, 2.0)),
                    eta=float(rng.uniform(0.05, 2.0)))
            d = 2
            L_list = [LinearMap(rng.standard_normal((2, d)))
                      for _ in range(s.r)]
            ell = rng.uniform(0.1, 2.0, size=s.p)
            verdict = validate_psd(s, L_list, ell, d)
            if verdict["A321"]:
                assert verdict["A322"]
            if verdict["A322"]:
                assert verdict["A320"]

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_scalar_model_verdicts_do_not_depend_on_d(self, d):
        # with L_k = l_norm * I every PSD matrix is a Kronecker product with
        # I_d, so the dense verdicts at d equal the n-by-n ones at d = 1,
        # which CLI validate reports
        seen = set()
        for fam in (scheme_sequential, scheme_star, scheme_complete,
                    scheme_ring):
            for n in (3, 5):
                for gamma in (0.1, 0.5, 1.0):
                    s = fam(n, gamma=gamma, eta=0.5)
                    ell = [1.0] * s.p
                    for l_norm in np.linspace(0.1, 4.0, 14):
                        def verdicts(check, dim):
                            L = [LinearMap(l_norm * np.eye(dim))] * s.r
                            return check(s, L, ell, dim)
                        scalar = verdicts(validate_psd, 1)
                        assert verdicts(psd_oracle.validate_psd, d) == scalar
                        assert verdicts(validate_psd, d) == scalar
                        seen.update(scalar.values())
        assert seen == {True, False}


class TestStepBounds:
    def test_cocoercive_bounds(self):
        b = step_bounds(2.0, [1.0], "cocoercive")
        assert b.gamma_max == 1.0
        assert abs(b.lambda_max(0.5) - 0.5) <= 1e-15
        assert abs(b.eta_max(0.5) - 2.0) <= 1e-15

    def test_lipschitz_bounds(self):
        b = step_bounds(2.0, [2.0], "lipschitz")
        assert b.gamma_max == 0.5
        assert abs(b.lambda_max(0.25) - 0.5) <= 1e-15
        assert abs(b.eta_max(0.25) - 1.0) <= 1e-15

    def test_zero_tau_unbounded_gamma(self):
        b = step_bounds(0.0, [], "cocoercive")
        assert np.isinf(b.gamma_max)
        assert np.isinf(b.eta_max(100.0))
        assert b.lambda_max(100.0) == 1.0

    def test_gamma_out_of_range(self):
        b = step_bounds(1.0, [1.0], "cocoercive")
        with pytest.raises(ValueError):
            b.check_gamma(2.0)
        with pytest.raises(ValueError):
            b.lambda_max(-0.1)

    @pytest.mark.parametrize("gamma", ["0.5", True, None],
                             ids=["string", "bool", "none"])
    @pytest.mark.parametrize("method", ["check_gamma", "eta_max",
                                        "lambda_max"])
    def test_gamma_that_is_not_a_number_named(self, method, gamma):
        # "0.5" raised a bare TypeError from the comparison, and True ran
        # as gamma = 1 (lambda_max(True) returned 0.5)
        b = step_bounds(1.0, [1.0], "cocoercive")
        with pytest.raises(ValueError, match=re.escape(
                f"gamma = {gamma!r} is not a number")):
            getattr(b, method)(gamma)

    def test_lambda_max_decreases_with_gamma(self):
        b = step_bounds(1.5, [1.0], "cocoercive")
        gammas = np.linspace(0.1, 1.2, 8)
        vals = [b.lambda_max(g) for g in gammas]
        assert all(a > c for a, c in zip(vals, vals[1:]))

    def test_bad_regime_and_tau(self):
        with pytest.raises(ValueError):
            step_bounds(1.0, [], "huh")
        with pytest.raises(ValueError):
            step_bounds(-1.0, [], "cocoercive")

    def test_nan_tau_refused_by_name(self):
        # nan < 0 is false: these bounds were built, with gamma_max nan
        with pytest.raises(ValueError,
                           match="^tau = nan is not a finite number >= 0$"):
            step_bounds(float("nan"), [1.0], "cocoercive")


class TestSerialization:
    def test_dumps_json_deterministic(self):
        a = dumps_json({"b": 1.5, "a": [True, None, "x"]})
        b = dumps_json({"a": [True, None, "x"], "b": 1.5})
        assert a == b
        assert a == '{"a": [true, null, "x"], "b": 1.5}'

    def test_dumps_json_full_precision(self):
        v = 0.1 + 0.2
        assert float(dumps_json(v)) == v

    def test_dumps_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_json(float("nan"))

    def test_dumps_json_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json(object())

    def test_round_trip(self, tmp_path):
        s = scheme_complete(4, gamma=0.3, eta=0.8)
        path = tmp_path / "scheme.json"
        save_scheme(s, path)
        s2 = load_scheme(path)
        for name in ("M", "N", "H", "K", "P", "Q", "R"):
            np.testing.assert_allclose(getattr(s2, name), getattr(s, name))
        np.testing.assert_allclose(s2.D_diag, s.D_diag)
        np.testing.assert_allclose(s2.E_diag, s.E_diag)
        assert (s2.gamma, s2.family) == (0.3, "complete")
        # scheme files written with a residual scale carry theta = 1
        data = scheme_to_dict(s)
        data["theta"] = 1.0
        assert scheme_from_dict(data).gamma == 0.3

    def test_dict_round_trip_and_malformed(self):
        s = scheme_ring(3)
        s2 = scheme_from_dict(scheme_to_dict(s))
        np.testing.assert_allclose(s2.N, s.N)
        with pytest.raises(ValueError):
            scheme_from_dict({"n": 2})

    @pytest.mark.parametrize("edit,named", [
        ({"M": np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])},
         r"N has shape \(3, 3\), but n, m, r, p = 2, 3"),
        ({"n": 3.7}, "n = 3.7 but the matrices give 3"),
        ({"n": 4}, "n = 4 but the matrices give 3"),
        ({"gamma": float("nan")}, r"gamma = nan must lie in \(0, inf\)"),
        ({"gamma": float("inf")}, r"gamma = inf must lie in \(0, inf\)"),
    ], ids=["transposed_M", "fractional_n", "stale_n", "nan_gamma",
            "inf_gamma"])
    def test_sizes_and_gamma_checked_on_load(self, edit, named):
        data = {**scheme_to_dict(scheme_sequential(3)), **edit}
        with pytest.raises(ValueError, match="malformed scheme data: "
                           + named):
            scheme_from_dict(data)

    @pytest.mark.parametrize("name", ["M", "N", "D_diag", "E_diag", "H", "K",
                                      "P", "Q", "R"])
    @pytest.mark.parametrize("bad", ["nan_first", "inf_all"])
    def test_non_finite_entries_rejected_on_load(self, name, bad):
        # nan_first turns D_diag [1, 2, 1] into [nan, 2, 1]
        data = scheme_to_dict(scheme_sequential(3))
        a = np.array(data[name], dtype=float)
        if bad == "nan_first":
            a.flat[0] = np.nan
        else:
            a[...] = np.inf
        data[name] = a.tolist()
        with pytest.raises(ValueError, match="malformed scheme data: "
                           f"{name} has a non-finite entry"):
            scheme_from_dict(data)

    @pytest.mark.parametrize("kw", [{"p": 0}, {"r": 0}], ids=["p0", "r0"])
    def test_empty_blocks_round_trip_through_a_file(self, tmp_path, kw):
        s = scheme_ring(4, gamma=0.3, **kw)
        path = tmp_path / "scheme.json"
        save_scheme(s, path)
        s2 = load_scheme(path)
        for f in dataclasses.fields(s):
            a, b = getattr(s2, f.name), getattr(s, f.name)
            assert np.shape(a) == np.shape(b), f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        assert (s2.r, s2.p) == (kw.get("r", 1), kw.get("p", 1))

    @pytest.mark.parametrize("edit,named", [
        ({"gamma": True}, "gamma holds True, which is not a number"),
        ({"gamma": "0.5"}, "gamma holds '0.5', which is not a number"),
        ({"family": 7}, "family holds 7, which is not a string"),
        ({"M": [[1.0, 0.0], [True, 1.0], [0.0, -1.0]]},
         "M holds True, which is not a number"),
        ({"D_diag": [1.0, True, 1.0]},
         "D_diag holds True, which is not a number"),
        ({"n": True}, "n = True but the matrices give 3"),
        ({"r": True}, "r = True but the matrices give 1"),
        ({"theta": True}, "theta holds True, which is not a number"),
    ], ids=["bool_gamma", "string_gamma", "number_family", "bool_in_matrix",
            "bool_in_diagonal", "bool_n", "bool_r", "bool_theta"])
    def test_json_kinds_checked_on_load(self, tmp_path, edit, named):
        # json would load true as 1 and 7 as the family "7"
        path = tmp_path / "scheme.json"
        save_scheme(scheme_ring(3, gamma=0.5), path)
        data = {**json.loads(path.read_text()), **edit}
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="malformed scheme data: "
                           + re.escape(named)):
            load_scheme(path)

    def test_wrong_matrix_size_is_malformed(self):
        data = scheme_to_dict(scheme_ring(3))
        data["M"] = data["M"].ravel()[:-1]
        with pytest.raises(ValueError, match="malformed scheme data"):
            scheme_from_dict(data)


def _two_nodes():
    ident = affine_resolvent(np.eye(2), np.zeros(2))
    return two_node_scheme(), ProblemInstance(d=2, A_list=[ident, ident])


def _solve_two_nodes(**opts):
    solve(*_two_nodes(), opts=SolveOptions(**{"max_iters": 2, **opts}))


def _step_two_nodes(lam):
    # step, not solve: solve reads a lambda_schedule of None as its default
    step(*_two_nodes(), IterateState(z=BlockVector([np.ones(2)]),
                                     w=BlockVector([])), lam)


def _psd_with_ell(ell):
    s = scheme_sequential(3)
    return validate_psd(s, [LinearMap([[1.0]])] * s.r, ell, 1)


def _load_edited(monkeypatch, load, path, edit):
    """load(path) with edit applied to what json.load reads, since a JSON
    file cannot hold a numpy scalar."""
    json_load = json.load
    monkeypatch.setattr(json, "load", lambda fh: edit(json_load(fh)))
    return load(path)


def _graph_with_weight(monkeypatch, tmp_path, value):
    path = tmp_path / "graph.json"
    save_graph(GraphSpec(n=3, edges=[(1, 2, 1.0), (2, 3, 1.0)]), path)

    def edit(data):
        data["edges"][0][2] = value
        return data
    return _load_edited(monkeypatch, load_graph, path, edit)


def _instance_with(monkeypatch, tmp_path, key, value):
    save_instance(gen_instance(3, n=3, m=14, d=9, k_nonzero=2), tmp_path)
    return _load_edited(monkeypatch, load_instance, str(tmp_path),
                        lambda meta: {**meta, key: value})


# entry point: (a valid value, an integer wanted, the call, its refusal)
NUMBER_ENTRY_POINTS = {
    "solve_max_iters": (2, True, lambda v, mp, tmp: _solve_two_nodes(
        max_iters=v), "^max_iters = "),
    "solve_residual_tol": (1e-10, False, lambda v, mp, tmp: _solve_two_nodes(
        residual_tol=v), "^residual_tol = "),
    "lambda": (0.5, False, lambda v, mp, tmp: _step_two_nodes(v),
               "^lambda_t = .* is not a number$"),
    "scheme_gamma": (0.5, False, lambda v, mp, tmp: scheme_from_dict(
        {**scheme_to_dict(scheme_ring(3, gamma=0.5)), "gamma": v}),
        "^malformed scheme data: gamma holds "),
    "graph_edge": (1.0, False, lambda v, mp, tmp: _graph_with_weight(
        mp, tmp, v), "^malformed graph data: edge .* holds a value that is "
        "not a number$"),
    "meta_m": (14, True, lambda v, mp, tmp: _instance_with(
        mp, tmp, "m", v), "^meta.json's m = .* is not of type int$"),
    "meta_noise_var": (1e-3, False, lambda v, mp, tmp: _instance_with(
        mp, tmp, "noise_var", v),
        "^meta.json's noise_var = .* is not of type float$"),
    "graph_n": (3, True, lambda v, mp, tmp: GraphSpec(
        n=v, edges=[(1, 2, 1.0), (2, 3, 1.0)]),
        "^n = .* must be an integer >= 2$"),
    "graph_spec_vertex": (1, True, lambda v, mp, tmp: GraphSpec(
        n=3, edges=[(v, 2, 1.0), (2, 3, 1.0)]),
        "^edge .* holds a value that is not a number$"),
    "graph_spec_weight": (1.0, False, lambda v, mp, tmp: GraphSpec(
        n=3, edges=[(1, 2, v), (2, 3, 1.0)]),
        "^edge .* holds a value that is not a number$"),
    "config_max_iters": (50, True, lambda v, mp, tmp: ExperimentConfig(
        max_iters=v), "^max_iters = .* is not an integer$"),
    "config_tol": (1e-8, False, lambda v, mp, tmp: ExperimentConfig(tol=v),
                   "^tol = .* is not a number$"),
    "config_gamma_hats": (0.5, False, lambda v, mp, tmp: ExperimentConfig(
        gamma_hats=[0.3, v]), "^gamma_hats holds .*, which is not a number$"),
    "constructor_gamma": (0.5, False, lambda v, mp, tmp: scheme_sequential(
        3).replace(gamma=v), "^gamma = .* is not a number$"),
    "graph_scheme_eta": (0.5, False, lambda v, mp, tmp: scheme_from_graph(
        path_graph(3), eta=v), "^eta = .* is not a number$"),
    "graph_scheme_kappa": (1.0, False, lambda v, mp, tmp: scheme_from_graph(
        path_graph(3), kappa=v), "^kappa = .* is not a number$"),
    "ring_eta": (0.5, False, lambda v, mp, tmp: scheme_ring(3, eta=v),
                 "^eta = .* is not a number$"),
    "ring_n": (3, True, lambda v, mp, tmp: scheme_ring(v),
               "^n = .* is not an integer$"),
    "ring_r": (2, True, lambda v, mp, tmp: scheme_ring(3, r=v),
               "^r = .* is not an integer$"),
    "ring_p": (2, True, lambda v, mp, tmp: scheme_ring(3, p=v),
               "^p = .* is not an integer$"),
    "step_bounds_tau": (1.0, False, lambda v, mp, tmp: step_bounds(
        v, [1.0], "cocoercive"), "^tau = .* is not a finite number >= 0$"),
    "path_graph_n": (3, True, lambda v, mp, tmp: path_graph(v),
                     "^n = .* is not an integer$"),
    "star_graph_n": (3, True, lambda v, mp, tmp: star_graph(v),
                     "^n = .* is not an integer$"),
    "complete_graph_n": (3, True, lambda v, mp, tmp: complete_graph(v),
                         "^n = .* is not an integer$"),
    "sequential_n": (3, True, lambda v, mp, tmp: scheme_sequential(v),
                     "^n = .* is not an integer$"),
    **{f"gen_instance_{k}": (valid, True, lambda v, mp, tmp, k=k:
                             gen_instance(1, **{"n": 2, "m": 10, "d": 12,
                                                "k_nonzero": 2, k: v}),
                             f"^{k} = .* is not an integer$")
       for k, valid in (("n", 2), ("m", 10), ("d", 12), ("k_nonzero", 2))},
    "gen_instance_noise_var": (1e-3, False, lambda v, mp, tmp: gen_instance(
        1, n=2, m=10, d=12, noise_var=v), "^noise_var = .* is not a number$"),
    "reference_tol": (1e-6, False, lambda v, mp, tmp: reference_solve(
        gen_instance(1, n=2, m=10, d=6, k_nonzero=2), tol=v),
        "^tol = .* is not a number$"),
    "certify_tol": (1e-5, False, lambda v, mp, tmp: certify_solution(
        *_two_nodes(), IterateState(z=BlockVector([np.ones(2)]),
                                    w=BlockVector([])), tol=v),
        "^tol = .* is not a number$"),
    "difference_map_d": (3, True, lambda v, mp, tmp: difference_matrix(v),
                         "^d = .* is not an integer$"),
    "zero_resolvent_dim": (2, True, lambda v, mp, tmp: zero_resolvent(v),
                           "^dim = .* is not an integer$"),
    "l1_resolvent_dim": (2, True, lambda v, mp, tmp: l1_resolvent(1.0, v),
                         "^dim = .* is not an integer$"),
    "problem_d": (2, True, lambda v, mp, tmp: ProblemInstance(
        d=v, A_list=[zero_resolvent(2)]), "^d = .* is not an integer$"),
    "resolvent_of_inverse_eta": (0.5, False, lambda v, mp, tmp:
                                 resolvent_of_inverse(l1_resolvent(1.0, 2), v,
                                                      np.zeros(2)),
                                 "^eta = .* is not a number$"),
    "gen_instance_seed": (1, True, lambda v, mp, tmp: gen_instance(
        v, n=2, m=10, d=12, k_nonzero=2), "^seed = .* is not an integer$"),
    # a constant (an ell_j, a norm ||L_k||, a weight) is a finite number >= 0
    "l1_weight": (1.0, False, lambda v, mp, tmp: l1_resolvent(v, 2),
                  "^weight = .* is not a finite number >= 0$"),
    **{f"gen_instance_{k}": (1.0, False, lambda v, mp, tmp, k=k:
                             gen_instance(1, n=2, m=10, d=12, k_nonzero=2,
                                          **{k: v}),
                             rf"^{k}\[0\] = .* is not a finite number >= 0$")
       for k in ("mu", "nu")},
    "step_bounds_norm": (1.0, False, lambda v, mp, tmp: step_bounds(
        1.0, [2.0, v], "cocoercive"),
        r"^L_norms\[1\] = .* is not a finite number >= 0$"),
    "compute_tau_ell": (1.0, False, lambda v, mp, tmp: compute_tau(
        compute_UW(scheme_sequential(3)), [1.0, v], "cocoercive"),
        r"^ell\[1\] = .* is not a finite number >= 0$"),
    "validate_psd_ell": (1.0, False, lambda v, mp, tmp: _psd_with_ell(
        [1.0, v]), r"^ell\[1\] = .* is not a finite number >= 0$"),
}


@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
@pytest.mark.parametrize("value", [True, np.True_, "1", None],
                         ids=["True", "np.True_", "string", "None"])
def test_one_number_rule_refuses_at_every_entry_point(
        monkeypatch, tmp_path, entry, value):
    # int() and float() read a bool as 1 or 0 and float() reads "1" as 1.0
    _, _, call, refusal = NUMBER_ENTRY_POINTS[entry]
    if value is None and entry == "graph_scheme_kappa":
        assert call(value, monkeypatch, tmp_path).family == "graph"
        return   # kappa None is the full graph's weights, not a number
    with pytest.raises(ValueError, match=refusal):
        call(value, monkeypatch, tmp_path)


@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
def test_one_number_rule_accepts_numpy_scalars_at_every_entry_point(
        monkeypatch, tmp_path, entry):
    valid, integer, call, _ = NUMBER_ENTRY_POINTS[entry]
    call((np.int64 if integer else np.float64)(valid), monkeypatch, tmp_path)


@pytest.mark.parametrize("call,refusal", [
    # validate_psd gave A320-A322 verdicts for ell = -1 and numpy's
    # LinAlgError for NaN; step_bounds an eta bound of 0.222 for -3 and NaN
    # for NaN; seed 1.5 ran as seed 1 and -1 gave numpy's message;
    # DifferenceMap(3.5) had in_dim 3.5
    (lambda: _psd_with_ell([1.0, -1.0]), r"ell\[1\] = -1.0 is not a finite"),
    (lambda: _psd_with_ell([np.nan, 1.0]), r"ell\[0\] = nan is not a finite"),
    (lambda: step_bounds(1.0, [np.nan], "cocoercive"),
     r"L_norms\[0\] = nan is not a finite"),
    (lambda: step_bounds(1.0, [-3.0], "cocoercive"),
     r"L_norms\[0\] = -3.0 is not a finite"),
    (lambda: step_bounds(1.0, [np.inf], "cocoercive"),
     r"L_norms\[0\] = inf is not a finite"),
    (lambda: gen_instance(1.5, n=2, m=10, d=12),
     "seed = 1.5 is not an integer"),
    (lambda: gen_instance(-1, n=2, m=10, d=12), "seed = -1 must be >= 0"),
    (lambda: difference_matrix(3.5), "d = 3.5 is not an integer"),
    (lambda: zero_resolvent(2.5), "dim = 2.5 is not an integer"),
    (lambda: zero_resolvent(0), "dim = 0 must be >= 1"),
    (lambda: l1_resolvent(1.0, 2.5), "dim = 2.5 is not an integer"),
    (lambda: l1_resolvent(1.0, 0), "dim = 0 must be >= 1"),
    (lambda: step_bounds(np.inf, [1.0], "cocoercive"),
     "tau = inf is not a finite number >= 0$"),
    (lambda: ExperimentConfig(eta_hats=[0.1, 1.5]),
     r"eta_hats holds 1.5, outside \(0, 1\)$"),
    (lambda: ExperimentConfig(eta_hats=[float("nan")]),
     r"eta_hats holds nan, outside \(0, 1\)$"),
    (lambda: ProblemInstance(d=2.5, A_list=[zero_resolvent(2)]),
     "d = 2.5 is not an integer"),
    (lambda: resolvent_of_inverse(l1_resolvent(1.0, 2), np.nan, np.zeros(2)),
     "eta must be positive"),
], ids=["psd_ell_negative", "psd_ell_nan", "norm_nan", "norm_negative",
        "norm_inf", "seed_fraction", "seed_negative", "difference_fraction",
        "zero_dim_fraction", "zero_dim_zero", "l1_dim_fraction",
        "l1_dim_zero", "tau_inf", "factor_above_one", "factor_nan",
        "problem_d_fraction",
        "inverse_eta_nan"])
def test_constants_and_sizes_refused_by_value(call, refusal):
    with pytest.raises(ValueError, match="^" + refusal):
        call()
