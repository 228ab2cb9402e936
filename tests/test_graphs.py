"""Graph specifications, Laplacian factorizations, and the named scheme
generators."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import (GraphSpec, LinearMap, ProblemInstance,
                        check_explicit, complete_graph, compute_tau,
                        compute_UW, laplacian, load_graph,
                        onto_decomposition, path_graph, reference_solve,
                        save_graph, scheme_complete, scheme_from_graph,
                        scheme_ring, scheme_sequential, scheme_star, solve,
                        star_graph, step_bounds, validate_psd,
                        validate_standing, zero_resolvent)
from graphsplit.fusedlasso import (FAMILY_GENERATORS, desk_instance,
                                   difference_matrix, objective, to_problem)


def lift_with_artificial_zero(problem, position="first"):
    """Add a zero operator slot so an n-operator problem fits the schemes
    that need one more resolvent than composed/smooth block."""
    if position not in ("first", "last"):
        raise ValueError("position must be 'first' or 'last'")
    zero = zero_resolvent(problem.d)
    A_list = ([zero] + list(problem.A_list) if position == "first"
              else list(problem.A_list) + [zero])
    return ProblemInstance(d=problem.d, A_list=A_list,
                           BL_list=list(problem.BL_list),
                           C_list=list(problem.C_list))


def random_tree_graph(rng, n, extra_edges=0):
    """Connected weighted graph: a random spanning tree plus optional extra
    edges, with the tree as the designated subgraph."""
    tree = []
    for j in range(2, n + 1):
        i = int(rng.integers(1, j))
        tree.append((i, j, float(rng.uniform(0.5, 2.0))))
    edges = list(tree)
    present = {(i, j) for i, j, _ in tree}
    attempts = 0
    while extra_edges > 0 and attempts < 50 * extra_edges:
        attempts += 1
        i, j = sorted(rng.integers(1, n + 1, size=2))
        if i != j and (int(i), int(j)) not in present:
            present.add((int(i), int(j)))
            edges.append((int(i), int(j), float(rng.uniform(0.5, 2.0))))
            extra_edges -= 1
    return GraphSpec(n=n, edges=edges, subgraph_edges=tree)


class TestGraphSpec:
    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            GraphSpec(n=3, edges=[(1, 2, 1.0), (1, 2, 2.0), (2, 3, 1.0)])

    def test_bad_vertex_order(self):
        with pytest.raises(ValueError):
            GraphSpec(n=3, edges=[(2, 1, 1.0), (2, 3, 1.0)])

    def test_disconnected(self):
        with pytest.raises(ValueError):
            GraphSpec(n=4, edges=[(1, 2, 1.0), (3, 4, 1.0)])

    def test_subgraph_weight_dominance(self):
        with pytest.raises(ValueError):
            GraphSpec(n=2, edges=[(1, 2, 1.0)],
                      subgraph_edges=[(1, 2, 2.0)])

    def test_subgraph_defaults_to_full(self):
        g = path_graph(4)
        assert g.subgraph_edges == g.edges
        assert g.subgraph_is_tree

    @pytest.mark.parametrize("spec,named", [
        ({"n": 3.7}, "n = 3.7 must be an integer >= 2"),
        # not numbers: named, not a comparison error inside the check
        ({"n": "3"}, "n = '3' must be an integer >= 2"),
        ({"n": None}, "n = None must be an integer >= 2"),
        ({"n": True}, "n = True must be an integer >= 2"),
        ({"edges": [[1.7, 2, 1.0], [2, 3, 1.0]]},
         r"bad edges entry \(1.7, 2, 1\): need integers"),
        ({"edges": [[1, 2, float("nan")], [2, 3, 1.0]]},
         r"bad edges entry \(1, 2, nan\)"),
        ({"edges": [[1, 2, float("inf")], [2, 3, 1.0]]},
         r"bad edges entry \(1, 2, inf\)"),
        ({"subgraph_edges": [[1, 2, float("nan")], [2, 3, 1.0]]},
         r"bad subgraph_edges entry \(1, 2, nan\)"),
        # fewer than n - 1 edges are refused before any O(n) work
        ({"n": 10**12}, "graph is disconnected"),
        ({"n": 1e300}, "graph is disconnected"),
    ], ids=["fractional_n", "string_n", "null_n", "bool_n",
            "fractional_vertex", "nan_weight", "inf_weight",
            "nan_subgraph_weight", "n_beyond_its_edges", "n_1e300"])
    def test_truncated_or_non_finite_input_rejected(self, tmp_path, spec,
                                                    named):
        data = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]], **spec}
        with pytest.raises(ValueError, match=named):
            GraphSpec(**data)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="malformed graph data: " + named):
            load_graph(path)

    def test_subgraph_edge_outside_the_graph(self):
        with pytest.raises(ValueError,
                           match=r"subgraph edge \(1, 3\) not in the graph"):
            GraphSpec(n=3, edges=[(1, 2, 1.0), (2, 3, 1.0)],
                      subgraph_edges=[(1, 2, 1.0), (1, 3, 1.0)])

    def test_disconnected_subgraph(self):
        with pytest.raises(ValueError, match="subgraph is disconnected"):
            GraphSpec(n=3, edges=[(1, 2, 1.0), (2, 3, 1.0)],
                      subgraph_edges=[(1, 2, 1.0)])

    def test_complete_unit_detection(self):
        assert complete_graph(4).subgraph_is_complete_unit
        assert not complete_graph(4, weight=2.0).subgraph_is_complete_unit

    @pytest.mark.parametrize("weight", ["2", True], ids=["string", "bool"])
    @pytest.mark.parametrize("graph", [path_graph, star_graph,
                                       complete_graph])
    def test_generator_weight_that_is_not_a_number_named(self, graph,
                                                         weight):
        # float() read "2" as 2.0 and True as 1.0 before the edge rule saw
        # the weight; the rule refuses both, as it does in a graph file
        named = re.escape(f"edge (1, 2, {weight!r}) holds a value that is "
                          "not a number")
        with pytest.raises(ValueError, match=f"^{named}$"):
            graph(3, weight=weight)


class TestLaplacian:
    def test_path_two_nodes(self):
        np.testing.assert_allclose(laplacian(path_graph(2)),
                                   [[1.0, -1.0], [-1.0, 1.0]])

    def test_complete_three_nodes(self):
        ref = 3.0 * np.eye(3) - np.ones((3, 3))
        np.testing.assert_allclose(laplacian(complete_graph(3)), ref)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(21)
        g = random_tree_graph(rng, 7, extra_edges=4)
        L = laplacian(g)
        np.testing.assert_allclose(L @ np.ones(7), np.zeros(7), atol=1e-12)

    def test_subgraph_weights_option(self):
        g = GraphSpec(n=2, edges=[(1, 2, 3.0)], subgraph_edges=[(1, 2, 1.0)])
        assert laplacian(g)[0, 0] == 3.0
        assert laplacian(g, use_subgraph_weights=True)[0, 0] == 1.0


class TestOntoDecomposition:
    def test_path_uses_incidence(self):
        dec = onto_decomposition(path_graph(3))
        assert dec.source == "incidence"
        np.testing.assert_allclose(dec.M, [[1, 0], [-1, 1], [0, -1]])

    def test_complete_closed_form(self):
        g = complete_graph(5)
        dec = onto_decomposition(g)
        assert dec.source == "closed_form_complete"
        err = np.max(np.abs(dec.M @ dec.M.T - laplacian(g)))
        assert err <= 1e-10

    def test_eigen_factor_fallback(self):
        # weighted complete graph: neither a tree nor unit-weight complete
        g = complete_graph(4, weight=1.5)
        dec = onto_decomposition(g)
        assert dec.source == "cholesky"
        err = np.max(np.abs(dec.M @ dec.M.T - laplacian(g)))
        assert err <= 1e-10

    def test_random_trees_factor_exactly(self):
        rng = np.random.default_rng(22)
        for n in range(2, 13):
            g = random_tree_graph(rng, n)
            dec = onto_decomposition(g)
            assert dec.source == "incidence"
            lap = laplacian(g, use_subgraph_weights=True)
            assert np.max(np.abs(dec.M @ dec.M.T - lap)) <= 1e-10
            np.testing.assert_array_equal(dec.M.T @ np.ones(n), np.zeros(n - 1))


def hand_built_family(family, n, gamma, eta):
    """The sequential, star and complete schemes as their generators built
    them entry by entry, before sequential and star came from
    scheme_from_graph; the reference the generators must match bit for
    bit.  Returns (M, N, D_diag, E_diag, H, K, P, Q, R)."""
    M, N = np.zeros((n, n - 1)), np.zeros((n, n))
    HP = np.vstack([np.zeros((1, n - 1)), np.eye(n - 1)])
    KR = np.hstack([np.eye(n - 1), np.zeros((n - 1, 1))])
    E = np.full(n - 1, float(eta))
    if family == "sequential":
        for i in range(n - 1):
            M[i, i], M[i + 1, i], N[i + 1, i] = 1.0, -1.0, 2.0
        D = np.full(n, 2.0)
        D[0] = D[-1] = 1.0
    elif family == "star":
        for j in range(n - 1):
            M[0, j], M[j + 1, j], N[j + 1, 0] = 1.0, -1.0, 2.0
        D = np.ones(n)
        D[0] = n - 1.0
        KR = np.hstack([np.ones((n - 1, 1)), np.zeros((n - 1, n - 1))])
    else:
        idx = np.arange(1, n)
        a = np.sqrt((n - idx) * n / (n - idx + 1.0))
        t = -np.sqrt(n / ((n - idx) * (n - idx + 1.0)))
        HP = np.zeros((n, n - 1))
        for j in range(n - 1):
            M[j, j] = a[j]
            M[j + 1:, j] = t[j]
            HP[j + 1:, j] = 1.0 / (n - (j + 1))
        N = 2.0 * np.tri(n, n, -1)
        D = np.full(n, n - 1.0)
        E = float(eta) * a ** 2
    return M, N, D, E, HP, KR, HP.copy(), np.zeros((n, n - 1)), KR.copy()


class TestNamedFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILY_GENERATORS))
    def test_generators_match_hand_built_reference(self, family):
        for n in range(2, 11):
            for gamma, eta in ((1.0, 1.0), (0.37, 2.5e-3)):
                s = FAMILY_GENERATORS[family](n, gamma=gamma, eta=eta)
                got = (s.M, s.N, s.D_diag, s.E_diag, s.H, s.K, s.P, s.Q, s.R)
                for name, a, b in zip("M N D E H K P Q R".split(), got,
                                      hand_built_family(family, n, gamma,
                                                        eta)):
                    if family == "complete" and name in ("H", "P"):
                        # -t_j / a_j against 1/(n-j-1): 2 ulp at 1/5, n = 10
                        np.testing.assert_array_max_ulp(a, b, maxulp=2)
                    else:
                        assert np.array_equal(a, b)
                assert (s.n, s.m, s.r, s.p) == (n, n - 1, n - 1, n - 1)
                assert s.gamma == gamma and s.family == family

    def test_star_matrices(self):
        s = scheme_star(3)
        np.testing.assert_allclose(s.M, [[1, 1], [-1, 0], [0, -1]])
        np.testing.assert_allclose(s.N, [[0, 0, 0], [2, 0, 0], [2, 0, 0]])
        np.testing.assert_allclose(s.D_diag, [2, 1, 1])
        np.testing.assert_allclose(s.K, [[1, 0, 0], [1, 0, 0]])

    def test_complete_matrices(self):
        n = 4
        s = scheme_complete(n)
        np.testing.assert_allclose(s.N, 2.0 * np.tri(n, n, -1))
        np.testing.assert_allclose(s.D_diag, [3.0] * 4)
        # M factors the unit complete-graph Laplacian
        lap = n * np.eye(n) - np.ones((n, n))
        assert np.max(np.abs(s.M @ s.M.T - lap)) <= 1e-10
        # averaging weights below the diagonal of H
        np.testing.assert_allclose(s.H[:, 0], [0, 1 / 3, 1 / 3, 1 / 3])
        # E carries the squared diagonal factors
        np.testing.assert_allclose(s.E_diag, s.M.diagonal()[:n - 1] ** 2)

    def test_ring_two_nodes(self):
        s = scheme_ring(2)
        np.testing.assert_allclose(s.M, [[1.0], [-1.0]])
        np.testing.assert_allclose(s.N, [[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(s.D_diag, [1.0, 1.0])

    def test_ring_lipschitz_shape(self):
        s = scheme_ring(4, regime="lipschitz", p=2)
        assert np.all(s.P[2, :] == 1.0)
        assert np.all(s.Q[3, :] == 1.0)
        with pytest.raises(ValueError):
            scheme_ring(2, regime="lipschitz")

    def test_family_size_constraints(self):
        for gen in FAMILY_GENERATORS.values():
            with pytest.raises(ValueError):
                gen(1)

    @pytest.mark.parametrize("kw,named", [
        ({"n": 1}, "n = 1 must be >= 2"),
        ({"n": 2, "regime": "lipschitz"}, "n = 2 must be >= 3"),
        ({"n": 3, "r": -1}, "r = -1 must be >= 0"),
        ({"n": 3, "p": -1}, "p = -1 must be >= 0"),
    ], ids=["n_1", "lipschitz_n_2", "negative_r", "negative_p"])
    def test_ring_counts_refused_by_name(self, kw, named):
        # a negative r or p was numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=f"^{named}$"):
            scheme_ring(**kw)

    def test_ring_unknown_regime_named(self):
        with pytest.raises(ValueError, match="unknown regime 'monotone'"):
            scheme_ring(4, regime="monotone")


class TestSchemeFromGraph:
    def test_path_recovers_sequential(self):
        g = path_graph(4, weight=2.0)
        s = scheme_from_graph(g)
        ref = scheme_sequential(4)
        # weight-2 path: N and D match the sequential family exactly
        np.testing.assert_allclose(s.N, ref.N)
        np.testing.assert_allclose(s.D_diag, ref.D_diag)
        np.testing.assert_allclose(s.H, ref.H)
        np.testing.assert_allclose(s.K, ref.K)
        assert validate_standing(s, has_B=True, has_C=True).all_pass

    def test_star_graph_wiring(self):
        s = scheme_from_graph(star_graph(4))
        ref = scheme_star(4)
        np.testing.assert_allclose(s.M, ref.M)
        np.testing.assert_allclose(s.N, ref.N / 2.0)
        assert validate_standing(s, has_B=True, has_C=True).all_pass

    def test_non_tree_subgraph_gives_explicit_scheme(self):
        g = GraphSpec(n=4, edges=[(1, 2, 2.0), (1, 3, 1.0), (2, 3, 0.5),
                                  (2, 4, 1.0), (3, 4, 3.0)],
                      subgraph_edges=[(1, 2, 1.0), (1, 3, 1.0), (2, 3, 0.5),
                                      (3, 4, 2.0)])
        s = scheme_from_graph(g, gamma=0.4, eta=0.7)
        assert onto_decomposition(g).source == "cholesky"
        assert validate_standing(s, has_B=True, has_C=True).all_pass
        assert check_explicit(s)
        # the E from the pivots turns the dual term into eta * Lap_sub
        HK = s.H - s.K.T
        np.testing.assert_allclose(HK @ np.diag(s.E_diag) @ HK.T,
                                   0.7 * laplacian(g, True), atol=1e-12)

    def test_kappa_identity(self):
        # with the kappa scaling, 2D - N - N^T - M M^T = kappa * M M^T
        rng = np.random.default_rng(23)
        g = random_tree_graph(rng, 5)
        for kappa in (0.5, 1.0, 2.0):
            s = scheme_from_graph(g, kappa=kappa)
            lhs = 2.0 * s.D - s.N - s.N.T - s.M @ s.M.T
            np.testing.assert_allclose(lhs, kappa * s.M @ s.M.T, atol=1e-10)

    def test_kappa_psd_threshold(self):
        # Omega >= 0 exactly when (gamma / kappa) * eta * ||L||^2 <= 1
        kappa, eta, lnorm = 2.0, 1.0, 1.5
        g = path_graph(3)
        gamma_star = kappa / (eta * lnorm ** 2)
        L_list = [LinearMap(lnorm * np.eye(2))] * 2
        below = scheme_from_graph(g, gamma=0.99 * gamma_star, eta=eta,
                                  kappa=kappa)
        above = scheme_from_graph(g, gamma=1.01 * gamma_star, eta=eta,
                                  kappa=kappa)
        assert validate_psd(below, L_list, [1.0, 1.0], 2)["A320"]
        assert not validate_psd(above, L_list, [1.0, 1.0], 2)["A320"]

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(2, 7), extra=st.integers(0, 10),
           d=st.integers(2, 4), kappa=st.floats(0.25, 4.0),
           seed=st.integers(0, 2**32 - 1))
    def test_any_connected_subgraph(self, n, extra, d, kappa, seed):
        # weights spread over exp(-3)..exp(3); trees and graphs with cycles
        rng = np.random.default_rng(seed)
        g = GraphSpec(n=n, edges=[
            (i, j, float(np.exp(rng.uniform(-3.0, 3.0))))
            for i, j, _ in random_tree_graph(rng, n, extra).edges])
        gamma = float(rng.uniform(0.2, 2.0))
        s = scheme_from_graph(g, gamma=gamma, kappa=kappa)
        assert validate_standing(s, has_B=True, has_C=True).all_pass
        assert check_explicit(s)
        # Omega >= 0 exactly when gamma * eta * ||L||^2 <= kappa
        L = LinearMap(rng.standard_normal((d, d)))
        eta_star = kappa / (gamma * L.norm() ** 2)
        for factor, psd in ((0.99, True), (1.01, False)):
            s = scheme_from_graph(g, gamma, factor * eta_star, kappa=kappa)
            verdict = validate_psd(s, [L] * s.r, np.ones(s.p), d)
            assert verdict["A320"] is psd, factor

    def test_weighted_path_converges_where_unit_e_diverged(self):
        # E = eta * 1 on a weight-0.1 path (the rule before pivots) breaks
        # Omega >= 0 at eta = 0.95 eta_max; E = eta * w keeps it
        inst = desk_instance(0)
        pb = to_problem(inst)
        g = path_graph(6, weight=0.1)
        tau = compute_tau(compute_UW(scheme_from_graph(g, kappa=1.0)),
                          inst.lipschitz_constants, "cocoercive")
        bounds = step_bounds(tau, [difference_matrix(inst.d).norm()],
                             "cocoercive")
        gamma = bounds.gamma_max / 2.0
        eta = 0.95 * bounds.eta_max(gamma)
        s = scheme_from_graph(g, gamma, eta, kappa=1.0)
        unit = solve(s.replace(E_diag=np.full(s.r, eta)), pb)
        assert unit.stop_reason == "diverged"
        report = solve(s, pb, objective=lambda x: objective(inst, x))
        assert report.converged
        _, f_ref = reference_solve(inst)
        f = report.objective_history[-1][1]
        assert abs(f - f_ref) <= 1e-6 * abs(f_ref)

    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            scheme_from_graph(path_graph(3), kappa=0.0)


class TestLift:
    def test_first_and_last(self):
        pb = ProblemInstance(d=3, A_list=[zero_resolvent(3)])
        lifted = lift_with_artificial_zero(pb)
        assert lifted.n == 2
        v = np.arange(3.0)
        np.testing.assert_array_equal(lifted.A_list[0](0.5, v), v)
        lifted2 = lift_with_artificial_zero(pb, position="last")
        np.testing.assert_array_equal(lifted2.A_list[-1](0.5, v), v)
        with pytest.raises(ValueError):
            lift_with_artificial_zero(pb, position="middle")


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        g = random_tree_graph(rng, 5, extra_edges=2)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.n == g.n
        assert g2.edges == g.edges
        assert g2.subgraph_edges == g.subgraph_edges

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3}')
        with pytest.raises(ValueError):
            load_graph(path)

    @pytest.mark.parametrize("spec,entry", [
        ({"edges": [[1, 2, True], [2, 3, 1.0]]}, "[1, 2, True]"),
        ({"edges": [[True, 2, 1.0], [2, 3, 1.0]]}, "[True, 2, 1.0]"),
        ({"subgraph_edges": [[1, 2, 1.0], [2, 3, True]]}, "[2, 3, True]"),
        ({"edges": [[1, 2, "1"], [2, 3, 1.0]]}, "[1, 2, '1']")],
        ids=["bool_weight", "bool_vertex", "bool_subgraph_weight",
             "string_weight"])
    def test_non_number_entry_named(self, tmp_path, spec, entry):
        # json would load true as 1, a valid weight and vertex, and float()
        # reads "1" as 1.0
        data = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]], **spec}
        named = (f"edge {re.escape(entry)} holds a value that is not a "
                 "number$")
        with pytest.raises(ValueError, match="^" + named):
            GraphSpec(**data)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match="^malformed graph data: " + named):
            load_graph(path)

    @pytest.mark.parametrize("text,kind", [("[1, 2]", "list"),
                                           ("null", "NoneType")],
                             ids=["list", "null"])
    def test_file_that_is_not_an_object_named(self, tmp_path, text, kind):
        # these read as "list indices must be integers or slices, not str"
        # and "'NoneType' object is not subscriptable"
        path = tmp_path / "graph.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^malformed graph data: a graph "
                           f"file must hold a JSON object, not {kind}$"):
            load_graph(path)

    @pytest.mark.parametrize("edge", [[2, 3], 2, [1, 2, 1.0, 1.0]],
                             ids=["pair", "number", "quadruple"])
    def test_edge_that_is_not_a_triple_named(self, tmp_path, edge):
        # these read as "not enough values to unpack", "'int' object is not
        # iterable" and "too many values to unpack"
        data = {"n": 3, "edges": [[1, 2, 1.0], edge]}
        named = (f"edge {re.escape(repr(edge))} is not "
                 r"\[i, j, weight\]$")
        with pytest.raises(ValueError, match="^" + named):
            GraphSpec(**data)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match="^malformed graph data: " + named):
            load_graph(path)

    @pytest.mark.parametrize("spec,named", [
        ({"edges": 5}, "edges = 5"),
        ({"edges": {"1": [1, 2, 1.0]}}, "edges = {'1': [1, 2, 1.0]}"),
        ({"subgraph_edges": 0}, "subgraph_edges = 0"),
        ({"subgraph_edges": None}, "subgraph_edges = None")],
        ids=["number", "object", "zero_subgraph", "null_subgraph"])
    def test_edges_that_are_not_a_list_named(self, tmp_path, spec, named):
        # "edges": 5 read as "Value after * must be an iterable, not int",
        # and a subgraph_edges of 0 or null as no subgraph
        data = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]], **spec}
        named = re.escape(named) + " is not a list of edges$"
        with pytest.raises(ValueError, match="^" + named):
            GraphSpec(**data)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match="^malformed graph data: " + named):
            load_graph(path)
