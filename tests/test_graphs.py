"""Graph specifications, Laplacian factorizations, and the named scheme
generators."""

import numpy as np
import pytest

from graphsplit import (GraphSpec, LinearMap, ProblemInstance, complete_graph,
                        laplacian, load_graph, onto_decomposition, path_graph,
                        save_graph, scheme_complete, scheme_from_graph,
                        scheme_ring, scheme_sequential, scheme_star,
                        star_graph, validate_psd, validate_standing,
                        zero_resolvent)
from graphsplit.fusedlasso import FAMILY_GENERATORS


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

    def test_complete_unit_detection(self):
        assert complete_graph(4).subgraph_is_complete_unit
        assert not complete_graph(4, weight=2.0).subgraph_is_complete_unit


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
        assert dec.source == "eigen_factor"
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
                for a, b in zip(got, hand_built_family(family, n, gamma,
                                                       eta)):
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

    def test_requires_spanning_tree_subgraph(self):
        with pytest.raises(ValueError):
            scheme_from_graph(complete_graph(3))

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
