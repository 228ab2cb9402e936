"""Weighted graphs and the scheme generators built on them: Laplacians,
onto decompositions, scheme_from_graph, and the named sequential / star /
complete families it builds, beside the ring family."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .scheme import CoefficientScheme, _check_number, _is_number, write_json

__all__ = [
    "GraphSpec",
    "OntoDecomposition",
    "laplacian",
    "onto_decomposition",
    "scheme_sequential",
    "scheme_star",
    "scheme_complete",
    "scheme_ring",
    "scheme_from_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "save_graph",
    "load_graph",
]


def _connected(n, edges):
    """Whether the edges join the vertices 1..n into one component; fewer
    than n - 1 edges cannot, and are refused before any O(n) work."""
    if len(edges) < n - 1:
        return False
    adj = [[] for _ in range(n + 1)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {1}, [1]
    while stack:
        new = set(adj[stack.pop()]) - seen
        seen |= new
        stack += new
    return len(seen) == n


def _edge_list(name, edges, n):
    """The (i, j, weight) triples sorted, each with integers
    1 <= i < j <= n and a positive finite weight, and no (i, j) twice.  A
    value that is not a list, an edge that is not [i, j, weight] and an
    entry that is not a number are refused by name."""
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"{name} = {edges!r} is not a list of edges")
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ValueError(f"edge {e!r} is not [i, j, weight]")
        if not all(map(_is_number, e)):
            raise ValueError(f"edge {e!r} holds a value that is not a "
                             "number")
    out = sorted((float(i), float(j), float(w)) for i, j, w in edges)
    last = None
    for i, j, w in out:
        if not (i.is_integer() and j.is_integer() and 1 <= i < j <= n
                and 0 < w < np.inf):
            raise ValueError(f"bad {name} entry ({i:g}, {j:g}, {w:g}): need "
                             f"integers 1 <= i < j <= n = {n} and a positive "
                             "finite weight")
        if last == (i, j):
            raise ValueError(f"duplicate {name} entry ({i:g}, {j:g})")
        last = i, j
    return [(int(i), int(j), w) for i, j, w in out]


@dataclass
class GraphSpec:
    """Weighted undirected graph with a designated connected spanning
    subgraph, the whole graph when none is given.  Vertices are 1-indexed;
    edges are (i, j, weight) with i < j.  Subgraph weights may not exceed
    the corresponding full weights."""

    n: int
    edges: List[Tuple[int, int, float]]
    subgraph_edges: List[Tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        if not _is_number(self.n) or self.n < 2 \
                or not float(self.n).is_integer():
            raise ValueError(f"n = {self.n!r} must be an integer >= 2")
        self.n = int(self.n)
        self.edges = _edge_list("edges", self.edges, self.n)
        sub = _edge_list("subgraph_edges", self.subgraph_edges, self.n)
        self.subgraph_edges = sub or list(self.edges)
        if sub:
            full = {(i, j): w for i, j, w in self.edges}
            for i, j, w in self.subgraph_edges:
                if (i, j) not in full:
                    raise ValueError(
                        f"subgraph edge ({i}, {j}) not in the graph")
                if w > full[(i, j)] + 1e-12:
                    raise ValueError(f"subgraph weight {w} on ({i}, {j}) "
                                     "exceeds full weight")
        if not _connected(self.n, self.subgraph_edges):
            raise ValueError(("subgraph" if sub else "graph")
                             + " is disconnected")

    @property
    def subgraph_is_tree(self):
        return len(self.subgraph_edges) == self.n - 1

    @property
    def subgraph_is_complete_unit(self):
        if len(self.subgraph_edges) != self.n * (self.n - 1) // 2:
            return False
        return all(w == 1.0 for _, _, w in self.subgraph_edges)


@dataclass
class OntoDecomposition:
    """Factor M with M M^T equal to the subgraph Laplacian and M^T 1 = 0."""

    M: np.ndarray
    source: str  # incidence | closed_form_complete | cholesky


def laplacian(g, use_subgraph_weights=False):
    """Weighted Laplacian Deg - W of the graph (or of its subgraph)."""
    edges = g.subgraph_edges if use_subgraph_weights else g.edges
    L = np.zeros((g.n, g.n))
    for i, j, w in edges:
        a, b = i - 1, j - 1
        L[a, a] += w
        L[b, b] += w
        L[a, b] -= w
        L[b, a] -= w
    return L


def _complete_coeffs(n):
    """Diagonal and below-diagonal entries of the closed-form factor for the
    unit-weight complete graph: a_i = sqrt((n-i)n/(n-i+1)),
    t_j = -sqrt(n/((n-j)(n-j+1))) for 1-indexed i, j up to n-1."""
    idx = np.arange(1, n)
    a = np.sqrt((n - idx) * n / (n - idx + 1.0))
    t = -np.sqrt(n / ((n - idx) * (n - idx + 1.0)))
    return a, t


def onto_decomposition(g):
    """Factor the subgraph Laplacian as M M^T with M of size n-by-(n-1).

    Trees use the oriented incidence matrix (edges point from lower to
    higher vertex index) with columns scaled by sqrt(weight); unit-weight
    complete graphs use the closed form; any other subgraph stacks the
    Cholesky factor C of the Laplacian's leading (n-1)-block over
    -1^T C, since the Laplacian's rows sum to zero.  The first nonzero of
    each column is positive: the diagonal in the last two."""
    n = g.n
    if g.subgraph_is_tree:
        M = np.zeros((n, n - 1))
        for e, (i, j, w) in enumerate(g.subgraph_edges):
            s = np.sqrt(w)
            M[i - 1, e] = s
            M[j - 1, e] = -s
        return OntoDecomposition(M=M, source="incidence")
    if g.subgraph_is_complete_unit:   # a_j on the diagonal, t_j below it
        a, t = _complete_coeffs(n)
        M = np.where(np.tri(n, n - 1, -1, dtype=bool), t, 0.0)
        np.fill_diagonal(M, a)
        return OntoDecomposition(M=M, source="closed_form_complete")
    C = np.linalg.cholesky(laplacian(g, use_subgraph_weights=True)[:-1, :-1])
    # LAPACK leaves some zeros as -0; adding 0 makes them 0
    return OntoDecomposition(M=np.vstack([C, -C.sum(axis=0)]) + 0.0,
                             source="cholesky")


def scheme_sequential(n, gamma=1.0, eta=1.0):
    """Path-graph scheme: information flows through nodes 1 -> n in order.
    It is scheme_from_graph on the unit path with kappa = 1."""
    s = scheme_from_graph(path_graph(n), gamma, eta, kappa=1.0)
    s.family = "sequential"
    return s


def scheme_star(n, gamma=1.0, eta=1.0):
    """Star-graph scheme: node 1 is the hub and averages the z blocks.
    It is scheme_from_graph on the unit star with kappa = 1."""
    s = scheme_from_graph(star_graph(n), gamma, eta, kappa=1.0)
    s.family = "star"
    return s


def scheme_complete(n, gamma=1.0, eta=1.0):
    """Complete-graph scheme: every node averages all earlier ones.  It is
    scheme_from_graph on the unit complete graph with kappa = 1, so
    E = eta * diag(a_j^2) from the closed-form factor's diagonal and H = P
    holds 1/(n-j) below the diagonal of column j (1-indexed)."""
    s = scheme_from_graph(complete_graph(n), gamma, eta, kappa=1.0)
    s.family = "complete"
    return s


def scheme_ring(n, gamma=1.0, eta=1.0, regime="cocoercive", r=1, p=1):
    """Ring-graph scheme with D = I and the single-row H/P patterns.

    The cocoercive case (Q = 0) needs n >= 2; the monotone-Lipschitz case
    shifts the P mass up one row and puts ones in the last row of Q, and
    needs n >= 3."""
    if regime not in ("cocoercive", "lipschitz"):
        raise ValueError(f"unknown regime {regime!r}")
    for name, v, low in (("n", n, 2 if regime == "cocoercive" else 3),
                         ("r", r, 0), ("p", p, 0)):
        _check_number(name, v, integer=True, low=low)
    M = np.zeros((n, n - 1))
    N = np.zeros((n, n))
    for i in range(n - 1):
        M[i, i] = 1.0
        M[i + 1, i] = -1.0
        N[i + 1, i] += 1.0
    N[n - 1, 0] += 1.0
    H = np.zeros((n, r))
    H[n - 1, :] = 1.0
    K = np.zeros((r, n))
    K[:, 0] = 1.0
    P = np.zeros((n, p))
    Q = np.zeros((n, p))
    R = np.zeros((p, n))
    if p > 0:
        R[:, 0] = 1.0
        if regime == "cocoercive":
            P[n - 1, :] = 1.0
        else:
            P[n - 2, :] = 1.0
            Q[n - 1, :] = 1.0
    return CoefficientScheme(
        M=M, N=N, D_diag=np.ones(n),
        E_diag=np.full(r, float(_check_number("eta", eta))),
        H=H, K=K, P=P, Q=Q, R=R, gamma=gamma, family=f"ring_{regime}",
    )


def scheme_from_graph(g, gamma=1.0, eta=1.0, kappa=None):
    """Scheme from a weighted graph and its connected spanning subgraph.

    N holds the full edge weights below the diagonal, D is half the weighted
    degree and M = onto_decomposition(g).M.  Each column e of M gives one
    dual block: with p(e) the row of its first nonzero, K_e = R_e = e_p(e),
    H = P = K^T - M / M[p(e), e] (zero down to row p(e), so the scheme is
    explicit), Q = 0 and E_e = eta * M[p(e), e]^2.  Then H^T 1 = 1 follows
    from M^T 1 = 0, and sum_e E_e (H - K^T)_e (H - K^T)_e^T = eta M M^T.

    With ``kappa`` set, the full weights are replaced by (kappa + 1) times
    the subgraph weights, so that 2D - N - N^T - M M^T = kappa M M^T, and
    Omega is PSD exactly when gamma * eta * ||L||^2 <= kappa for one map L
    in every L_k, at any weights.  Without it no such bound is exact."""
    _check_number("eta", eta)
    if kappa is not None and _check_number("kappa", kappa) <= 0:
        raise ValueError("kappa must be positive")
    scale = 1.0 if kappa is None else kappa + 1.0
    N = np.zeros((g.n, g.n))
    for i, j, w in g.edges if kappa is None else g.subgraph_edges:
        N[j - 1, i - 1] = scale * w
    M = onto_decomposition(g).M
    rows = (M != 0).argmax(axis=0)   # p(e) per column e
    pivots = M[rows, np.arange(M.shape[1])]
    K = np.eye(g.n)[rows]
    H = K.T - M / pivots
    return CoefficientScheme(
        M=M, N=N, D_diag=(N.sum(axis=0) + N.sum(axis=1)) / 2.0,
        E_diag=float(eta) * pivots ** 2,
        H=H, K=K, P=H.copy(), Q=np.zeros(H.shape), R=K.copy(),
        gamma=gamma, family="graph",
    )


def path_graph(n, weight=1.0):
    n = _check_number("n", n, integer=True, low=2)
    edges = [(i, i + 1, weight) for i in range(1, n)]
    return GraphSpec(n=n, edges=edges)


def star_graph(n, weight=1.0):
    n = _check_number("n", n, integer=True, low=2)
    edges = [(1, j, weight) for j in range(2, n + 1)]
    return GraphSpec(n=n, edges=edges)


def complete_graph(n, weight=1.0):
    n = _check_number("n", n, integer=True, low=2)
    edges = [(i, j, weight)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return GraphSpec(n=n, edges=edges)


def save_graph(g, path):
    write_json(path, dataclasses.asdict(g))


def load_graph(path):
    """Graph from a file written by save_graph.  A file that does not hold
    a JSON object is refused by name, and so is every edge that GraphSpec
    refuses."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        if not isinstance(data, dict):
            raise ValueError("a graph file must hold a JSON object, not "
                             f"{type(data).__name__}")
        return GraphSpec(n=data["n"], edges=data["edges"],
                         subgraph_edges=data.get("subgraph_edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph data: {exc}") from exc
