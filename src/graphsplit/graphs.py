"""Weighted graphs and the scheme generators built on them: Laplacians,
incidence-based onto decompositions, and the named sequential / star /
complete / ring families."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .scheme import CoefficientScheme, write_json

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
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i - 1].append(j - 1)
        adj[j - 1].append(i - 1)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


@dataclass
class GraphSpec:
    """Weighted undirected connected graph with a designated connected
    subgraph.  Vertices are 1-indexed; edges are (i, j, weight) with i < j.
    Subgraph weights may not exceed the corresponding full weights."""

    n: int
    edges: List[Tuple[int, int, float]]
    subgraph_edges: List[Tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        self.edges = sorted((int(i), int(j), float(w)) for i, j, w in self.edges)
        if not self.subgraph_edges:
            self.subgraph_edges = list(self.edges)
        else:
            self.subgraph_edges = sorted(
                (int(i), int(j), float(w)) for i, j, w in self.subgraph_edges
            )
        full = {}
        for i, j, w in self.edges:
            if not (1 <= i < j <= self.n) or w <= 0:
                raise ValueError(f"bad edge ({i}, {j}, {w})")
            if (i, j) in full:
                raise ValueError(f"duplicate edge ({i}, {j})")
            full[(i, j)] = w
        for i, j, w in self.subgraph_edges:
            if (i, j) not in full:
                raise ValueError(f"subgraph edge ({i}, {j}) not in the graph")
            if w <= 0 or w > full[(i, j)] + 1e-12:
                raise ValueError(
                    f"subgraph weight {w} on ({i}, {j}) exceeds full weight"
                )
        if not _connected(self.n, self.edges):
            raise ValueError("graph is disconnected")
        if not _connected(self.n, self.subgraph_edges):
            raise ValueError("subgraph is disconnected")

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
    source: str  # incidence | closed_form_complete | eigen_factor


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


def _complete_factor(n):
    """The closed-form factor of the unit-weight complete graph's Laplacian:
    a_j on the diagonal of column j and t_j below it."""
    a, t = _complete_coeffs(n)
    M = np.where(np.tri(n, n - 1, -1, dtype=bool), t, 0.0)
    np.fill_diagonal(M, a)
    return M


def onto_decomposition(g):
    """Factor the subgraph Laplacian as M M^T with M of size n-by-(n-1).

    Trees use the oriented incidence matrix (edges point from lower to
    higher vertex index) with columns scaled by sqrt(weight); unit-weight
    complete graphs use the closed form; anything else falls back to an
    eigen-factorization with the zero eigenvalue dropped."""
    n = g.n
    if g.subgraph_is_tree:
        M = np.zeros((n, n - 1))
        for e, (i, j, w) in enumerate(g.subgraph_edges):
            s = np.sqrt(w)
            M[i - 1, e] = s
            M[j - 1, e] = -s
        return OntoDecomposition(M=M, source="incidence")
    if g.subgraph_is_complete_unit:
        return OntoDecomposition(M=_complete_factor(n),
                                 source="closed_form_complete")
    lam, V = np.linalg.eigh(laplacian(g, use_subgraph_weights=True))
    # ascending eigenvalues; drop the zero mode, order columns by
    # descending eigenvalue, make the first nonzero entry positive
    cols = []
    for k in range(n - 1, 0, -1):
        v = V[:, k] * np.sqrt(max(lam[k], 0.0))
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        cols.append(v)
    return OntoDecomposition(M=np.column_stack(cols), source="eigen_factor")


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
    """Complete-graph scheme with the non-uniform diagonal E = eta*diag(a_i^2)
    and averaging weights 1/(n-j) below the diagonal of H = P."""
    if n < 2:
        raise ValueError("need n >= 2")
    M = _complete_factor(n)
    HP = np.zeros((n, n - 1))
    for j in range(n - 1):
        HP[j + 1:, j] = 1.0 / (n - (j + 1))
    KR = np.hstack([np.eye(n - 1), np.zeros((n - 1, 1))])
    return CoefficientScheme(
        M=M, N=2.0 * np.tri(n, n, -1), D_diag=np.full(n, n - 1.0),
        E_diag=float(eta) * M.diagonal() ** 2, H=HP, K=KR, P=HP.copy(),
        Q=np.zeros((n, n - 1)), R=KR.copy(), gamma=gamma, family="complete",
    )


def scheme_ring(n, gamma=1.0, eta=1.0, regime="cocoercive", r=1, p=1):
    """Ring-graph scheme with D = I and the single-row H/P patterns.

    The cocoercive case (Q = 0) needs n >= 2; the monotone-Lipschitz case
    shifts the P mass up one row and puts ones in the last row of Q, and
    needs n >= 3."""
    if regime not in ("cocoercive", "lipschitz"):
        raise ValueError(f"unknown regime {regime!r}")
    if n < 2 or (regime == "lipschitz" and n < 3):
        raise ValueError(f"n = {n} too small for the {regime} case")
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
        M=M, N=N, D_diag=np.ones(n), E_diag=np.full(r, float(eta)),
        H=H, K=K, P=P, Q=Q, R=R, gamma=gamma, family=f"ring_{regime}",
    )


def scheme_from_graph(g, gamma=1.0, eta=1.0, kappa=None):
    """Scheme from a weighted graph whose subgraph is a spanning tree.

    N holds the full edge weights below the diagonal, D is half the weighted
    degree, M is the scaled tree incidence matrix, and H = P / K = R mark
    which node each tree edge enters / leaves.  With ``kappa`` set, the full
    weights are replaced by (kappa + 1) times the subgraph weights on the
    tree edges, the uniformly scaled family whose PSD margin grows with
    kappa."""
    if not g.subgraph_is_tree:
        raise ValueError("subgraph must be a spanning tree")
    edges = g.edges
    if kappa is not None:
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        edges = [(i, j, (kappa + 1.0) * w) for i, j, w in g.subgraph_edges]
    n = g.n
    N = np.zeros((n, n))
    deg = np.zeros(n)
    for i, j, w in edges:
        N[j - 1, i - 1] += w
        deg[i - 1] += w
        deg[j - 1] += w
    M = onto_decomposition(g).M
    HP = np.zeros((n, n - 1))
    KR = np.zeros((n - 1, n))
    for e, (i, j, _) in enumerate(g.subgraph_edges):
        HP[j - 1, e] = 1.0   # edge enters its higher-index endpoint
        KR[e, i - 1] = 1.0   # and leaves the lower-index one
    return CoefficientScheme(
        M=M, N=N, D_diag=deg / 2.0, E_diag=np.full(n - 1, float(eta)),
        H=HP, K=KR, P=HP.copy(), Q=np.zeros((n, n - 1)), R=KR.copy(),
        gamma=gamma, family="graph",
    )


def path_graph(n, weight=1.0):
    edges = [(i, i + 1, float(weight)) for i in range(1, n)]
    return GraphSpec(n=n, edges=edges)


def star_graph(n, weight=1.0):
    edges = [(1, j, float(weight)) for j in range(2, n + 1)]
    return GraphSpec(n=n, edges=edges)


def complete_graph(n, weight=1.0):
    edges = [(i, j, float(weight))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return GraphSpec(n=n, edges=edges)


def save_graph(g, path):
    write_json(path, dataclasses.asdict(g))


def load_graph(path):
    with open(path) as fh:
        data = json.load(fh)
    try:
        return GraphSpec(
            n=int(data["n"]),
            edges=[tuple(e) for e in data["edges"]],
            subgraph_edges=[tuple(e) for e in data.get("subgraph_edges", [])],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph data: {exc}") from exc
