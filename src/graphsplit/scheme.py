"""Coefficient schemes: the matrices M, N, D, E, H, K, P, Q, R together with
the step size gamma that parameterize one algorithm instance, plus the
validators and step-size calculus built on top of them.

A scheme acts on n primal copies of R^d, m auxiliary z-blocks, r dual blocks
and p single-valued operator slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .linalg import is_psd, pinv

__all__ = [
    "CoefficientScheme",
    "UWPair",
    "StepBounds",
    "StandingReport",
    "validate_standing",
    "check_explicit",
    "compute_UW",
    "compute_tau",
    "assemble_omega",
    "assemble_upsilons",
    "validate_psd",
    "step_bounds",
    "dumps_json",
    "scheme_to_dict",
    "scheme_from_dict",
    "save_scheme",
    "load_scheme",
]

STANDING_TOL = 1e-10
UW_RESIDUAL_TOL = 1e-8
OMEGA_CAP = 2000


def _mat(a, shape):
    out = np.asarray(a, dtype=float)
    if out.shape != shape:
        out = out.reshape(shape)
    return out


@dataclass
class CoefficientScheme:
    """Matrix bundle for one algorithm instance.

    Shapes: M n-by-m, N n-by-n, H n-by-r, K r-by-n, P and Q n-by-p,
    R p-by-n; D_diag and E_diag hold the positive diagonals of D and E.
    """

    n: int
    m: int
    r: int
    p: int
    M: np.ndarray
    N: np.ndarray
    D_diag: np.ndarray
    E_diag: np.ndarray
    H: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    gamma: float
    family: str = ""

    def __post_init__(self):
        n, m, r, p = self.n, self.m, self.r, self.p
        if n < 1 or m < 1 or r < 0 or p < 0:
            raise ValueError("need n >= 1, m >= 1, r, p >= 0")
        self.M = _mat(self.M, (n, m))
        self.N = _mat(self.N, (n, n))
        self.H = _mat(self.H, (n, r))
        self.K = _mat(self.K, (r, n))
        self.P = _mat(self.P, (n, p))
        self.Q = _mat(self.Q, (n, p))
        self.R = _mat(self.R, (p, n))
        self.D_diag = np.asarray(self.D_diag, dtype=float).reshape(-1)
        self.E_diag = np.asarray(self.E_diag, dtype=float).reshape(-1)
        if self.D_diag.size != n:
            raise ValueError("D_diag must have n entries")
        if self.E_diag.size != r:
            raise ValueError("E_diag must have r entries")
        if np.any(self.D_diag <= 0):
            raise ValueError("D must be a strictly positive diagonal")
        if r > 0 and np.any(self.E_diag <= 0):
            raise ValueError("E must be a strictly positive diagonal")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def D(self):
        return np.diag(self.D_diag)

    @property
    def E(self):
        return np.diag(self.E_diag)

    def replace(self, **kw):
        fields = dict(
            n=self.n, m=self.m, r=self.r, p=self.p, M=self.M, N=self.N,
            D_diag=self.D_diag, E_diag=self.E_diag, H=self.H, K=self.K,
            P=self.P, Q=self.Q, R=self.R, gamma=self.gamma,
            family=self.family,
        )
        fields.update(kw)
        return CoefficientScheme(**fields)


@dataclass
class UWPair:
    """Minimal-norm solutions of U M^T = P^T - R and W M^T = P^T - Q^T."""

    U: np.ndarray
    W: Optional[np.ndarray] = None


@dataclass
class StepBounds:
    """Admissible parameter ranges derived from tau and the ||L_k|| norms.

    Cocoercive regime: gamma in (0, 2/tau), lambda in [0, (2 - gamma*tau)/2].
    Lipschitz regime: gamma in (0, 1/tau), lambda in [0, 1 - gamma*tau].
    tau = 0 gives an unbounded gamma range.
    """

    tau: float
    regime: str
    L_norms: List[float] = field(default_factory=list)

    def __post_init__(self):
        if self.regime not in ("cocoercive", "lipschitz"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    @property
    def gamma_max(self):
        if self.tau == 0:
            return np.inf
        return 2.0 / self.tau if self.regime == "cocoercive" else 1.0 / self.tau

    def check_gamma(self, gamma):
        if not 0 < gamma < self.gamma_max:
            raise ValueError(
                f"gamma = {gamma} outside (0, {self.gamma_max}) for the "
                f"{self.regime} regime"
            )

    def eta_max(self, gamma):
        self.check_gamma(gamma)
        lmax = max(self.L_norms, default=0.0)
        if lmax == 0:
            return np.inf
        return 1.0 / (gamma * lmax ** 2)

    def lambda_max(self, gamma):
        self.check_gamma(gamma)
        if self.regime == "cocoercive":
            return (2.0 - gamma * self.tau) / 2.0
        return 1.0 - gamma * self.tau


@dataclass
class StandingReport:
    """Per-item verdicts of the structural scheme assumptions."""

    kernel: bool          # (i) M^T 1 = 0 and rank M = n - 1
    trace: bool           # (ii) 1^T N 1 = 1^T D 1
    pr_rows: bool         # (iii) P^T 1 = R 1 = 1, or P = R = 0 without C
    h_rows: bool          # (iv) H^T 1 = 1, or H = K = 0 without B
    q_rows: Optional[bool] = None   # Q^T 1 = 1, checked in the lipschitz regime

    @property
    def all_pass(self):
        base = self.kernel and self.trace and self.pr_rows and self.h_rows
        return base and (self.q_rows is not False)

    def as_dict(self):
        out = {
            "kernel": self.kernel,
            "trace": self.trace,
            "pr_rows": self.pr_rows,
            "h_rows": self.h_rows,
            "all_pass": self.all_pass,
        }
        if self.q_rows is not None:
            out["q_rows"] = self.q_rows
        return out


def validate_standing(s, has_B, has_C, tol=STANDING_TOL, check_q=False):
    """Check the structural assumptions on a scheme.

    Items: (i) ones spans ker M^T and rank M = n - 1; (ii) the total N mass
    equals the D trace; (iii) the P/R row sums are all ones when C operators
    are present, otherwise P = R = 0; (iv) likewise for H (and K) with the
    B operators.  ``check_q`` adds the Q row-sum condition needed by the
    lipschitz regime.
    """
    n = s.n
    ones = np.ones(n)
    kernel = bool(
        np.max(np.abs(s.M.T @ ones), initial=0.0) <= tol
        and np.linalg.matrix_rank(s.M) == n - 1
    )
    trace = bool(abs(ones @ s.N @ ones - np.sum(s.D_diag)) <= tol)
    if has_C:
        pr_rows = bool(
            s.p > 0
            and np.max(np.abs(s.P.T @ ones - 1.0), initial=0.0) <= tol
            and np.max(np.abs(s.R @ ones - 1.0), initial=0.0) <= tol
        )
    else:
        pr_rows = bool(
            np.max(np.abs(s.P), initial=0.0) <= tol
            and np.max(np.abs(s.R), initial=0.0) <= tol
        )
    if has_B:
        h_rows = bool(
            s.r > 0 and np.max(np.abs(s.H.T @ ones - 1.0), initial=0.0) <= tol
        )
    else:
        h_rows = bool(
            np.max(np.abs(s.H), initial=0.0) <= tol
            and np.max(np.abs(s.K), initial=0.0) <= tol
        )
    q_rows = None
    if check_q:
        q_rows = bool(
            s.p > 0 and np.max(np.abs(s.Q.T @ ones - 1.0), initial=0.0) <= tol
        )
    return StandingReport(kernel, trace, pr_rows, h_rows, q_rows)


def check_explicit(s, tol=0.0):
    """Triangularity flags for the forward-substitution evaluation.

    ``explicit`` holds when N is strictly lower triangular and the products
    (P - Q) R, Q P^T and H K have no mass on or above the diagonal, so each
    x_i depends only on previously computed blocks.  ``first_rows_zero``
    additionally requires the first rows of N, P, Q, H to vanish.
    """
    upper = np.triu(np.ones((s.n, s.n)))
    prods = (
        np.abs(s.N),
        np.abs(s.P - s.Q) @ np.abs(s.R),
        np.abs(s.Q) @ np.abs(s.P).T,
        np.abs(s.H) @ np.abs(s.K),
    )
    explicit = all(np.max(upper * t, initial=0.0) <= tol for t in prods)
    first_rows_zero = all(
        np.max(np.abs(a[0, :]), initial=0.0) <= tol
        for a in (s.N, s.P, s.Q, s.H)
    )
    return bool(explicit), bool(first_rows_zero)


def compute_UW(s, need_W=False):
    """Minimal-norm U (and optionally W) with U M^T = P^T - R and
    W M^T = P^T - Q^T, via the pseudo-inverse of M^T."""
    rhs_U = s.P.T - s.R
    if s.p == 0:
        return UWPair(U=np.zeros((0, s.m)),
                      W=np.zeros((0, s.m)) if need_W else None)
    Mt_pinv = pinv(s.M.T)
    U = rhs_U @ Mt_pinv
    res = np.max(np.abs(U @ s.M.T - rhs_U), initial=0.0)
    if res > UW_RESIDUAL_TOL:
        raise ValueError(
            f"U M^T = P^T - R is inconsistent (residual {res:.3e}); "
            "the scheme violates solvability"
        )
    W = None
    if need_W:
        rhs_W = s.P.T - s.Q.T
        W = rhs_W @ Mt_pinv
        res_w = np.max(np.abs(W @ s.M.T - rhs_W), initial=0.0)
        if res_w > UW_RESIDUAL_TOL:
            raise ValueError(
                f"W M^T = P^T - Q^T is inconsistent (residual {res_w:.3e})"
            )
    return UWPair(U=U, W=W)


def compute_tau(uw, ell, regime):
    """The interaction constant tau entering the gamma and lambda bounds.

    Cocoercive: ||diag(sqrt(ell)) U||_2^2.  Lipschitz: the same plus
    ||diag(sqrt(ell)) W||_2^2.
    """
    ell = np.asarray(ell, dtype=float).reshape(-1)
    if not np.all(np.isfinite(ell)):
        raise ValueError("Lipschitz constants must be finite")
    if np.any(ell < 0):
        raise ValueError("Lipschitz constants must be nonnegative")
    if uw.U.shape[0] != ell.size:
        raise ValueError("ell must have one entry per single-valued operator")
    if ell.size == 0:
        return 0.0
    root = np.sqrt(ell)
    # exact SVD here: these matrices are tiny and the gamma/lambda bounds
    # deserve full precision
    tau = np.linalg.norm(root[:, None] * uw.U, 2) ** 2
    if regime == "lipschitz":
        if uw.W is None:
            raise ValueError("lipschitz regime needs W; recompute with need_W")
        tau += np.linalg.norm(root[:, None] * uw.W, 2) ** 2
    elif regime != "cocoercive":
        raise ValueError(f"unknown regime {regime!r}")
    return float(tau)


def assemble_omega(s, L_list, d, cap=OMEGA_CAP):
    """Materialize the (n*d)-by-(n*d) matrix

        Omega = (2D - N - N^T - M M^T) (x) I_d
                - gamma * sum_k eta_k (h_k h_k^T) (x) (L_k^T L_k)

    with h_k the k-th column of H - K^T."""
    if s.n * d > cap:
        raise ValueError(
            f"n*d = {s.n * d} exceeds the materialization cap {cap}; "
            "use the scalar sufficient conditions for the named families"
        )
    base = 2.0 * s.D - s.N - s.N.T - s.M @ s.M.T
    omega = np.kron(base, np.eye(d))
    HK = s.H - s.K.T
    for k in range(s.r):
        L = L_list[k]
        if L.in_dim != d:
            raise ValueError(f"L_{k} acts on dim {L.in_dim}, expected {d}")
        A = np.column_stack([L(e) for e in np.eye(d)])
        h = HK[:, k]
        omega -= s.gamma * s.E_diag[k] * np.kron(np.outer(h, h), A.T @ A)
    return omega


def assemble_upsilons(s, ell):
    """The n-by-n interaction matrices

        Upsilon_1 = (P - Q) diag(ell) (P^T - Q^T)
                    + (P - R^T) diag(ell) (P^T - R)
        Upsilon_2 = (P - R^T) diag(ell) (P^T - R)

    both symmetric PSD, with Upsilon_1 - Upsilon_2 PSD as well."""
    ell = np.asarray(ell, dtype=float).reshape(-1)
    if ell.size != s.p:
        raise ValueError("ell must have p entries")
    PQ = s.P - s.Q
    PR = s.P - s.R.T
    ups2 = PR @ (ell[:, None] * PR.T)
    ups1 = PQ @ (ell[:, None] * PQ.T) + ups2
    return ups1, ups2


def validate_psd(s, L_list, ell, d, cap=OMEGA_CAP):
    """Verdicts of the three positive-semidefiniteness conditions:
    Omega >= 0, Omega - gamma*Upsilon_1 >= 0, Omega - (gamma/2)*Upsilon_2 >= 0
    (the Upsilon terms lifted by (x) I_d)."""
    omega = assemble_omega(s, L_list, d, cap=cap)
    ups1, ups2 = assemble_upsilons(s, ell)
    eye = np.eye(d)
    return {
        "A320": is_psd(omega),
        "A321": is_psd(omega - s.gamma * np.kron(ups1, eye)),
        "A322": is_psd(omega - 0.5 * s.gamma * np.kron(ups2, eye)),
    }


def step_bounds(tau, L_norms, regime):
    return StepBounds(tau=float(tau), regime=regime,
                      L_norms=[float(v) for v in L_norms])


# --- JSON serialization -----------------------------------------------------

def dumps_json(obj):
    """Serialize with sorted keys and floats at full %.17g precision, so
    identical data always produces identical bytes."""
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise ValueError("non-finite value in JSON output")
        return "%.17g" % v
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((str(k), v) for k, v in obj.items())
        return "{" + ", ".join(
            json.dumps(k) + ": " + dumps_json(v) for k, v in items
        ) + "}"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def scheme_to_dict(s):
    return {
        "n": s.n, "m": s.m, "r": s.r, "p": s.p,
        "gamma": s.gamma,
        "M": s.M, "N": s.N,
        "D_diag": s.D_diag, "E_diag": s.E_diag,
        "H": s.H, "K": s.K, "P": s.P, "Q": s.Q, "R": s.R,
        "family": s.family,
    }


def scheme_from_dict(data):
    """Scheme from its dict form.  Files written while schemes carried a
    residual scale ``theta`` load when it is 1; any other value would change
    when a run stops, so it is rejected."""
    try:
        n, m, r, p = (int(data[k]) for k in ("n", "m", "r", "p"))
        theta = float(data.get("theta", 1.0))
        if theta != 1.0:
            raise ValueError(
                f"theta = {theta} is not supported; only theta = 1 loads")
        return CoefficientScheme(
            n=n, m=m, r=r, p=p,
            M=np.asarray(data["M"], dtype=float).reshape(n, m),
            N=np.asarray(data["N"], dtype=float).reshape(n, n),
            D_diag=np.asarray(data["D_diag"], dtype=float),
            E_diag=np.asarray(data["E_diag"], dtype=float),
            H=np.asarray(data["H"], dtype=float).reshape(n, r),
            K=np.asarray(data["K"], dtype=float).reshape(r, n),
            P=np.asarray(data["P"], dtype=float).reshape(n, p),
            Q=np.asarray(data["Q"], dtype=float).reshape(n, p),
            R=np.asarray(data["R"], dtype=float).reshape(p, n),
            gamma=float(data["gamma"]),
            family=str(data.get("family", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed scheme data: {exc}") from exc


def save_scheme(s, path):
    with open(path, "w") as fh:
        fh.write(dumps_json(scheme_to_dict(s)))
        fh.write("\n")


def load_scheme(path):
    with open(path) as fh:
        return scheme_from_dict(json.load(fh))
