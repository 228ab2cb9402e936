"""Coefficient schemes: the matrices M, N, D, E, H, K, P, Q, R together with
the step size gamma that parameterize one algorithm instance, plus the
validators and step-size calculus built on top of them.

A scheme acts on n primal copies of R^d, m auxiliary z-blocks, r dual blocks
and p single-valued operator slots.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .linalg import is_psd, pinv

__all__ = [
    "CoefficientScheme",
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
    "write_csv",
    "write_json",
    "scheme_to_dict",
    "scheme_from_dict",
    "save_scheme",
    "load_scheme",
]

STANDING_TOL = 1e-10
UW_RESIDUAL_TOL = 1e-8


@dataclass
class CoefficientScheme:
    """Matrix bundle for one algorithm instance.

    Shapes: M n-by-m, N n-by-n, H n-by-r, K r-by-n, P and Q n-by-p,
    R p-by-n; D_diag and E_diag hold the positive diagonals of D and E.
    Every entry must be finite.
    The sizes are read from M, E_diag and P, and every other matrix must
    have the shape they give.
    """

    n: int = field(init=False)
    m: int = field(init=False)
    r: int = field(init=False)
    p: int = field(init=False)
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
        dims = np.ndim(self.M), np.ndim(self.P), np.ndim(self.E_diag)
        if dims != (2, 2, 1):
            raise ValueError("M and P must be 2-D and E_diag 1-D")
        (n, m), r, p = np.shape(self.M), len(self.E_diag), np.shape(self.P)[1]
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        self.n, self.m, self.r, self.p = n, m, r, p
        shapes = {"M": (n, m), "N": (n, n), "D_diag": (n,), "E_diag": (r,),
                  "H": (n, r), "K": (r, n), "P": (n, p), "Q": (n, p),
                  "R": (p, n)}
        flat = []
        for name, shape in shapes.items():
            a = np.asarray(getattr(self, name), dtype=float)
            if a.size == 0 and 0 in shape:   # JSON stores it as a bare []
                a = a.reshape(shape)
            if a.shape != shape:
                raise ValueError(
                    f"{name} has shape {a.shape}, but n, m, r, p = {n}, {m}, "
                    f"{r}, {p} from M, E_diag and P need {shape}")
            setattr(self, name, a)
            flat.append(a.ravel())
        # one pass over every entry; the matrix is sought only on failure
        if not np.isfinite(np.concatenate(flat)).all():
            name = next(k for k, a in zip(shapes, flat)
                        if not np.isfinite(a).all())
            raise ValueError(f"{name} has a non-finite entry")
        if not (self.D_diag > 0).all():
            raise ValueError("D must be a strictly positive diagonal")
        if not (self.E_diag > 0).all():
            raise ValueError("E must be a strictly positive diagonal")
        if not 0 < _check_number("gamma", self.gamma) < np.inf:
            raise ValueError(f"gamma = {self.gamma} must lie in (0, inf)")

    @property
    def D(self):
        return np.diag(self.D_diag)

    @property
    def E(self):
        return np.diag(self.E_diag)

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


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
        self.tau = float(_check_constant("tau", self.tau))
        self.L_norms = [float(_check_constant(f"L_norms[{k}]", v))
                        for k, v in enumerate(self.L_norms)]

    @property
    def gamma_max(self):
        if self.tau == 0:
            return np.inf
        return 2.0 / self.tau if self.regime == "cocoercive" else 1.0 / self.tau

    def check_gamma(self, gamma):
        if not 0 < _check_number("gamma", gamma) < self.gamma_max:
            raise ValueError(
                f"gamma = {gamma} outside (0, {self.gamma_max}) for the "
                f"{self.regime} regime"
            )

    def eta_max(self, gamma):
        """1 / (gamma max_k ||L_k||^2).  This is the Omega >= 0 bound only
        for a kappa = 1 graph family, or a ring with r = 1, whose ||L_k||
        are equal; a ring with r > 1 needs gamma eta sum_k ||L_k||^2 <= 1,
        so there it overstates the bound.  validate_psd decides."""
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
        """The verdicts and all_pass; q_rows only when it was checked."""
        out = dataclasses.asdict(self)
        if self.q_rows is None:
            del out["q_rows"]
        out["all_pass"] = self.all_pass
        return out


def validate_standing(s, has_B, has_C, check_q=False):
    """Check the structural assumptions on a scheme.

    Items: (i) ones spans ker M^T and rank M = n - 1; (ii) the total N mass
    equals the D trace; (iii) the P/R row sums are all ones when C operators
    are present, otherwise P = R = 0; (iv) likewise for H (and K) with the
    B operators.  ``check_q`` adds the Q row-sum condition needed by the
    lipschitz regime.  Each holds up to STANDING_TOL.
    """
    ones = np.ones(s.n)

    def near(a, target=0.0):
        return bool(np.max(np.abs(a - target), initial=0.0) <= STANDING_TOL)

    kernel = near(s.M.T @ ones) and int(np.linalg.matrix_rank(s.M)) == s.n - 1
    trace = near(ones @ s.N @ ones, np.sum(s.D_diag))
    if has_C:
        pr_rows = (s.p > 0 and near(s.P.T @ ones, 1.0)
                   and near(s.R @ ones, 1.0))
    else:
        pr_rows = near(s.P) and near(s.R)
    if has_B:
        h_rows = s.r > 0 and near(s.H.T @ ones, 1.0)
    else:
        h_rows = near(s.H) and near(s.K)
    q_rows = s.p > 0 and near(s.Q.T @ ones, 1.0) if check_q else None
    return StandingReport(kernel, trace, pr_rows, h_rows, q_rows)


def check_explicit(s):
    """Whether the forward-substitution evaluation applies: N is strictly
    lower triangular and the products (P - Q) R, Q P^T and H K have no mass
    on or above the diagonal, so each x_i depends only on previously
    computed blocks.  Decided on nonzero patterns: a product of tiny
    entries can underflow to zero, a product of patterns cannot."""
    N, PQ, R, Q, P, H, K = (a != 0.0 for a in (s.N, s.P - s.Q, s.R, s.Q,
                                                s.P, s.H, s.K))
    return not any(np.triu(t).any() for t in (N, PQ @ R, Q @ P.T, H @ K))


def compute_UW(s, need_W=False):
    """Minimal-norm U and W with U M^T = P^T - R and W M^T = P^T - Q^T, via
    the pseudo-inverse of M^T, as the pair (U, W); W is None unless
    ``need_W``."""
    Mt_pinv = pinv(s.M.T)

    def solve_for(rhs, equation):
        X = rhs @ Mt_pinv
        res = np.max(np.abs(X @ s.M.T - rhs), initial=0.0)
        if res > UW_RESIDUAL_TOL:
            raise ValueError(f"{equation} is inconsistent (residual "
                             f"{res:.3e}); the scheme violates solvability")
        return X

    U = solve_for(s.P.T - s.R, "U M^T = P^T - R")
    W = solve_for(s.P.T - s.Q.T, "W M^T = P^T - Q^T") if need_W else None
    return U, W


def compute_tau(uw, ell, regime):
    """The interaction constant tau entering the gamma and lambda bounds,
    from the pair (U, W) of compute_UW.

    Cocoercive: ||diag(sqrt(ell)) U||_2^2.  Lipschitz: the same plus
    ||diag(sqrt(ell)) W||_2^2.
    """
    U, W = uw
    ell = _check_ell(ell, U.shape[0])
    if ell.size == 0:
        return 0.0
    root = np.sqrt(ell)
    # exact SVD here: these matrices are tiny and the gamma/lambda bounds
    # deserve full precision
    tau = np.linalg.norm(root[:, None] * U, 2) ** 2
    if regime == "lipschitz":
        if W is None:
            raise ValueError("lipschitz regime needs W; recompute with need_W")
        tau += np.linalg.norm(root[:, None] * W, 2) ** 2
    elif regime != "cocoercive":
        raise ValueError(f"unknown regime {regime!r}")
    return float(tau)


def assemble_omega(s, L_list, d):
    """The n-by-n matrix

        (2D - N - N^T - M M^T) - gamma * sum_k eta_k ||L_k||^2 h_k h_k^T

    with h_k the k-th column of H - K^T and eta_k = E_kk.  It stands for
    the paper's Omega = base (x) I_d - gamma sum_k eta_k (h_k h_k^T) (x)
    (L_k^T L_k); see validate_psd for when the two verdicts agree.  Each
    L_k must act on R^d."""
    sq = np.empty(s.r)
    for k in range(s.r):
        L = L_list[k]
        if L.in_dim != d:
            raise ValueError(f"L_{k} acts on dim {L.in_dim}, expected {d}")
        sq[k] = L.norm() ** 2
    HK = s.H - s.K.T
    base = 2.0 * s.D - s.N - s.N.T - s.M @ s.M.T
    return base - (HK * (s.gamma * s.E_diag * sq)) @ HK.T


def assemble_upsilons(s, ell):
    """The n-by-n interaction matrices

        Upsilon_1 = (P - Q) diag(ell) (P^T - Q^T)
                    + (P - R^T) diag(ell) (P^T - R)
        Upsilon_2 = (P - R^T) diag(ell) (P^T - R)

    both symmetric PSD, with Upsilon_1 - Upsilon_2 PSD as well."""
    ell = _check_ell(ell, s.p)
    PQ = s.P - s.Q
    PR = s.P - s.R.T
    ups2 = PR @ (ell[:, None] * PR.T)
    ups1 = PQ @ (ell[:, None] * PQ.T) + ups2
    return ups1, ups2


def validate_psd(s, L_list, ell, d):
    """Verdicts of the three positive-semidefiniteness conditions
    Omega >= 0, Omega - gamma*Upsilon_1 >= 0 and
    Omega - (gamma/2)*Upsilon_2 >= 0, decided on the n-by-n matrices of
    assemble_omega and assemble_upsilons at any d.

    Since L_k^T L_k <= ||L_k||^2 I_d, the n-by-n matrix lifted by (x) I_d
    lies below Omega, so a True verdict is sufficient for every L_k.  It is
    exact when L_k^T L_k = c_k^2 L^T L for one map L: in the eigenbasis of
    L^T L each Omega splits into n-by-n blocks that are smallest at the top
    singular value.  That covers fused lasso's one difference map and
    the scalar model L_k = c_k I."""
    omega = assemble_omega(s, L_list, d)
    ups1, ups2 = assemble_upsilons(s, ell)
    return {
        "A320": is_psd(omega),
        "A321": is_psd(omega - s.gamma * ups1),
        "A322": is_psd(omega - 0.5 * s.gamma * ups2),
    }


def step_bounds(tau, L_norms, regime):
    return StepBounds(tau=tau, regime=regime, L_norms=L_norms)


# --- JSON and CSV serialization ---------------------------------------------

_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _is_number(v, integer=False):
    """The one rule for "is v a number?", for options and file values: a
    Python or numpy int, or with integer False also a float.  A bool is
    none, though int() and float() read it as 1 or 0."""
    return (isinstance(v, (int, np.integer) if integer else _NUMBER_TYPES)
            and type(v) is not bool)


def _check_number(name, value, integer=False, low=None):
    """value, if it is a number (an integer with ``integer``) and, when
    ``low`` is given, at least low; anything else is refused by name."""
    if not _is_number(value, integer):
        raise ValueError(f"{name} = {value!r} is not "
                         + ("an integer" if integer else "a number"))
    if low is not None and not value >= low:
        raise ValueError(f"{name} = {value} must be >= {low}")
    return value


def _check_constant(name, value):
    """value, if it is a finite number >= 0: the one rule for a constant (an
    ell_j, a norm ||L_k||, an l1 or TV weight).  Else refused by name."""
    if not (_is_number(value) and 0 <= value < np.inf):
        raise ValueError(f"{name} = {value!r} is not a finite number >= 0")
    return value


def _check_ell(ell, p):
    """ell as a float array, if it holds p constants, one per C_j."""
    if len(ell) != p:
        raise ValueError(f"ell needs p = {p} entries, not {len(ell)}")
    return np.array([_check_constant(f"ell[{j}]", v)
                     for j, v in enumerate(ell)], dtype=float)


def _plain(v):
    """A numpy array or scalar as the Python value of its tolist(), for
    json.dumps; any other type it cannot write is refused."""
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps_json(obj):
    """Serialize with sorted keys, so identical data always produces
    identical bytes.  Each float is Python's shortest text that reads back
    as the same float (an integral one keeps its ".0", -0.0 its sign); NaN
    and infinities are refused."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, default=_plain)


def write_csv(path, rows, header=None):
    """Write rows through csv.writer, after an optional header: each Python
    float as its shortest text that reads back as the same float (as in
    dumps_json), None as an empty field, anything else through str (so a
    numpy float as numpy's print options give it), and a field that holds
    a comma, a quote or a newline quoted.  No field may hold a carriage
    return: Python 3.10 and 3.11 leave it unquoted, and readers end the row."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        if header is not None:
            out.writerow(header)
        out.writerows(rows)


def write_json(path, obj):
    """Write obj as one dumps_json line."""
    with open(path, "w") as fh:
        fh.write(dumps_json(obj) + "\n")


def scheme_to_dict(s):
    return {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}


def _from_json(name, annotation, value):
    """A loaded value of annotation "str" (family) if a string, of "float"
    (gamma, theta) as a float if a number, and a matrix as loaded if every
    entry is a number, for CoefficientScheme to convert and check.  Any
    other is refused by name."""
    text = annotation == "str"
    for v in np.asarray(value, dtype=object).ravel():   # the value or entries
        if not (isinstance(v, str) if text else _is_number(v)):
            raise ValueError(f"{name} holds {v!r}, which is not "
                             + ("a string" if text else "a number"))
    return float(value) if annotation == "float" else value


def scheme_from_dict(data):
    """Scheme from its dict form.  The sizes n, m, r and p are read from the
    matrices; stored ones must agree.  Files written while schemes carried a
    residual scale ``theta`` load when it is 1; any other value would change
    when a run stops, so it is rejected."""
    try:
        if not isinstance(data, dict):
            raise ValueError("a scheme file must hold a JSON object, not "
                             f"{type(data).__name__}")
        theta = _from_json("theta", "float", data.get("theta", 1.0))
        if theta != 1.0:
            raise ValueError(
                f"theta = {theta} is not supported; only theta = 1 loads")
        fields = dataclasses.fields(CoefficientScheme)
        s = CoefficientScheme(**{
            f.name: _from_json(f.name, f.type, data[f.name])
            for f in fields if f.init
            and (f.name in data or f.default is dataclasses.MISSING)})
        for name in (f.name for f in fields if not f.init):
            size = getattr(s, name)
            stored = data.get(name, size)
            if not _is_number(stored) or stored != size:
                raise ValueError(
                    f"{name} = {data[name]!r} but the matrices give {size}")
        return s
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed scheme data: {exc}") from exc


def save_scheme(s, path):
    write_json(path, scheme_to_dict(s))


def load_scheme(path):
    with open(path) as fh:
        return scheme_from_dict(json.load(fh))
