"""Dense matrix and block-vector kernels.

Vectors living in a product space H^n are represented as :class:`BlockVector`
objects (an ordered list of real blocks).  The solver applies coefficient
matrices to blocks stacked as the rows of one array; ``kron_apply``, the
Kronecker lift ``M (x) Id`` on a BlockVector, remains for the benchmark's
instrumentation and the tests' reference evaluator.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BlockVector",
    "LinearMap",
    "kron_apply",
    "spectral_norm",
    "is_psd",
    "pinv",
]

# Defaults shared across the package.
PSD_TOL = 1e-10
PINV_CUTOFF = 1e-12
# the longest row (32 KiB of doubles) over which an elementwise call reads
# a per-row constant at full shape; see row_constant
ROW_MAX = 4096


class BlockVector:
    """Ordered list of real vectors, the elements of H^n or of a product
    of spaces G_1 x ... x G_r with mixed block dimensions."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = [np.asarray(b, dtype=float).reshape(-1) for b in blocks]

    @classmethod
    def zeros(cls, dims):
        return cls([np.zeros(d) for d in dims])

    @property
    def dims(self):
        return [b.size for b in self.blocks]

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def _check_conforming(self, other):
        if self.dims != other.dims:
            raise ValueError(
                f"block dimensions differ: {self.dims} vs {other.dims}"
            )

    def __add__(self, other):
        self._check_conforming(other)
        return BlockVector([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_conforming(other)
        return BlockVector([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        return BlockVector([float(scalar) * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def norm(self):
        return float(np.sqrt(sum(b @ b for b in self.blocks)))

    def __repr__(self):
        return f"BlockVector(dims={self.dims})"


def row_constant(col, width, full=None):
    """The (k, 1) column col of one value per row, as an elementwise call
    over k rows of ``width`` entries reads it fastest: 0-d for one value;
    at full shape (``full`` when given, else a new array) for rows of up to
    ROW_MAX entries, where broadcasting a column costs about twice the
    call; the column itself over longer rows, where a full-shape copy costs
    more in memory traffic than the broadcast does."""
    if col.size == 1:
        return np.array(col.item())
    if width > ROW_MAX:
        return col
    return np.repeat(col, width, axis=1) if full is None else full


def kron_apply(M, z):
    """Apply the Kronecker-lifted matrix ``M (x) Id`` to a block vector.

    ``M`` is n-by-m and ``z`` must have m blocks of a common dimension d; the
    result has n blocks of dimension d with block i equal to
    ``sum_j M[i, j] * z_j``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be a 2-D matrix")
    n, m = M.shape
    if len(z) != m:
        raise ValueError(f"expected {m} blocks, got {len(z)}")
    dims = z.dims
    if m > 0 and len(set(dims)) > 1:
        raise ValueError(f"blocks must share a common dimension, got {dims}")
    d = dims[0] if m > 0 else 0
    Z = np.stack(z.blocks) if m > 0 else np.zeros((0, d))
    return BlockVector(list(M @ Z))


class LinearMap:
    """Linear map backed by a dense matrix.  Any object with in_dim, out_dim,
    a call (apply), adjoint and norm() is a linear map to the package; this
    one applies the matrix, and its norm() is the exact spectral norm of the
    matrix (see spectral_norm), cached."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        self._norm = None

    @property
    def in_dim(self):
        return self.matrix.shape[1]

    @property
    def out_dim(self):
        return self.matrix.shape[0]

    def apply(self, x):
        return self.matrix @ x

    __call__ = apply

    def adjoint(self, y):
        return self.matrix.T @ y

    def norm(self):
        if self._norm is None:
            self._norm = spectral_norm(self.matrix)
        return self._norm


def spectral_norm(L):
    """Largest singular value of an array, exact: the square root of the
    largest eigenvalue of its Gram matrix on the smaller side (A A^T or
    A^T A, never larger than A); zero and empty arrays give 0.  A linear map
    has its own norm()."""
    A = LinearMap(L).matrix
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.sqrt(np.max(np.linalg.eigvalsh(G), initial=0.0)))


def is_psd(S):
    """Whether the smallest eigenvalue of a square matrix, symmetrized as
    (S + S^T)/2, is at least -PSD_TOL * (1 + max |S_ij|); an empty matrix
    is PSD."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    low = np.min(np.linalg.eigvalsh(0.5 * (S + S.T)), initial=0.0)
    return bool(low >= -PSD_TOL * (1.0 + np.max(np.abs(S), initial=0.0)))


def pinv(M):
    """Moore-Penrose pseudo-inverse with singular values below
    ``PINV_CUTOFF * sigma_max`` treated as zero."""
    return np.linalg.pinv(np.asarray(M, dtype=float), rcond=PINV_CUTOFF)
