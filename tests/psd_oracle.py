"""The dense (n d)-by-(n d) Omega, built by applying each L_k to the unit
vectors, as it stood before the PSD conditions were decided on n-by-n
matrices.  Kept as the oracle for the n-by-n verdicts."""

import numpy as np

from graphsplit.linalg import is_psd
from graphsplit.scheme import assemble_upsilons

OMEGA_CAP = 2000


def assemble_omega(s, L_list, d):
    """Materialize the (n*d)-by-(n*d) matrix

        Omega = (2D - N - N^T - M M^T) (x) I_d
                - gamma * sum_k eta_k (h_k h_k^T) (x) (L_k^T L_k)

    with h_k the k-th column of H - K^T; n*d may not exceed OMEGA_CAP."""
    if s.n * d > OMEGA_CAP:
        raise ValueError(
            f"n*d = {s.n * d} exceeds the materialization cap {OMEGA_CAP}; "
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


def validate_psd(s, L_list, ell, d):
    """Verdicts of the three positive-semidefiniteness conditions on the
    dense Omega: Omega >= 0, Omega - gamma*Upsilon_1 >= 0,
    Omega - (gamma/2)*Upsilon_2 >= 0 (the Upsilon terms lifted by (x) I_d)."""
    omega = assemble_omega(s, L_list, d)
    ups1, ups2 = assemble_upsilons(s, ell)
    eye = np.eye(d)
    return {
        "A320": is_psd(omega),
        "A321": is_psd(omega - s.gamma * np.kron(ups1, eye)),
        "A322": is_psd(omega - 0.5 * s.gamma * np.kron(ups2, eye)),
    }
