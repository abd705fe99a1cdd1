"""Shared oracles for the test suite.

These are deliberately written against the element-level API (explicit
products, adjoints, basis expansion), or as the full basis-pair sweeps
and per-index loops that the library replaced with generator checks and
stacked products, so they can serve as independent references.
"""

from __future__ import annotations

import numpy as np

from cpdilate.cpmaps import CPBlockMap
from cpdilate.linalg import max_rel_residual, rel_residual


def brute_force_gram(cp: CPBlockMap) -> np.ndarray:
    """Double-loop Gram of the raw-space form, entry by entry.

    Row (i, alpha, beta), column (j, alpha2, beta2) gets
    ``<e_beta, phi_ij(e_alpha* e_alpha2) e_beta2>`` computed through
    actual element arithmetic and linear basis expansion.
    """
    alg = cp.algebra
    n, dim_a, h1 = cp.n, alg.dim, cp.h1
    labels = [(i, a, b) for i in range(n) for a in range(dim_a) for b in range(h1)]
    raw = len(labels)
    gram = np.zeros((raw, raw), dtype=complex)
    basis = [alg.basis_element(a) for a in range(dim_a)]
    for row, (i, alpha, beta) in enumerate(labels):
        left = basis[alpha].adjoint()
        for col, (j, alpha2, beta2) in enumerate(labels):
            prod = left * basis[alpha2]
            mat = apply_phi_oracle(cp, i, j, prod)
            gram[row, col] = mat[beta, beta2]
    return gram


def apply_phi_oracle(cp: CPBlockMap, i: int, j: int, a) -> np.ndarray:
    """phi_ij(a) by explicit per-coefficient summation."""
    acc = np.zeros((cp.h1, cp.h1), dtype=complex)
    for alpha, (b, p, q) in enumerate(cp.algebra.basis_labels):
        coeff = a.blocks[b][p, q]
        if coeff != 0.0:
            acc = acc + coeff * cp.action[i, j, alpha]
    return acc


def transpose_map(n_slots: int = 1) -> CPBlockMap:
    """phi_11 = matrix transpose on M2, all other slots zero: the
    standard non-completely-positive reference point."""
    from cpdilate.algebra import AlgebraDescriptor

    desc = AlgebraDescriptor((2,))
    action = np.zeros((n_slots, n_slots, 4, 2, 2), dtype=complex)
    for alpha, (_, p, q) in enumerate(desc.basis_labels):
        action[0, 0, alpha, q, p] = 1.0  # e_pq -> e_qp
    return CPBlockMap(desc, n_slots, 2, action)


def scalar_family(n: int, entries) -> CPBlockMap:
    """A = C, h1 = 1: phi_ij multiplies by entries[i][j]."""
    from cpdilate.algebra import AlgebraDescriptor

    desc = AlgebraDescriptor((1,))
    action = np.asarray(entries, dtype=complex).reshape(n, n, 1, 1, 1)
    return CPBlockMap(desc, n, 1, action)


def pi_multiplicativity_oracle(alg, pi: np.ndarray) -> float:
    """Full sweep of ``pi(e_alpha) pi(e_beta) = pi(e_alpha e_beta)`` over
    every basis pair, through the algebra's product table."""
    worst = 0.0
    for alpha, row in enumerate(alg.product_table):
        expected = np.zeros_like(pi)
        mask = row >= 0
        expected[mask] = pi[row[mask]]
        worst = max(worst, max_rel_residual(np.matmul(pi[alpha], pi), expected))
    return worst


def psi_module_action_oracle(mod, pi: np.ndarray, psi: np.ndarray) -> float:
    """Full sweep of ``Psi(f_gamma) pi(e_alpha) = Psi(f_gamma . e_alpha)``
    over every basis pair, through the module's action table."""
    worst = 0.0
    for alpha, row in enumerate(mod.action_table.T):
        expected = np.zeros_like(psi)
        mask = row >= 0
        expected[mask] = psi[row[mask]]
        worst = max(worst, max_rel_residual(np.matmul(psi, pi[alpha]), expected))
    return worst


def compatibility_oracle(inst) -> float:
    """``Phi_i(f)* Phi_j(g) = phi_ij(<f, g>)`` slot pair by slot pair."""
    inner = inst.module.inner_table
    mask = inner >= 0
    worst = 0.0
    for i in range(inst.n):
        for j in range(inst.n):
            lhs = np.einsum("gax,day->gdxy", inst.tup.action[i].conj(), inst.tup.action[j])
            expected = np.zeros_like(lhs)
            expected[mask] = inst.cp.action[i, j][inner[mask]]
            worst = max(worst, max_rel_residual(lhs, expected))
    return worst


def intertwine_oracle(u1, u2, data_a, data_b) -> dict[str, float]:
    """The four intertwining residuals of an equivalence witness, one
    matrix at a time."""
    def worst(pairs):
        return max((rel_residual(a, b) for a, b in pairs), default=0.0)

    u2_h2 = data_b.k2_embed @ u2 @ data_a.k2_embed.conj().T
    return {
        "u1_S_intertwine": worst((u1 @ a, b) for a, b in zip(data_a.s_ops, data_b.s_ops)),
        "u1_pi_intertwine": worst(
            (u1 @ a, b @ u1) for a, b in zip(data_a.pi_action, data_b.pi_action)
        ),
        "u2_psi_intertwine": worst(
            (u2 @ a, b @ u1) for a, b in zip(data_a.psi_action, data_b.psi_action)
        ),
        "u2_W_intertwine": worst(
            (u2_h2 @ a.conj().T @ a, b.conj().T @ b)
            for a, b in zip(data_a.w_ops, data_b.w_ops)
        ),
    }
