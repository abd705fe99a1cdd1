"""Joint Stinespring dilation of a compatible (cp family, module tuple) pair.

The construction is the finite-dimensional GNS-style quotient of the raw
space, the n-fold direct sum of ``A (x) H1``, by the null space of the
form ``<(a_i (x) xi_i), (b_j (x) eta_j)> = sum_ij <xi_i, phi_ij(a_i* b_j) eta_j>``.
For ``A = M_{d_1} + ... + M_{d_m}`` the matrix-unit relations split that
form into a direct sum, so nothing is ever factored on the raw space:

1.  ``(e^b_pq)* e^b'_p'q' = delta_bb' delta_pp' e^b_qq'``, so in slot i the
    raw vectors ``e^b_pq (x) e_beta`` with a fixed (b, p) pair only with
    each other, and their Gram block is the compressed Choi matrix
    ``C_b[(i, q, beta), (j, q', beta')] = phi_ij(e^b_qq')[beta, beta']``
    for every row p.  The raw Gram matrix is therefore a permuted direct
    sum of d_b copies of each C_b; it is PSD exactly when the family is
    completely n-positive.
2.  Each C_b is factored once, ``C_b = F_b* F_b``, by eigenvalue
    truncation at a cutoff relative to the largest eigenvalue over all
    blocks (the largest eigenvalue of the whole Gram).  The quotient is
    ``K1 = sum_b C^{d_b} (x) C^{rank_b}`` (dimension r1 = sum_b d_b rank_b),
    and the raw vector ``e^b_pq (x) e_beta`` in slot i maps to
    ``e_p (x) F_b[:, (i, q, beta)]``.
3.  Left multiplication sends ``e^b_pq`` to ``delta_sp e^b_rq`` under
    ``e^b_rs``, so ``pi(e^b_rs) = E_rs (x) 1`` on the block-b summand, in
    closed form; the slot maps S_i are the F_b columns over the unit.
4.  Likewise ``f^b_rq . e^b_pq' = delta_qp f^b_rq'``, so on
    ``K2 = sum_b C^{k_b} (x) C^{rank_b}`` the module map is
    ``Psi(f^b_rq) = E_rq (x) 1``.  The embedding of K2 into H2 must send
    ``e_r (x) F_b[:, (i, q, beta)]`` to ``Phi_i(f^b_rq) e_beta``; it is one
    small least-squares solve per (b, r) against F_b, which compatibility
    makes consistent and isometric.  A large solve residual means the
    input was not a valid instance and is reported as a well-definedness
    failure.  The W_i are coisometries onto the per-slot ranges.

Everything is verified basis-by-basis: all asserted identities are
sesquilinear or multiplicative in their arguments, so checking canonical
basis (pairs) is equivalent to checking all elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cpmaps import CPBlockMap, Instance, ModuleCPTuple, amplified_units
from .errors import ShapeMismatchError, WellDefinednessError
from .linalg import (
    DEFAULT_CUTOFF,
    DEFAULT_TOL,
    hermitian_eig,
    matrix_norms,
    numerical_rank,
    rank_truncate,
    rel_residual,
    svd_orthobasis,
)

__all__ = [
    "GramFactorization",
    "DilationData",
    "VerificationReport",
    "build_gram",
    "build_pi",
    "build_S",
    "build_psi",
    "build_W",
    "dilate",
    "verify_dilation",
]


@dataclass(eq=False)
class GramFactorization:
    """Blockwise factorization of the raw-space Gram matrix.

    ``block_factors[b]`` is ``F_b`` of shape (rank_b, n * d_b * h1) with
    ``F_b* F_b = cp.choi_block(b)`` to cutoff accuracy and orthogonal
    rows.  ``gram`` and ``factor`` (shape (r1, raw_dim), with
    ``F* F = gram``; applied to raw coordinates it is the quotient map
    onto K1) assemble the dense raw-space matrices on first access; the
    construction itself never reads them.
    """

    cp: CPBlockMap = field(repr=False)
    block_factors: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.block_factors)

    @property
    def raw_dim(self) -> int:
        return self.cp.n * self.cp.algebra.dim * self.cp.h1

    @property
    def r1(self) -> int:
        return sum(d * r for d, r in zip(self.cp.algebra.block_dims, self.ranks))

    def _raw_indices(self, b: int) -> np.ndarray:
        """Raw-space indices of block b, one row per p, each row listing
        ``(i, e^b_pq, beta)`` in the Choi order (i, q, beta)."""
        alg, h1 = self.cp.algebra, self.cp.h1
        d = alg.block_dims[b]
        off = sum(dd * dd for dd in alg.block_dims[:b])
        i, p, q, beta = np.ix_(range(self.cp.n), range(d), range(d), range(h1))
        raw = (i * alg.dim + off + p * d + q) * h1 + beta
        return raw.transpose(1, 0, 2, 3).reshape(d, -1)

    @cached_property
    def gram(self) -> np.ndarray:
        """Dense raw-space Gram matrix, assembled from the Choi blocks."""
        gram = np.zeros((self.raw_dim, self.raw_dim), dtype=complex)
        for b in range(self.cp.algebra.nblocks):
            choi = self.cp.choi_block(b)
            for idx in self._raw_indices(b):
                gram[np.ix_(idx, idx)] = choi
        return gram

    @cached_property
    def factor(self) -> np.ndarray:
        """Dense raw-space factor, rows in K1 order (block, p, k)."""
        factor = np.zeros((self.r1, self.raw_dim), dtype=complex)
        row = 0
        for b, f in enumerate(self.block_factors):
            for idx in self._raw_indices(b):
                factor[row : row + len(f), idx] = f
                row += len(f)
        return factor


@dataclass(eq=False)
class DilationData:
    """Minimal joint Stinespring data for one instance.

    ``pi_action[alpha]`` is the representation on K1 evaluated at the
    algebra unit alpha, ``s_ops[i]`` maps H1 into K1, ``psi_action[gamma]``
    maps K1 into K2 coordinates, ``k2_embed`` isometrically embeds K2
    into H2, and ``w_ops[i]`` holds an orthonormal row basis of the
    per-slot range inside H2 (a coisometry from H2).
    """

    r1: int
    r2: int
    pi_action: np.ndarray = field(repr=False)   # (dim_A, r1, r1)
    s_ops: np.ndarray = field(repr=False)       # (n, r1, h1)
    psi_action: np.ndarray = field(repr=False)  # (dim_V, r2, r1)
    k2_embed: np.ndarray = field(repr=False)    # (h2, r2)
    w_ops: tuple[np.ndarray, ...] = field(repr=False)  # each (k2i, h2)
    k2i_dims: tuple[int, ...]
    pi_welldef: float = 0.0
    psi_welldef: float = 0.0


_RESIDUAL_NAMES = (
    "phi_reconstruction",
    "Phi_reconstruction",
    "pi_multiplicativity",
    "pi_star",
    "pi_unital",
    "psi_representation",
    "psi_module_action",
    "w_coisometry",
    "w_reading_agreement",
)


@dataclass(eq=False)
class VerificationReport:
    """Named residuals of every identity the dilation must satisfy."""

    phi_reconstruction: float
    Phi_reconstruction: float
    pi_multiplicativity: float
    pi_star: float
    pi_unital: float
    psi_representation: float
    psi_module_action: float
    s_isometry_defect: tuple[float, ...]
    w_coisometry: float
    w_reading_agreement: float
    minimality_k1_defect: float
    minimality_k2_defect: float
    diag_unital_defects: tuple[float, ...]
    s_isometry_in_pass: bool
    tolerance: float
    passed: bool

    def residual_items(self) -> list[tuple[str, float]]:
        items = [(name, getattr(self, name)) for name in _RESIDUAL_NAMES]
        items += [(f"s_isometry_defect[{i}]", v) for i, v in enumerate(self.s_isometry_defect)]
        items += [
            ("minimality_k1_defect", self.minimality_k1_defect),
            ("minimality_k2_defect", self.minimality_k2_defect),
        ]
        return items

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _RESIDUAL_NAMES},
            "s_isometry_defect": list(self.s_isometry_defect),
            "minimality_k1_defect": self.minimality_k1_defect,
            "minimality_k2_defect": self.minimality_k2_defect,
            "diag_unital_defects": list(self.diag_unital_defects),
            "s_isometry_in_pass": self.s_isometry_in_pass,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _max_rel(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max over leading axes of the per-matrix relative residual."""
    if expected.size == 0:
        return 0.0
    denom = np.maximum(matrix_norms(expected), 1.0)
    return float((matrix_norms(actual - expected) / denom).max())


def build_gram(cp: CPBlockMap, rel_cutoff: float = DEFAULT_CUTOFF) -> GramFactorization:
    """Factor every compressed Choi block ``C_b = F_b* F_b``.

    Rank decisions are on the scale of the whole raw Gram matrix: kept
    eigenvalues exceed ``rel_cutoff`` times the largest eigenvalue over
    all blocks.  Raises NotPSDError when some block has a kept-scale
    negative direction, which is exactly failure of complete
    n-positivity.
    """
    eigs = [hermitian_eig(cp.choi_block(b), tol_herm=1e-10) for b in range(cp.algebra.nblocks)]
    scale = max(float(e.eigenvalues[0]) for e in eigs)
    return GramFactorization(cp, tuple(rank_truncate(e, rel_cutoff, scale)[1] for e in eigs))


def build_pi(g: GramFactorization, cp: CPBlockMap) -> tuple[np.ndarray, float]:
    """Representation of the algebra on K1 induced by left multiplication.

    ``pi(e^b_pq) = E_pq (x) 1_{rank_b}`` in closed form, so the returned
    well-definedness residual is exactly 0.
    """
    dims = cp.algebra.block_dims
    return amplified_units(cp.algebra.basis_labels, dims, dims, g.ranks), 0.0


def build_S(g: GramFactorization, cp: CPBlockMap) -> np.ndarray:
    """Slot maps S_i : H1 -> K1, the factor columns over the unit element:
    ``S_i[(b, p, k), beta] = F_b[k, (i, p, beta)]``."""
    n, h1 = cp.n, cp.h1
    blocks = [
        f.reshape(len(f), n, d, h1).transpose(1, 2, 0, 3).reshape(n, d * len(f), h1)
        for f, d in zip(g.block_factors, cp.algebra.block_dims)
    ]
    return np.concatenate(blocks, axis=1)  # (n, r1, h1)


def build_psi(
    g: GramFactorization, cp: CPBlockMap, tup: ModuleCPTuple
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Module representation on the quotient plus the K2 embedding.

    ``Psi(f^b_rq) = E_rq (x) 1_{rank_b}`` in closed form.  The embedding
    columns over ``e_r (x) C^{rank_b}`` are the solution X of
    ``X F_b = T`` with ``T[:, (i, q, beta)] = Phi_i(f^b_rq) e_beta``;
    since ``F_b F_b*`` is the diagonal of kept eigenvalues, the
    least-squares solution is ``T F_b* (F_b F_b*)^-1``.  Returns
    (psi_action, k2_embed, r2, worst relative solve residual).
    """
    n, h1, h2 = cp.n, cp.h1, tup.h2
    psi_action = amplified_units(
        tup.module.basis_labels, tup.module.mults, cp.algebra.block_dims, g.ranks
    )
    columns, worst, start = [], 0.0, 0
    for f, d, k in zip(g.block_factors, cp.algebra.block_dims, tup.module.mults):
        t = tup.action[:, start : start + k * d].reshape(n, k, d, h2, h1)
        t = t.transpose(1, 3, 0, 2, 4).reshape(k, h2, n * d * h1)
        start += k * d
        x = (t @ f.conj().T) / np.einsum("kx,kx->k", f, f.conj()).real
        res = matrix_norms(x @ f - t) / np.maximum(matrix_norms(t), 1.0)
        worst = max(worst, float(res.max(initial=0.0)))
        columns.append(x.transpose(1, 0, 2).reshape(h2, k * len(f)))
    return psi_action, np.concatenate(columns, axis=1), psi_action.shape[1], worst


def build_W(tup: ModuleCPTuple, rel_cutoff: float = DEFAULT_CUTOFF) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """Per-slot coisometries onto the ranges [Phi_i(V) H1] inside H2.

    Row i holds an orthonormal basis of the span of all Phi_i(f) columns;
    a zero map yields a zero-row coisometry.
    """
    h2 = tup.h2
    ws, dims = [], []
    for i in range(tup.n):
        cols = tup.action[i].transpose(1, 0, 2).reshape(h2, -1)
        w = svd_orthobasis(cols, rel_cutoff).conj().T
        ws.append(w)
        dims.append(w.shape[0])
    return tuple(ws), tuple(dims)


def dilate(
    inst: Instance,
    cutoff: float = DEFAULT_CUTOFF,
    welldef_tol: float = DEFAULT_TOL,
) -> DilationData:
    """Run the full construction on a valid instance.

    The output is minimal by construction: K1 is spanned by the images
    ``pi(e) S_i H1`` (they are exactly the factor columns) and K2 by
    ``Psi(f) S_i H1``.  Raises NotPSDError for inputs that are not
    completely n-positive and WellDefinednessError when the K2
    embedding solve fails to close at ``welldef_tol``.
    """
    g = build_gram(inst.cp, cutoff)
    pi_action, pi_res = build_pi(g, inst.cp)
    s_ops = build_S(g, inst.cp)
    psi_action, k2_embed, r2, psi_res = build_psi(g, inst.cp, inst.tup)
    if psi_res > welldef_tol:
        raise WellDefinednessError(
            f"module map is inconsistent on the spanning family "
            f"(residual {psi_res:.3e} > {welldef_tol:.1e})"
        )
    w_ops, k2i_dims = build_W(inst.tup, cutoff)
    return DilationData(
        r1=g.r1,
        r2=r2,
        pi_action=pi_action,
        s_ops=s_ops,
        psi_action=psi_action,
        k2_embed=k2_embed,
        w_ops=w_ops,
        k2i_dims=k2i_dims,
        pi_welldef=pi_res,
        psi_welldef=psi_res,
    )


def check_shapes(inst: Instance, data: DilationData) -> None:
    """Raise ShapeMismatchError unless data is shaped for the instance."""
    dim_a, dim_v = inst.algebra.dim, inst.module.dim
    n, h1, h2 = inst.n, inst.h1, inst.h2
    if data.pi_action.shape != (dim_a, data.r1, data.r1):
        raise ShapeMismatchError("pi action shape does not match instance")
    if data.s_ops.shape != (n, data.r1, h1):
        raise ShapeMismatchError("slot map shape does not match instance")
    if data.psi_action.shape != (dim_v, data.r2, data.r1):
        raise ShapeMismatchError("psi action shape does not match instance")
    if data.k2_embed.shape != (h2, data.r2):
        raise ShapeMismatchError("K2 embedding shape does not match instance")
    if len(data.w_ops) != n or any(w.shape != (k, h2) for w, k in zip(data.w_ops, data.k2i_dims)):
        raise ShapeMismatchError("coisometry shapes do not match instance")


def verify_dilation(
    inst: Instance,
    data: DilationData,
    tol: float = DEFAULT_TOL,
    rank_cutoff: float = DEFAULT_CUTOFF,
) -> VerificationReport:
    """Check every asserted identity of the dilation on canonical bases.

    All quantities are relative residuals with denominator
    ``max(|expected|_F, 1)``.  The slot-isometry defect
    ``|S_i* S_i - 1|`` equals the unitality defect of phi_ii exactly, so
    it only participates in the pass verdict when every phi_ii is unital
    at the tolerance; it is always reported.
    """
    check_shapes(inst, data)
    cp, tup = inst.cp, inst.tup
    alg, mod = inst.algebra, inst.module
    dim_a, dim_v = alg.dim, mod.dim
    n, h1 = inst.n, inst.h1
    pi, s, psi = data.pi_action, data.s_ops, data.psi_action

    # phi_ij(e) = S_i* pi(e) S_j
    recon = np.einsum("ixh,axy,jyk->ijahk", s.conj(), pi, s)
    phi_rec = _max_rel(recon, cp.action)

    # pi is a unital *-homomorphism
    prod, adj = alg.product_table, alg.adjoint_table
    pi_mult = 0.0
    for alpha in range(dim_a):
        expected = np.zeros_like(pi)
        row = prod[alpha]
        mask = row >= 0
        expected[mask] = pi[row[mask]]
        pi_mult = max(pi_mult, _max_rel(np.matmul(pi[alpha], pi), expected))
    pi_star = _max_rel(pi.conj().transpose(0, 2, 1), pi[adj])
    pi_one = pi[alg.identity_indices].sum(axis=0)
    pi_unital = rel_residual(pi_one, np.eye(data.r1, dtype=complex))

    # Psi(f)* Psi(g) = pi(<f, g>)
    lhs = np.einsum("gxr,dxs->gdrs", psi.conj(), psi)
    expected = np.zeros((dim_v, dim_v, data.r1, data.r1), dtype=complex)
    mask = mod.inner_table >= 0
    expected[mask] = pi[mod.inner_table[mask]]
    psi_rep = _max_rel(lhs, expected)

    # Psi(f . e) = Psi(f) pi(e)
    psi_mod = 0.0
    for alpha in range(dim_a):
        row = mod.action_table[:, alpha]
        expected = np.zeros_like(psi)
        mask = row >= 0
        expected[mask] = psi[row[mask]]
        psi_mod = max(psi_mod, _max_rel(np.matmul(psi, pi[alpha]), expected))

    # Phi_i(f) = W_i* Psi(f) S_i, read both directly through the K2
    # embedding and through the range projector; the two must agree.
    emb = np.einsum("yr,grx,ixh->igyh", data.k2_embed, psi, s)  # (n, dim_V, h2, h1)
    direct = _max_rel(emb, tup.action)
    projected = 0.0
    agreement = 0.0
    for i in range(n):
        p_i = data.w_ops[i].conj().T @ data.w_ops[i]
        proj_emb = np.einsum("yz,gzh->gyh", p_i, emb[i])
        projected = max(projected, _max_rel(proj_emb, tup.action[i]))
        denom = np.maximum(matrix_norms(tup.action[i]), 1.0)
        agreement = max(agreement, float((matrix_norms(emb[i] - proj_emb) / denom).max()))
    phi_tuple_rec = max(direct, projected)

    # Slot-isometry and coisometry defects
    s_defect = tuple(
        float(np.linalg.norm(s[i].conj().T @ s[i] - np.eye(h1), 2)) for i in range(n)
    )
    w_coiso = 0.0
    for w in data.w_ops:
        k = w.shape[0]
        w_coiso = max(w_coiso, rel_residual(w @ w.conj().T, np.eye(k, dtype=complex)))

    # Minimality: the span families must exhaust K1 and K2
    m1 = np.einsum("axy,iyh->xaih", pi, s).reshape(data.r1, dim_a * n * h1)
    k1_defect = float(data.r1 - numerical_rank(m1, rank_cutoff))
    m2 = np.einsum("grx,ixh->rgih", psi, s).reshape(data.r2, dim_v * n * h1)
    k2_defect = float(data.r2 - numerical_rank(m2, rank_cutoff))

    unital_defects = tuple(float(v) for v in cp.diag_unital_defects())
    s_in_pass = all(v <= tol for v in unital_defects)

    named = {
        "phi_reconstruction": phi_rec,
        "Phi_reconstruction": phi_tuple_rec,
        "pi_multiplicativity": pi_mult,
        "pi_star": pi_star,
        "pi_unital": pi_unital,
        "psi_representation": psi_rep,
        "psi_module_action": psi_mod,
        "w_coisometry": w_coiso,
        "w_reading_agreement": agreement,
    }
    passed = all(v <= tol for v in named.values())
    passed = passed and k1_defect == 0.0 and k2_defect == 0.0
    if s_in_pass:
        passed = passed and all(v <= tol for v in s_defect)

    return VerificationReport(
        **named,
        s_isometry_defect=s_defect,
        minimality_k1_defect=k1_defect,
        minimality_k2_defect=k2_defect,
        diag_unital_defects=unital_defects,
        s_isometry_in_pass=s_in_pass,
        tolerance=tol,
        passed=passed,
    )
