"""Shared oracles for the test suite.

A minimal dense model of the algebra and the module stands in for the
library's index tables: every matrix unit is an explicit block-diagonal
numpy matrix, products are ``@``, adjoints are conjugate transposes, and
coefficients are read back from the blocks.  The remaining oracles are
the full basis-pair sweeps and per-index loops that the library replaced
with generator checks and stacked products, the dense raw-space Gram
matrix and factor that the blockwise construction never forms, the
full-span rank checks and least-squares solves that the block spans
replaced in minimality and equivalence, the dense expected tensor of the
compatibility gate and the two-copy Hermiticity check that the sparse
residual and the one-gather check replaced, the ``eigh`` of every Choi block
that the tuple factor replaced in ``build_gram``, the dense reverse construction
over amplified units that the generator's per-block products replaced,
the ``json.dumps`` encoder that the version-1 writers replaced with an
array encoder, the ``json.loads`` reader that orjson replaced, a plain
scanner for the reader's vectorised structural pass, the pi rows of
``verify_dilation`` on fresh products and expected stacks as they were
before the differences moved into the product buffers, the
written-out residual names and hand-built verdicts that the reports
replaced with their row fields, and the inline residual ratios that
``linalg``'s helpers replaced.  All of them serve as independent
references.
"""

from __future__ import annotations

import json
from dataclasses import replace
from unittest import mock

import numpy as np

from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate import dilation
from cpdilate.cpmaps import CPBlockMap, Instance, ModuleCPTuple, carrier_mult, haar_unitary
from cpdilate.dilation import DilationData, GramFactorization, amplified_units, check_shapes
from cpdilate.errors import InconsistentSpansError, NotMinimalError, NotPSDError
from cpdilate.linalg import (
    DEFAULT_CUTOFF, DEFAULT_TOL, frob, hermitian_eig, kept_ranks, matrix_norms, max_rel_residual,
    negative_at_scale, rel_residual, solve_lsq, svd_orthobasis,
)


def _dense_units(labels, row_dims, col_dims) -> np.ndarray:
    rows, cols = np.cumsum([0, *row_dims]), np.cumsum([0, *col_dims])
    units = np.zeros((len(labels), rows[-1], cols[-1]), dtype=complex)
    for index, (b, r, q) in enumerate(labels):
        units[index, rows[b] + r, cols[b] + q] = 1.0
    return units


def amplified_units_oracle(labels, row_dims, col_dims, copies) -> np.ndarray:
    """``dilation.amplified_units`` as the per-label loop it replaced:
    ``E_rq (x) 1_{copies[b]}`` set copy by copy for each label."""
    row_off = np.concatenate([[0], np.cumsum([d * c for d, c in zip(row_dims, copies)])])
    col_off = np.concatenate([[0], np.cumsum([d * c for d, c in zip(col_dims, copies)])])
    out = np.zeros((len(labels), int(row_off[-1]), int(col_off[-1])), dtype=complex)
    for index, (b, r, q) in enumerate(labels):
        copy = np.arange(copies[b])
        out[index, row_off[b] + r * copies[b] + copy, col_off[b] + q * copies[b] + copy] = 1.0
    return out


def random_instance_oracle(seed, n, block_dims, mults, h1, h2, k1_extra=0, k2_extra=0) -> Instance:
    """``cpmaps.random_instance`` as the dense reverse construction it
    replaced: ``phi_ij(a) = S_i* pi(a) S_j`` and ``Phi_i(x) = embed
    psi(x) S_i`` as three-operand einsums over the amplified units
    ``pi`` and ``psi`` of the whole carrier, with the same draws."""
    desc = AlgebraDescriptor(tuple(block_dims))
    mdesc = ModuleDescriptor(desc, tuple(mults))
    rng = np.random.default_rng(seed)
    copies = [carrier_mult(desc.block_dims, h1, k1_extra)] * desc.nblocks
    pi_t = amplified_units(desc.basis_labels, desc.block_dims, desc.block_dims, copies)
    psi_t = amplified_units(mdesc.basis_labels, mdesc.mults, desc.block_dims, copies)
    dim1, dim2 = pi_t.shape[1], psi_t.shape[1]
    s_ops = np.stack([haar_unitary(rng, dim1)[:, :h1] for _ in range(n)])
    cp_action = np.einsum("ixh,axy,jyk->ijahk", s_ops.conj(), pi_t, s_ops)
    span = np.einsum("gyx,ixh->ygih", psi_t, s_ops).reshape(dim2, -1)
    basis = svd_orthobasis(span)
    needed = basis.shape[1]
    pad = min(h2, needed + k2_extra)
    inner_iso = haar_unitary(rng, pad)[:, :needed]
    outer_iso = haar_unitary(rng, h2)[:, :pad]
    embed = outer_iso @ inner_iso @ basis.conj().T
    tup_action = np.einsum("yz,gzx,ixh->igyh", embed, psi_t, s_ops)
    return Instance(CPBlockMap(desc, n, h1, cp_action),
                    ModuleCPTuple(mdesc, n, h1, h2, tup_action))


def algebra_units(alg) -> np.ndarray:
    """Each algebra matrix unit e^b_pq as a block-diagonal matrix of
    side ``sum_b d_b``, stacked in basis order."""
    return _dense_units(alg.basis_labels, alg.block_dims, alg.block_dims)


def module_units(mod) -> np.ndarray:
    """Each module matrix unit f^b_rq as a block-diagonal
    ``sum_b k_b x sum_b d_b`` matrix, stacked in basis order; the action
    is ``f @ e`` and the inner product ``<f, g> = f* @ g``."""
    return _dense_units(mod.basis_labels, mod.mults, mod.algebra.block_dims)


def algebra_coeffs(alg, m: np.ndarray) -> np.ndarray:
    """Coefficients of a block-diagonal matrix over the matrix units."""
    off = np.cumsum([0, *alg.block_dims])
    return np.array([m[off[b] + p, off[b] + q] for b, p, q in alg.basis_labels])


def brute_force_gram(cp: CPBlockMap) -> np.ndarray:
    """Loop-built Gram of the raw-space form.

    Row (i, alpha, beta), column (j, alpha2, beta2) gets
    ``<e_beta, phi_ij(e_alpha* e_alpha2) e_beta2>``, with the product
    taken on dense matrix units and expanded back over the basis.
    """
    alg = cp.algebra
    n, dim_a, h1 = cp.n, alg.dim, cp.h1
    units = algebra_units(alg)
    gram = np.zeros((n, dim_a, h1, n, dim_a, h1), dtype=complex)
    for alpha in range(dim_a):
        for alpha2 in range(dim_a):
            coeffs = algebra_coeffs(alg, units[alpha].conj().T @ units[alpha2])
            for i in range(n):
                for j in range(n):
                    gram[i, alpha, :, j, alpha2, :] = apply_phi_oracle(cp, i, j, coeffs)
    side = n * dim_a * h1
    return gram.reshape(side, side)


def _raw_indices(cp: CPBlockMap, b: int) -> np.ndarray:
    """Raw-space indices of block b, one row per p, each row listing
    ``(i, e^b_pq, beta)`` in the Choi order (i, q, beta)."""
    alg, h1 = cp.algebra, cp.h1
    d = alg.block_dims[b]
    off = sum(dd * dd for dd in alg.block_dims[:b])
    i, p, q, beta = np.ix_(range(cp.n), range(d), range(d), range(h1))
    raw = (i * alg.dim + off + p * d + q) * h1 + beta
    return raw.transpose(1, 0, 2, 3).reshape(d, -1)


def raw_gram(cp: CPBlockMap) -> np.ndarray:
    """Dense raw-space Gram matrix, assembled from the Choi blocks: the
    permuted direct sum of d_b copies of each ``cp.choi_block(b)``."""
    side = cp.n * cp.algebra.dim * cp.h1
    gram = np.zeros((side, side), dtype=complex)
    for b in range(cp.algebra.nblocks):
        choi = cp.choi_block(b)
        for idx in _raw_indices(cp, b):
            gram[np.ix_(idx, idx)] = choi
    return gram


def raw_factor(g: GramFactorization) -> np.ndarray:
    """Dense raw-space factor of shape (r1, raw_dim), rows in K1 order
    (block, p, k), with ``F* F = raw_gram(g.cp)`` to cutoff accuracy;
    applied to raw coordinates it is the quotient map onto K1."""
    factor = np.zeros((g.r1, g.raw_dim), dtype=complex)
    row = 0
    for b, f in enumerate(g.block_factors):
        for idx in _raw_indices(g.cp, b):
            factor[row : row + len(f), idx] = f
            row += len(f)
    return factor


def build_gram_oracle(cp, tol=DEFAULT_TOL, tup=None):
    """The former ``build_gram``: every Choi block eigendecomposed once,
    judged on its own spectrum and factored as ``sqrt(kept) V_kept*``;
    the tuple is not read."""
    cp.check_hermiticity(tol)
    eigs = [hermitian_eig(cp.choi_block(b)) for b in range(cp.algebra.nblocks)]
    for b, (w, _) in enumerate(eigs):
        if negative_at_scale(float(w[-1]), float(w[0]), tol):
            raise NotPSDError(
                f"map family is not completely n-positive: Choi block {b} has eigenvalue "
                f"{w[-1]:.3e} below -{tol:.1e} * {max(float(w[0]), 1.0):.3e}"
            )
    ranks = kept_ranks([w for w, _ in eigs])
    factors = (np.sqrt(w[:r])[:, None] * v[:, :r].conj().T for (w, v), r in zip(eigs, ranks))
    return GramFactorization(cp, tuple(factors))


def dilate_oracle(inst, **kw) -> DilationData:
    """``dilation.dilate`` on the factors of ``build_gram_oracle``."""
    with mock.patch.object(dilation, "build_gram", build_gram_oracle):
        return dilation.dilate(inst, **kw)


def rotate_dilation_oracle(data, q1, q2, w_rotations=None) -> DilationData:
    """``equivalence.rotate_dilation`` as the index contractions it
    replaced with matrix products."""
    w_ops = data.w_ops if w_rotations is None else tuple(
        r @ w for r, w in zip(w_rotations, data.w_ops)
    )
    return DilationData(
        r1=data.r1,
        r2=data.r2,
        pi_action=np.einsum("xy,ayz,wz->axw", q1, data.pi_action, q1.conj()),
        s_ops=np.einsum("xy,iyh->ixh", q1, data.s_ops),
        psi_action=np.einsum("xy,gyz,wz->gxw", q2, data.psi_action, q1.conj()),
        k2_embed=data.k2_embed @ q2.conj().T,
        w_ops=w_ops,
        k2i_dims=data.k2i_dims,
        pi_welldef=data.pi_welldef,
        psi_welldef=data.psi_welldef,
    )


def numerical_rank(columns, rel_cutoff: float = DEFAULT_CUTOFF) -> int:
    """Rank of one matrix at ``rel_cutoff`` times its largest singular
    value, the rank the full-span checks took."""
    s = np.linalg.svd(np.asarray(columns, dtype=complex), compute_uv=False)
    return int(np.count_nonzero(s > rel_cutoff * s[0])) if s.size else 0


def k1_span_oracle(data) -> np.ndarray:
    """The full K1 family: columns pi(e_alpha) S_i e_beta, ordered
    (alpha, i, beta)."""
    cols = np.einsum("axy,iyh->xaih", data.pi_action, data.s_ops)
    return cols.reshape(data.r1, -1)


def k2_span_oracle(data) -> np.ndarray:
    """The full K2 family: columns Psi(f_gamma) S_i e_beta, ordered
    (gamma, i, beta)."""
    cols = np.einsum("grx,ixh->rgih", data.psi_action, data.s_ops)
    return cols.reshape(data.r2, -1)


def full_span_defects(data, rank_cutoff: float = DEFAULT_CUTOFF) -> tuple[float, float]:
    """Minimality defects from one SVD of each full spanning family."""
    return (
        float(data.r1 - numerical_rank(k1_span_oracle(data), rank_cutoff)),
        float(data.r2 - numerical_rank(k2_span_oracle(data), rank_cutoff)),
    )


def build_unitaries_oracle(
    inst, data_a, data_b, tol: float = DEFAULT_TOL, rank_cutoff: float = DEFAULT_CUTOFF
):
    """The former ``build_unitaries``: rank checks and one least-squares
    solve per unitary over the full spanning families.  Returns
    ``(u1, u2, u1_solve_residual, u2_solve_residual)`` and raises as the
    library does."""
    check_shapes(inst, data_a)
    check_shapes(inst, data_b)
    x_a, x_b = k1_span_oracle(data_a), k1_span_oracle(data_b)
    y_a, y_b = k2_span_oracle(data_a), k2_span_oracle(data_b)
    for label, span, r in (
        ("first", x_a, data_a.r1),
        ("second", x_b, data_b.r1),
        ("first", y_a, data_a.r2),
        ("second", y_b, data_b.r2),
    ):
        if numerical_rank(span, rank_cutoff) < r:
            raise NotMinimalError(f"{label} dilation is not minimal (span rank defect)")
    sol1, res1 = solve_lsq(x_a.T, x_b.T)
    if res1 > tol:
        raise InconsistentSpansError(f"K1 spanning families do not match ({res1:.3e})")
    sol2, res2 = solve_lsq(y_a.T, y_b.T)
    if res2 > tol:
        raise InconsistentSpansError(f"K2 spanning families do not match ({res2:.3e})")
    return sol1.T, sol2.T, res1, res2


def apply_phi_oracle(cp: CPBlockMap, i: int, j: int, coeffs: np.ndarray) -> np.ndarray:
    """phi_ij of the element with the given basis coefficients, by
    explicit per-coefficient summation."""
    acc = np.zeros((cp.h1, cp.h1), dtype=complex)
    for alpha, coeff in enumerate(coeffs):
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


def compatibility_dense_oracle(inst) -> float:
    """The former ``Instance.compatibility_residual``: the whole tuple Gram
    against a dense expected tensor ``phi_ij(<f, g>)`` over every slot and
    unit pair, zero where the inner product vanishes."""
    n, dim_v, h1 = inst.n, inst.module.dim, inst.h1
    inner = inst.module.inner_table
    mask = inner >= 0
    cols = inst.tup.action.transpose(2, 0, 1, 3).reshape(inst.h2, n * dim_v * h1)
    lhs = (cols.conj().T @ cols).reshape(n, dim_v, h1, n, dim_v, h1)
    exp = np.zeros((n, n, dim_v, dim_v, h1, h1), dtype=complex)
    exp[:, :, mask] = inst.cp.action[:, :, inner[mask]]
    return max_rel_residual(lhs.transpose(0, 3, 1, 4, 2, 5), exp)


def hermiticity_oracle(cp) -> float:
    """The former ``CPBlockMap.hermiticity_defect``: ``phi_ij(e_alpha*)``,
    gathered, against the conjugate transpose of ``phi_ji(e_alpha)``."""
    lhs = cp.action[:, :, cp.algebra.adjoint_table]
    rhs = cp.action.conj().transpose(1, 0, 2, 4, 3)
    denom = np.maximum(matrix_norms(rhs), 1.0)
    return float((matrix_norms(lhs - rhs) / denom).max())


def hermiticity_ratio_oracle(cp) -> float:
    """``CPBlockMap.hermiticity_defect`` with the residual ratio written
    out inline, as it was before it called ``linalg.max_rel_residual``."""
    rhs = cp.action.transpose(1, 0, 2, 4, 3)[:, :, cp.algebra.adjoint_table].conj()
    denom = np.maximum(matrix_norms(rhs), 1.0)
    return float((matrix_norms(cp.action - rhs) / denom).max())


def psi_welldef_oracle(inst) -> float:
    """``dilate(inst).psi_welldef``: ``build_psi``'s solve residual with
    the ratio written out inline, on the equilibrated instance."""
    eq, _ = inst.equilibrated()
    g = dilation.build_gram(eq.cp, tup=eq.tup)
    worst = 0.0
    for b, f in enumerate(g.block_factors):
        t = dilation.tuple_block(eq.tup, b)
        x = (t @ f.conj().T) / np.einsum("kx,kx->k", f, f.conj()).real
        res = matrix_norms(x @ f - t) / np.maximum(matrix_norms(t), 1.0)
        worst = max(worst, float(res.max(initial=0.0)))
    return worst


def lsq_residual_oracle(a, x, b) -> float:
    """``solve_lsq``'s residual written out: ``|a x - b|_F / max(|b|_F, 1)``."""
    return frob(a @ x - b) / max(frob(b), 1.0)


def centrally_scaled(inst, c) -> Instance:
    """The pair composed with the central element ``z = sum_b c_b 1_b``:
    ``phi_ij(z a z)`` and ``Phi_i(x z)``, so block b's units of ``phi``
    scale by ``c_b^2`` and those of ``Phi`` by ``c_b``; valid whenever
    the pair is."""
    alg, mod = inst.algebra, inst.module
    c = np.asarray(c, dtype=float)
    on_a = np.repeat(c**2, [d * d for d in alg.block_dims])
    on_v = np.repeat(c, [k * d for k, d in zip(mod.mults, alg.block_dims)])
    return Instance(
        CPBlockMap(alg, inst.n, inst.h1, inst.cp.action * on_a[:, None, None]),
        ModuleCPTuple(mod, inst.n, inst.h1, inst.h2, inst.tup.action * on_v[:, None, None]),
        inst.meta,
    )


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


def psi_representation_oracle(mod, pi: np.ndarray, psi: np.ndarray) -> float:
    """Full sweep of ``Psi(f_gamma)* Psi(f_delta) = pi(<f_gamma, f_delta>)``
    over every basis pair, through the module's inner-product table."""
    dim_v, r2, r1 = psi.shape
    cols = psi.transpose(1, 0, 2).reshape(r2, dim_v * r1)
    lhs = (cols.conj().T @ cols).reshape(dim_v, r1, dim_v, r1).transpose(0, 2, 1, 3)
    expected = np.zeros((dim_v, dim_v, r1, r1), dtype=complex)
    mask = mod.inner_table >= 0
    expected[mask] = pi[mod.inner_table[mask]]
    return max_rel_residual(lhs, expected)


def encode_complex_oracle(arr) -> list:
    """A complex tensor as nested ``[re, im]`` lists, the input of the
    former ``json.dumps`` encoder."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def tensor_text_oracle(arr) -> str:
    """JSON text of one tensor as the former encoder wrote it."""
    return json.dumps(encode_complex_oracle(arr), separators=(",", ":"), allow_nan=False)


def _emit_oracle(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def emit_instance_oracle(inst) -> str:
    """Instance file text as the former encoder wrote it."""
    return _emit_oracle({
        "format": "cpdilate/instance",
        "version": 1,
        "n": inst.n,
        "h1": inst.h1,
        "h2": inst.h2,
        "block_dims": list(inst.algebra.block_dims),
        "mults": list(inst.module.mults),
        "cp_action": encode_complex_oracle(inst.cp.action),
        "tuple_action": encode_complex_oracle(inst.tup.action),
        "meta": inst.meta,
    })


def emit_dilation_oracle(inst, data) -> str:
    """Dilation file text as the former encoder wrote it."""
    return _emit_oracle({
        "format": "cpdilate/dilation",
        "version": 1,
        "n": inst.n,
        "h1": inst.h1,
        "h2": inst.h2,
        "block_dims": list(inst.algebra.block_dims),
        "mults": list(inst.module.mults),
        "r1": data.r1,
        "r2": data.r2,
        "pi_action": encode_complex_oracle(data.pi_action),
        "s_ops": encode_complex_oracle(data.s_ops),
        "psi_action": encode_complex_oracle(data.psi_action),
        "k2_embed": encode_complex_oracle(data.k2_embed),
        "k2i_dims": list(data.k2i_dims),
        "w_ops": [encode_complex_oracle(w) for w in data.w_ops],
        "pi_welldef": data.pi_welldef,
        "psi_welldef": data.psi_welldef,
    })


def load_oracle(data: str | bytes):
    """The former reader: ``json.loads`` over the UTF-8 text."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return json.loads(data)


def complex_tensor_oracle(nested, shape: tuple[int, ...]) -> np.ndarray:
    """Nested ``[re, im]`` lists as a complex array of the given shape,
    components assigned so that ``-0.0`` keeps its sign."""
    if 0 in shape:
        return np.zeros(shape, dtype=complex)
    pairs = np.asarray(nested, dtype=float)
    assert pairs.shape == tuple(shape) + (2,)
    out = np.empty(shape, dtype=complex)
    out.real = pairs[..., 0]
    out.imag = pairs[..., 1]
    return out


REPORT_RESIDUALS_ORACLE = (
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

WITNESS_DIAGRAM_ORACLE = (
    "u1_unitarity",
    "u2_unitarity",
    "u1_S_intertwine",
    "u1_pi_intertwine",
    "u2_W_intertwine",
    "u2_psi_intertwine",
)


def report_passed_oracle(report) -> bool:
    """The verdict ``verify_dilation`` built by hand: every named residual
    within the tolerance, both minimality defects exactly 0, and the
    slot-isometry defects within it when they are gated."""
    tol = report.tolerance
    passed = all(getattr(report, name) <= tol for name in REPORT_RESIDUALS_ORACLE)
    passed = passed and report.minimality_k1_defect == 0.0 and report.minimality_k2_defect == 0.0
    if report.s_isometry_in_pass:
        passed = passed and all(v <= tol for v in report.s_isometry_defect)
    return passed


def report_items_oracle(report) -> list[tuple[str, float]]:
    """The former ``VerificationReport.residual_items``."""
    items = [(name, getattr(report, name)) for name in REPORT_RESIDUALS_ORACLE]
    items += [(f"s_isometry_defect[{i}]", v) for i, v in enumerate(report.s_isometry_defect)]
    items += [
        ("minimality_k1_defect", report.minimality_k1_defect),
        ("minimality_k2_defect", report.minimality_k2_defect),
    ]
    return items


def report_dict_oracle(report) -> dict:
    """The former ``VerificationReport.to_dict``, with the hand-built verdict."""
    return {
        **{name: getattr(report, name) for name in REPORT_RESIDUALS_ORACLE},
        "s_isometry_defect": list(report.s_isometry_defect),
        "minimality_k1_defect": report.minimality_k1_defect,
        "minimality_k2_defect": report.minimality_k2_defect,
        "diag_unital_defects": list(report.diag_unital_defects),
        "s_isometry_in_pass": report.s_isometry_in_pass,
        "tolerance": report.tolerance,
        "passed": report_passed_oracle(report),
    }


def witness_items_oracle(witness) -> list[tuple[str, float]]:
    """The former ``EquivalenceWitness.residual_items``."""
    items = [(name, getattr(witness, name)) for name in WITNESS_DIAGRAM_ORACLE]
    items += [
        ("u1_solve_residual", witness.u1_solve_residual),
        ("u2_solve_residual", witness.u2_solve_residual),
    ]
    return items


def commutes_oracle(witness, tol: float) -> bool:
    """The former ``EquivalenceWitness.commutes``: the six diagram
    residuals, not the solve residuals, within ``tol``."""
    return all(getattr(witness, name) <= tol for name in WITNESS_DIAGRAM_ORACLE)


def non_representation(inst, data) -> DilationData:
    """``data``, a dilation of a two-slot instance on ``A = M_2`` with
    ``h1 = 2``, with pi no *-representation: ``pi(e_00) = 1`` and 0 on
    the other units, and likewise ``Psi``.  The whole K1 family
    ``[S, 0, 0, 0]`` has rank 2 = r1, but the block count
    ``d_b rank(X_b)`` is 2 * 2, so the K1 minimality defect is -2."""
    pi = np.zeros((inst.algebra.dim, 2, 2), dtype=complex)
    pi[0] = np.eye(2)
    psi = np.zeros((inst.module.dim, 2, 2), dtype=complex)
    psi[0] = np.eye(2)
    return replace(
        data, r1=2, r2=2, pi_action=pi, psi_action=psi,
        s_ops=np.random.default_rng(0).standard_normal((inst.n, 2, inst.h1)) + 0j,
        k2_embed=np.eye(inst.h2, 2, dtype=complex),
    )


def structure_oracle(text: bytes) -> tuple[int, bool]:
    """Deepest bracket nesting of JSON text and whether a ``true`` or
    ``false`` literal lies outside strings, by a scan character by
    character that tracks string and escape state."""
    depth = deepest = 0
    literal = in_string = escaped = False
    for char in text.decode("utf-8", "surrogatepass"):
        if escaped:
            escaped = False
        elif in_string:
            escaped, in_string = char == "\\", char != '"'
        elif char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif char in "]}":
            depth -= 1
        elif char in "tf":
            literal = True
    return deepest, literal


def pi_rows_oracle(inst, data) -> dict:
    """The rows ``verify_dilation`` now builds in place, by the former
    formulas: one spectral norm per slot, and ``max_rel_residual`` on fresh
    products against fresh expected stacks, ``eye(d) (x) pi(e_00)`` and
    ``pi(e*)`` included, each denominator from its own norms."""
    alg, r1, pi = inst.algebra, data.r1, data.pi_action
    pi_mult, a_off = 0.0, 0
    for d in alg.block_dims:
        units = pi[a_off : a_off + d * d].reshape(d, d, r1, r1)
        col, row = units[:, 0], units[0]
        orth = np.eye(d)[:, :, None, None] * units[0, 0]
        pi_mult = max(pi_mult, max_rel_residual(col[:, None] @ row[None], units),
                      max_rel_residual(row[:, None] @ col[None], orth))
        a_off += d * d
    return {
        "s_isometry_defect": tuple(float(np.linalg.norm(s.conj().T @ s - np.eye(inst.h1), 2))
                                   for s in data.s_ops),
        "pi_multiplicativity": pi_mult,
        "pi_star": max_rel_residual(pi.conj().transpose(0, 2, 1), pi[alg.adjoint_table]),
        "pi_unital": rel_residual(pi[alg.identity_indices].sum(axis=0),
                                  np.eye(r1, dtype=complex)),
    }
