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
2.  Each C_b is factored once, ``C_b = F_b* F_b``: from the SVD of its
    module rows T_b where ``k_b >= 1`` (compatibility says
    ``T_b* T_b = k_b C_b``), else by eigendecomposition (``build_gram``),
    truncated by ``linalg.kept_ranks`` on the scale of the whole Gram.
    The quotient is ``K1 = sum_b C^{d_b} (x) C^{rank_b}`` (dimension
    r1 = sum_b d_b rank_b), and the raw vector ``e^b_pq (x) e_beta`` in slot i maps to
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

``dilate`` runs this on ``Instance.equilibrated`` (slot i divided by c_i)
and multiplies S_i by c_i at the end; the checks divide S_i by c_i again.

Linear identities are verified on canonical bases.  Multiplicative and
sesquilinear ones are verified on the generators ``e^b_p0`` and
``f^b_r0`` of each block: ``pi(e_pq) = pi(e_p0) pi(e_0q)`` and
``pi(e_0p) pi(e_q0) = delta_pq pi(e_00)``, with ``pi(e_qp) = pi(e_pq)*``
and ``sum pi(e^b_pp) = 1``, make the ``pi(e^b_pp)`` self-adjoint
idempotents summing to 1, hence mutually orthogonal, and imply every
matrix-unit relation; ``Psi(f^b_rq) = Psi(f^b_r0) pi(e^b_0q)`` then
implies ``Psi(f . e) = Psi(f) pi(e)``.  Finally
``Psi(f^b_r0)* Psi(f^c_s0) = delta_bc delta_rs pi(e^b_00)`` gives
``Psi(f^b_rq)* Psi(f^c_sq') = pi(e^b_q0) Psi(f^b_r0)* Psi(f^c_s0) pi(e^c_0q')
= delta_bc delta_rs pi(e^b_qq') = pi(<f^b_rq, f^c_sq'>)`` on every
basis pair, so ``Psi(f)* Psi(g) = pi(<f, g>)``.  This costs O(d_b^2)
products per block for pi, O(k_b d_b) for the module action and
O((sum_b k_b)^2) for the inner products, instead of O(dim_A^2) and
O(dim_V^2), and stays exact: a generator residual eps bounds every
product residual by O(eps |pi|^2).

Minimality is read off the same generators.  With the block spans
``X_b = [pi(e^b_0q) S_i e_beta]`` over (q, i, beta), the K1 family
``pi(e^b_p0) X_b`` has Gram blocks ``delta_bc delta_pp' X_b* X_b``, so its
singular values are the X_b's, each d_b times; the K2 family
``Psi(f^b_r0) X_b`` has them k_b times.  Both ranks are counted by the
one rule (``linalg.direct_sum_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cpmaps import CPBlockMap, Instance, ModuleCPTuple
from .errors import DimensionTooLargeError, NotPSDError, ShapeMismatchError, WellDefinednessError
from .linalg import (
    DEFAULT_TOL,
    direct_sum_rank,
    frob,
    hermitian_eig,
    kept_ranks,
    matrix_norms,
    max_rel_diff,
    max_rel_residual,
    negative_at_scale,
    psd_certified,
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

# Guardrails on the Choi block side, the raw dimension and dim A * r1^2 (the
# entries of pi); the README backs them with measurements.
MAX_CHOI_SIDE = 1024
MAX_RAW_DIM = 10_000
MAX_PI_ENTRIES = 2**22


def check_bound(what: str, value: int, limit: int) -> None:
    """Raise DimensionTooLargeError when ``value`` exceeds ``limit``."""
    if value > limit:
        raise DimensionTooLargeError(f"{what} {value}, above the guardrail {limit}")


def check_dims(n: int, block_dims, h1: int, what: str) -> int:
    """Bound the largest Choi block side ``n * d_b * h1`` (the matrix
    factored) and the raw dimension ``n * dim A * h1`` (the tensors scale
    with ``dim A``); returns the raw dimension."""
    check_bound(f"{what} a Choi block of side", n * max(block_dims, default=0) * h1, MAX_CHOI_SIDE)
    raw = n * sum(d * d for d in block_dims) * h1
    check_bound(f"{what} raw dimension n * dim A * h1 =", raw, MAX_RAW_DIM)
    return raw


@dataclass(eq=False)
class GramFactorization:
    """Blockwise factorization of the raw-space Gram matrix.

    ``block_factors[b]`` is ``F_b`` of shape (rank_b, n * d_b * h1) with
    ``F_b* F_b = cp.choi_block(b)`` to cutoff (and, from the tuple,
    compatibility) accuracy and rows orthogonal to rounding.  The raw Gram
    matrix, ``d_b`` copies of each Choi block, is never assembled.
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


@dataclass(eq=False)
class DilationData:
    """Minimal joint Stinespring data for one instance.

    ``pi_action[alpha]`` is the representation on K1 evaluated at the
    algebra unit alpha, ``s_ops[i]`` maps H1 into K1, ``psi_action[gamma]``
    maps K1 into K2 coordinates, ``k2_embed`` isometrically embeds K2
    into H2, and ``w_ops[i]`` holds an orthonormal row basis of the
    per-slot range inside H2 (a coisometry from H2).  ``pi_welldef`` is
    always 0.0 from ``dilate`` (pi is closed form); format version 1 carries it.
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

    def range_projectors(self) -> np.ndarray:
        """Per-slot range projectors ``W_i* W_i`` on H2, shape (n, h2, h2)."""
        return np.stack([w.conj().T @ w for w in self.w_ops])

    def slots_scaled(self, factors: np.ndarray) -> DilationData:
        """S_i multiplied by ``factors[i]``: a dilation of the instance with
        slot i scaled likewise.  Itself when every factor is 1."""
        if (factors == 1.0).all():
            return self
        return replace(self, s_ops=self.s_ops * factors[:, None, None])


@dataclass(eq=False)
class VerificationReport:
    """Named residuals of every identity the dilation must satisfy.

    The fields marked ``row``, in print order, are the report: ``rows``,
    ``residual_items``, ``to_dict`` and ``passed`` all read them.
    """

    phi_reconstruction: float = field(metadata={"row": "residual"})
    Phi_reconstruction: float = field(metadata={"row": "residual"})
    pi_multiplicativity: float = field(metadata={"row": "residual"})
    pi_star: float = field(metadata={"row": "residual"})
    pi_unital: float = field(metadata={"row": "residual"})
    psi_representation: float = field(metadata={"row": "residual"})
    psi_module_action: float = field(metadata={"row": "residual"})
    w_coisometry: float = field(metadata={"row": "residual"})
    w_reading_agreement: float = field(metadata={"row": "residual"})
    s_isometry_defect: tuple[float, ...] = field(metadata={"row": "slot"})
    minimality_k1_defect: float = field(metadata={"row": "minimality"})
    minimality_k2_defect: float = field(metadata={"row": "minimality"})
    diag_unital_defects: tuple[float, ...]
    s_isometry_in_pass: bool
    tolerance: float

    def rows(self) -> list[tuple[str, float, str]]:
        """``(name, value, status)`` per row, status ``ok``, ``FAIL`` or
        ``reported``.  A residual passes at ``<= tolerance``, a minimality
        defect only at exactly 0, and a slot-isometry row over the
        tolerance is ``reported``, not gated, unless ``s_isometry_in_pass``."""
        out = []
        for f in fields(self):
            rule, value = f.metadata.get("row"), getattr(self, f.name)
            if rule == "slot":
                fail = "FAIL" if self.s_isometry_in_pass else "reported"
                out += [(f"{f.name}[{i}]", v, "ok" if v <= self.tolerance else fail)
                        for i, v in enumerate(value)]
            elif rule is not None:
                ok = value == 0.0 if rule == "minimality" else value <= self.tolerance
                out.append((f.name, value, "ok" if ok else "FAIL"))
        return out

    def residual_items(self) -> list[tuple[str, float]]:
        return [(name, value) for name, value, _ in self.rows()]

    @property
    def passed(self) -> bool:
        return all(status != "FAIL" for _, _, status in self.rows())

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return {**out, "passed": self.passed}


def build_gram(cp: CPBlockMap, *, tol: float = DEFAULT_TOL,
               tup: ModuleCPTuple | None = None) -> GramFactorization:
    """Factor every compressed Choi block ``C_b = F_b* F_b``, each once.

    After ``check_hermiticity``, a block with module rows in ``tup`` takes
    the SVD ``T = U S V*`` of ``T = tuple_block(tup, b) / sqrt(k_b)``: the
    spectrum ``S^2`` of ``P_b = T* T`` and the rows ``U_kept* T``, when
    ``linalg.psd_certified`` proves from ``|C_b - P_b|_F`` that
    ``negative_at_scale`` passes on ``C_b``.  Any other block is
    eigendecomposed and judged by ``negative_at_scale``, raising
    NotPSDError that names the block; its rows are ``sqrt(kept) V_kept*``.
    So the verdicts at ``tol`` are ``is_completely_n_positive``'s.  Ranks
    are ``kept_ranks`` over all blocks, on the scale of the whole Gram.
    """
    cp.check_hermiticity(tol)
    blocks = [_block_factor(cp, b, tup, tol) for b in range(cp.algebra.nblocks)]
    ranks = kept_ranks([w for w, _ in blocks])
    return GramFactorization(cp, tuple(rows(r) for (_, rows), r in zip(blocks, ranks)))


def _block_factor(cp: CPBlockMap, b: int, tup: ModuleCPTuple | None, tol: float):
    """Choi block b's descending spectrum and its rows ``F_b`` by kept rank."""
    c = cp.choi_block(b)
    k = 0 if tup is None else tup.module.mults[b]
    if k:
        t = tuple_block(tup, b).reshape(-1, len(c)) / np.sqrt(k)
        u, s, _ = np.linalg.svd(t, full_matrices=False)
        if psd_certified(frob(c - t.conj().T @ t), float(s[0]) ** 2, tol):
            return s * s, lambda r: u[:, :r].conj().T @ t
    w, v = hermitian_eig(c)
    if negative_at_scale(float(w[-1]), float(w[0]), tol):
        raise NotPSDError(
            f"map family is not completely n-positive: Choi block {b} has eigenvalue "
            f"{w[-1]:.3e} below -{tol:.1e} * {max(float(w[0]), 1.0):.3e}"
        )
    return w, lambda r: np.sqrt(w[:r])[:, None] * v[:, :r].conj().T


def tuple_block(tup: ModuleCPTuple, b: int) -> np.ndarray:
    """The module rows of block b, ``T_b[r, y, (i, q, beta)] =
    Phi_i(f^b_rq)[y, beta]``, of shape (k_b, h2, n * d_b * h1); compatibility
    says ``sum_r T_b[r]* T_b[r] = k_b C_b``."""
    mod = tup.module
    d, k = mod.algebra.block_dims[b], mod.mults[b]
    start = sum(kk * dd for kk, dd in zip(mod.mults[:b], mod.algebra.block_dims))
    t = tup.action[:, start : start + k * d].reshape(tup.n, k, d, tup.h2, tup.h1)
    return t.transpose(1, 3, 0, 2, 4).reshape(k, tup.h2, tup.n * d * tup.h1)


def amplified_units(labels, row_dims, col_dims, copies) -> np.ndarray:
    """Matrix units amplified by a per-block number of copies.

    For each label (b, r, q) the stack holds ``E_rq (x) 1_{copies[b]}``,
    mapping ``sum_b C^{col_dims[b]} (x) C^{copies[b]}`` into
    ``sum_b C^{row_dims[b]} (x) C^{copies[b]}``; coordinates run over
    (block, row, copy) with the block slowest.  With the algebra's labels
    and ``row_dims = col_dims = block_dims`` this is the blockwise
    representation ``pi`` with multiplicity; with the module's labels and
    ``row_dims = mults of the module`` it is the matching module map
    ``psi``, and the pair satisfies ``psi(f)* psi(g) = pi(<f, g>)``
    exactly.
    """
    copies = np.asarray(copies, dtype=np.intp)
    row_off = np.concatenate([[0], np.cumsum(np.asarray(row_dims, dtype=np.intp) * copies)])
    col_off = np.concatenate([[0], np.cumsum(np.asarray(col_dims, dtype=np.intp) * copies)])
    out = np.zeros((len(labels), row_off[-1], col_off[-1]), dtype=complex)
    b, r, q = np.asarray(labels, dtype=np.intp).reshape(-1, 3).T
    # one entry per (label, copy): the label repeated, the copy counted up
    reps = copies[b]
    index = np.repeat(np.arange(len(b)), reps)
    copy = np.arange(len(index)) - np.repeat(np.cumsum(reps) - reps, reps)
    b, r, q, reps = b[index], r[index], q[index], reps[index]
    out[index, row_off[b] + r * reps + copy, col_off[b] + q * reps + copy] = 1.0
    return out


def build_pi(g: GramFactorization, cp: CPBlockMap) -> np.ndarray:
    """Representation of the algebra on K1 induced by left multiplication,
    ``pi(e^b_pq) = E_pq (x) 1_{rank_b}`` in closed form (so well defined
    by construction)."""
    dims = cp.algebra.block_dims
    return amplified_units(cp.algebra.basis_labels, dims, dims, g.ranks)


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
) -> tuple[np.ndarray, np.ndarray, float]:
    """Module representation on the quotient plus the K2 embedding.

    ``Psi(f^b_rq) = E_rq (x) 1_{rank_b}`` in closed form.  The embedding
    columns over ``e_r (x) C^{rank_b}`` are the solution X of
    ``X F_b = T`` with ``T[:, (i, q, beta)] = Phi_i(f^b_rq) e_beta``
    (``tuple_block``); since ``F_b F_b*`` is the diagonal of the kept
    spectrum (to rounding), the least-squares solution is
    ``T F_b* (F_b F_b*)^-1``.  Returns
    (psi_action, k2_embed, worst relative solve residual).
    """
    psi_action = amplified_units(
        tup.module.basis_labels, tup.module.mults, cp.algebra.block_dims, g.ranks
    )
    columns, worst = [], 0.0
    for b, f in enumerate(g.block_factors):
        t = tuple_block(tup, b)
        x = (t @ f.conj().T) / np.einsum("kx,kx->k", f, f.conj()).real
        worst = max(worst, max_rel_residual(x @ f, t))
        columns.append(x.transpose(1, 0, 2).reshape(tup.h2, len(t) * len(f)))
    return psi_action, np.concatenate(columns, axis=1), worst


def build_W(tup: ModuleCPTuple) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """Per-slot coisometries onto the ranges [Phi_i(V) H1] inside H2.

    Row i holds an orthonormal basis of the span of all Phi_i(f) columns;
    a zero map yields a zero-row coisometry.
    """
    h2 = tup.h2
    ws, dims = [], []
    for i in range(tup.n):
        cols = tup.action[i].transpose(1, 0, 2).reshape(h2, -1)
        w = svd_orthobasis(cols).conj().T
        ws.append(w)
        dims.append(w.shape[0])
    return tuple(ws), tuple(dims)


def dilate(inst: Instance, *, welldef_tol: float = DEFAULT_TOL) -> DilationData:
    """Run the full construction on a valid instance (module docstring).

    The output is minimal by construction: K1 is spanned by the images
    ``pi(e) S_i H1`` (they are exactly the factor columns) and K2 by
    ``Psi(f) S_i H1``.  Raises what ``build_gram`` raises at ``welldef_tol``
    for inputs that are not completely n-positive, DimensionTooLargeError
    when pi would have more than ``MAX_PI_ENTRIES`` entries, and
    WellDefinednessError when the K2 embedding solve fails to close at
    ``welldef_tol``.
    """
    eq, c = inst.equilibrated()
    g = build_gram(eq.cp, tol=welldef_tol, tup=eq.tup)
    entries = inst.algebra.dim * g.r1**2
    if entries > MAX_PI_ENTRIES:
        raise DimensionTooLargeError(
            f"pi would have dim A * r1^2 = {entries} entries, above the guardrail {MAX_PI_ENTRIES}"
        )
    pi_action = build_pi(g, eq.cp)
    s_ops = build_S(g, eq.cp)
    psi_action, k2_embed, psi_res = build_psi(g, eq.cp, eq.tup)
    if psi_res > welldef_tol:
        raise WellDefinednessError(
            f"module map is inconsistent on the spanning family "
            f"(residual {psi_res:.3e} > {welldef_tol:.1e})"
        )
    w_ops, k2i_dims = build_W(inst.tup)
    return DilationData(
        r1=g.r1,
        r2=psi_action.shape[1],
        pi_action=pi_action,
        s_ops=s_ops,
        psi_action=psi_action,
        k2_embed=k2_embed,
        w_ops=w_ops,
        k2i_dims=k2i_dims,
        psi_welldef=psi_res,
    ).slots_scaled(c)


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


def span_families(
    inst: Instance, data: DilationData
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The slot maps stacked as ``S[y, (j, k)] = S_j[y, k]`` (r1, n h1), the
    K1 and K2 families ``pi(e_alpha) S`` (dim_A, r1, n h1) and ``Psi(f_gamma) S``
    (dim_V, r2, n h1), and per algebra block b the block span
    ``X_b = [pi(e^b_0q) S_i e_beta]`` over (q, i, beta), (r1, d_b n h1)."""
    n, r1, h1 = data.s_ops.shape
    dim_a, dim_v, r2 = len(data.pi_action), len(data.psi_action), data.r2
    s_cols = data.s_ops.transpose(1, 0, 2).reshape(r1, n * h1)
    pi_s = (data.pi_action.reshape(dim_a * r1, r1) @ s_cols).reshape(dim_a, r1, n * h1)
    psi_s = (data.psi_action.reshape(dim_v * r2, r1) @ s_cols).reshape(dim_v, r2, n * h1)
    spans, off = [], 0
    for d in inst.algebra.block_dims:
        spans.append(pi_s[off : off + d].transpose(1, 0, 2).reshape(r1, d * n * h1))
        off += d * d
    return s_cols, pi_s, psi_s, spans


def minimality_defects(
    inst: Instance, data: DilationData, spans: list[np.ndarray]
) -> tuple[float, float]:
    """``r1`` and ``r2`` minus the ranks of the K1 and K2 families, ``d_b``
    and ``k_b`` copies of each block span ``X_b`` (module docstring).

    This equals the full-family defect only when pi and Psi are
    *-representations; on other data it can differ, and be negative."""
    spectra = [np.linalg.svd(x, compute_uv=False) for x in spans]
    k1_rank = direct_sum_rank(spectra, inst.algebra.block_dims)
    k2_rank = direct_sum_rank(spectra, inst.module.mults)
    return float(data.r1 - k1_rank), float(data.r2 - k2_rank)


def verify_dilation(
    inst: Instance,
    data: DilationData,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Check every asserted identity of the dilation.

    Linear identities are checked on canonical bases;
    ``pi_multiplicativity``, ``psi_module_action`` and
    ``psi_representation`` are checked on the generators ``e^b_p0`` and
    ``f^b_r0`` only, which together with ``pi_star`` and ``pi_unital``
    certifies them on all elements (module docstring).  The full
    basis-pair tables are never read.

    All quantities are relative residuals with denominator
    ``max(|expected|_F, 1)``, on the equilibrated instance (module
    docstring).  The slot-isometry defect
    ``|S_i* S_i - 1|`` equals the unitality defect of phi_ii exactly, so
    it only participates in the pass verdict when every phi_ii is unital
    at the tolerance; it is always reported.
    """
    check_shapes(inst, data)
    # The slot-isometry defects are read on the instance's own scale.
    s_gram = data.s_ops.conj().transpose(0, 2, 1) @ data.s_ops - np.eye(inst.h1)
    s_defect = tuple(np.linalg.norm(s_gram, 2, axis=(1, 2)).tolist())
    unital_defects = tuple(float(v) for v in inst.cp.diag_unital_defects())
    inst, c = inst.equilibrated()
    data = data.slots_scaled(1.0 / c)
    cp, tup = inst.cp, inst.tup
    alg, mod = inst.algebra, inst.module
    dim_a, dim_v = alg.dim, mod.dim
    n, h1, r1, r2 = inst.n, inst.h1, data.r1, data.r2
    pi, psi = data.pi_action, data.psi_action

    # The reconstruction and minimality checks share pi(e) S and Psi(f) S.
    s_cols, pi_s, psi_s, spans = span_families(inst, data)

    # phi_ij(e) = S_i* pi(e) S_j
    recon = (s_cols.conj().T @ pi_s).reshape(dim_a, n, h1, n, h1)
    phi_rec = max_rel_residual(recon.transpose(1, 3, 0, 2, 4), cp.action)

    # pi is a unital *-homomorphism and Psi(f . e) = Psi(f) pi(e), both
    # certified on the generators e^b_p0 of each block (module docstring);
    # differences go into their products, pi denominators are pi_norms'.
    pi_norms = matrix_norms(pi)
    pi_mult = psi_mod = 0.0
    a_off = v_off = 0
    gens, gen_units = [], []  # indices of f^b_r0 and of the matching e^b_00
    for d, k in zip(alg.block_dims, mod.mults):
        units = pi[a_off : a_off + d * d].reshape(d, d, r1, r1)
        col, row = units[:, 0], units[0]  # pi(e_p0), pi(e_0q)
        prod = col[:, None] @ row[None]
        prod -= units
        worst = max_rel_diff(prod, pi_norms[a_off : a_off + d * d].reshape(d, d))
        np.matmul(row[:, None], col[None], out=prod)  # = delta_pq pi(e_00)
        prod.reshape(d * d, r1, r1)[:: d + 1] -= units[0, 0]
        pi_mult = max(pi_mult, worst, max_rel_diff(prod, np.eye(d) * pi_norms[a_off]))
        f = psi[v_off : v_off + k * d].reshape(k, d, r2, r1)
        psi_mod = max(psi_mod, max_rel_residual(f[:, :1] @ row[None], f))
        gens += range(v_off, v_off + k * d, d)
        gen_units += [a_off] * k
        a_off, v_off = a_off + d * d, v_off + k * d
    adjoints = pi[alg.adjoint_table]  # minus the conjugate of pi(e)* - pi(e*)
    np.conjugate(adjoints, out=adjoints)
    adjoints -= pi.transpose(0, 2, 1)
    pi_star = max_rel_diff(adjoints, pi_norms[alg.adjoint_table])
    pi_unital = rel_residual(pi[alg.identity_indices].sum(axis=0), np.eye(r1, dtype=complex))

    # Psi(f)* Psi(g) = pi(<f, g>), certified on the generators as
    # Psi(f^b_r0)* Psi(f^c_s0) = delta_bc delta_rs pi(e^b_00) (module
    # docstring), one generator row at a time
    gen_cols = psi[gens].transpose(1, 0, 2).reshape(r2, len(gens) * r1)
    psi_rep = 0.0
    for a, (gen, unit) in enumerate(zip(gens, gen_units)):
        row = (psi[gen].conj().T @ gen_cols).reshape(r1, len(gens), r1).transpose(1, 0, 2)
        expected = np.zeros((len(gens), r1, r1), dtype=complex)
        expected[a] = pi[unit]
        psi_rep = max(psi_rep, max_rel_residual(row, expected))

    # Phi_i(f) = W_i* Psi(f) S_i, read both directly through the K2
    # embedding and through the range projector; the two must agree.
    emb = (data.k2_embed @ psi_s).reshape(dim_v, inst.h2, n, h1).transpose(2, 0, 1, 3)
    proj_emb = data.range_projectors()[:, None] @ emb
    phi_tuple_rec = max(
        max_rel_residual(emb, tup.action), max_rel_residual(proj_emb, tup.action)
    )
    agreement = max_rel_diff(emb - proj_emb, matrix_norms(tup.action))

    w_coiso = max([rel_residual(w @ w.conj().T, np.eye(len(w), dtype=complex))
                   for w in data.w_ops], default=0.0)

    # Minimality: the span families must exhaust K1 and K2
    k1_defect, k2_defect = minimality_defects(inst, data, spans)

    return VerificationReport(
        phi_reconstruction=phi_rec,
        Phi_reconstruction=phi_tuple_rec,
        pi_multiplicativity=pi_mult,
        pi_star=pi_star,
        pi_unital=pi_unital,
        psi_representation=psi_rep,
        psi_module_action=psi_mod,
        w_coisometry=w_coiso,
        w_reading_agreement=agreement,
        s_isometry_defect=s_defect,
        minimality_k1_defect=k1_defect,
        minimality_k2_defect=k2_defect,
        diag_unital_defects=unital_defects,
        s_isometry_in_pass=all(v <= tol for v in unital_defects),
        tolerance=tol,
    )
