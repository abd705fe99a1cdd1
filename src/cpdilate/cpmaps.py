"""Block families of completely positive maps and compatible module tuples.

Two linear objects are stored as dense action tensors over the canonical
matrix-unit bases:

* ``CPBlockMap``: an n x n family ``phi_ij : A -> L(H1)``, kept as a
  tensor of shape ``(n, n, dim_A, h1, h1)``.  Complete n-positivity of
  the family is equivalent to positive semidefiniteness of one
  compressed Choi matrix per algebra block, of size ``n * d_b * h1``
  with entry block ``[(i, p), (j, q)] = phi_ij(e_pq)``; the compressed
  matrix embeds into the full Choi matrix of the induced map on
  ``M_n(A)`` by an isometry, so the two positivity notions coincide.
* ``ModuleCPTuple``: maps ``Phi_i : V -> L(H1, H2)``, a tensor of shape
  ``(n, dim_V, h2, h1)``.

An ``Instance`` bundles a compatible pair.  Compatibility means
``Phi_i(x)* Phi_j(y) = phi_ij(<x, y>)`` for all x, y; by sesquilinearity
it suffices to check all basis pairs, which is what
``compatibility_residual`` does.

``random_instance`` generates valid instances by reverse construction:
it first builds dilation-shaped data (a blockwise representation with
multiplicity, truncated Haar isometries, and an isometric embedding of
the generated range into H2) and then reads the map family off that
data, so validity is exact by construction rather than enforced by
rejection sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, ModuleDescriptor, ModuleElement
from .errors import (
    DescriptorMismatchError,
    DimensionTooSmallError,
    HermiticityViolationError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOL, matrix_norms, svd_orthobasis

__all__ = [
    "CPBlockMap",
    "ModuleCPTuple",
    "Instance",
    "haar_unitary",
    "random_instance",
    "identity_instance",
]


@dataclass(eq=False)
class CPBlockMap:
    """n x n family of linear maps from the algebra into L(H1)."""

    algebra: AlgebraDescriptor
    n: int
    h1: int
    action: np.ndarray = field(repr=False)  # (n, n, dim_A, h1, h1)

    def __post_init__(self):
        self.action = np.asarray(self.action, dtype=complex)
        want = (self.n, self.n, self.algebra.dim, self.h1, self.h1)
        if self.action.shape != want:
            raise ShapeMismatchError(f"cp action shape {self.action.shape}, want {want}")
        if self.n < 1 or self.h1 < 1:
            raise ValueError("n and h1 must be >= 1")
        if self.action.size and not np.isfinite(self.action).all():
            raise ValueError("non-finite entries in cp action")

    def apply(self, i: int, j: int, a: AlgebraElement) -> np.ndarray:
        """phi_ij(a) by linear extension of the basis action."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"slot ({i}, {j}) outside 0..{self.n - 1}")
        if a.descriptor != self.algebra:
            raise DescriptorMismatchError("element over a different algebra")
        return np.tensordot(a.coeffs(), self.action[i, j], axes=(0, 0))

    def hermiticity_defect(self) -> float:
        """Max relative defect of phi_ij(a*) = phi_ji(a)* on basis units."""
        adj = self.algebra.adjoint_table
        lhs = self.action[:, :, adj]                       # phi_ij(e_alpha*)
        rhs = self.action.conj().transpose(1, 0, 2, 4, 3)  # phi_ji(e_alpha)*
        denom = np.maximum(matrix_norms(rhs), 1.0)
        return float((matrix_norms(lhs - rhs) / denom).max())

    def choi_block(self, b: int) -> np.ndarray:
        """Compressed Choi matrix of the family on algebra block b.

        Size ``n * d_b * h1`` with row index (slot, block-row, H1) and
        entry block ``[(i, p), (j, q)] = phi_ij(e_pq)``.  Hermitian
        whenever the Hermiticity pattern holds; PSD for every block iff
        the family is completely n-positive.
        """
        if not 0 <= b < self.algebra.nblocks:
            raise IndexError(f"block {b} outside 0..{self.algebra.nblocks - 1}")
        d = self.algebra.block_dims[b]
        off = sum(dd * dd for dd in self.algebra.block_dims[:b])
        sub = self.action[:, :, off : off + d * d].reshape(
            self.n, self.n, d, d, self.h1, self.h1
        )
        side = self.n * d * self.h1
        return sub.transpose(0, 2, 4, 1, 3, 5).reshape(side, side)

    def diagonal_choi(self, i: int, b: int) -> np.ndarray:
        """Choi matrix of the single diagonal map phi_ii on block b."""
        if not 0 <= i < self.n:
            raise IndexError(f"slot {i} outside 0..{self.n - 1}")
        d = self.algebra.block_dims[b]
        off = sum(dd * dd for dd in self.algebra.block_dims[:b])
        sub = self.action[i, i, off : off + d * d].reshape(d, d, self.h1, self.h1)
        side = d * self.h1
        return sub.transpose(0, 2, 1, 3).reshape(side, side)

    def is_completely_n_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """PSD test of every compressed per-block Choi matrix."""
        if self.hermiticity_defect() > tol:
            raise HermiticityViolationError(
                "phi_ij(a*) != phi_ji(a)* beyond tolerance; the family cannot "
                "induce a Hermitian form"
            )
        for b in range(self.algebra.nblocks):
            c = self.choi_block(b)
            w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
            if w[0] < -tol * max(float(w[-1]), 1.0):
                return False
        return True

    def diagonal_is_cp(self, i: int, tol: float = DEFAULT_TOL) -> bool:
        """Whether the single map phi_ii is completely positive."""
        for b in range(self.algebra.nblocks):
            c = self.diagonal_choi(i, b)
            w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
            if w[0] < -tol * max(float(w[-1]), 1.0):
                return False
        return True

    def diag_unital_defects(self) -> np.ndarray:
        """Spectral-norm distance of each phi_ii(1) from the identity."""
        ident = self.algebra.identity()
        return np.array(
            [
                np.linalg.norm(self.apply(i, i, ident) - np.eye(self.h1), 2)
                for i in range(self.n)
            ]
        )


@dataclass(eq=False)
class ModuleCPTuple:
    """n-tuple of linear maps from the module into L(H1, H2)."""

    module: ModuleDescriptor
    n: int
    h1: int
    h2: int
    action: np.ndarray = field(repr=False)  # (n, dim_V, h2, h1)

    def __post_init__(self):
        self.action = np.asarray(self.action, dtype=complex)
        want = (self.n, self.module.dim, self.h2, self.h1)
        if self.action.shape != want:
            raise ShapeMismatchError(f"tuple action shape {self.action.shape}, want {want}")
        if self.n < 1 or self.h1 < 1 or self.h2 < 1:
            raise ValueError("n, h1, h2 must be >= 1")
        if self.action.size and not np.isfinite(self.action).all():
            raise ValueError("non-finite entries in tuple action")

    def apply(self, i: int, x: ModuleElement) -> np.ndarray:
        """Phi_i(x) by linear extension of the basis action."""
        if not 0 <= i < self.n:
            raise IndexError(f"slot {i} outside 0..{self.n - 1}")
        if x.descriptor != self.module:
            raise DescriptorMismatchError("element over a different module")
        return np.tensordot(x.coeffs(), self.action[i], axes=(0, 0))


@dataclass(eq=False)
class Instance:
    """A compatible (cp family, module tuple) pair plus provenance."""

    cp: CPBlockMap
    tup: ModuleCPTuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cp.n != self.tup.n or self.cp.h1 != self.tup.h1:
            raise ShapeMismatchError("cp family and tuple disagree on n or h1")
        if self.cp.algebra != self.tup.module.algebra:
            raise ShapeMismatchError("cp family and tuple live over different algebras")

    @property
    def n(self) -> int:
        return self.cp.n

    @property
    def h1(self) -> int:
        return self.cp.h1

    @property
    def h2(self) -> int:
        return self.tup.h2

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.cp.algebra

    @property
    def module(self) -> ModuleDescriptor:
        return self.tup.module

    def compatibility_residual(self) -> float:
        """Max over slots and basis pairs of the relative defect of
        ``Phi_i(f)* Phi_j(g) = phi_ij(<f, g>)``.

        Basis pairs suffice because both sides are sesquilinear in (f, g).
        """
        inner = self.module.inner_table
        dim_v = self.module.dim
        h1 = self.h1
        worst = 0.0
        mask = inner >= 0
        for i in range(self.n):
            ti = self.tup.action[i]
            for j in range(self.n):
                tj = self.tup.action[j]
                lhs = np.einsum("gax,day->gdxy", ti.conj(), tj)
                exp = np.zeros((dim_v, dim_v, h1, h1), dtype=complex)
                exp[mask] = self.cp.action[i, j][inner[mask]]
                denom = np.maximum(matrix_norms(exp), 1.0)
                worst = max(worst, float((matrix_norms(lhs - exp) / denom).max()))
        return worst

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        return self.cp.is_completely_n_positive(tol) and self.compatibility_residual() <= tol


def haar_unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix
    with the phase fix that makes the distribution exactly invariant."""
    if size == 0:
        return np.zeros((0, 0), dtype=complex)
    z = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * ph.conj()


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
    row_off = np.concatenate([[0], np.cumsum([d * c for d, c in zip(row_dims, copies)])])
    col_off = np.concatenate([[0], np.cumsum([d * c for d, c in zip(col_dims, copies)])])
    out = np.zeros((len(labels), int(row_off[-1]), int(col_off[-1])), dtype=complex)
    for index, (b, r, q) in enumerate(labels):
        copy = np.arange(copies[b])
        out[index, row_off[b] + r * copies[b] + copy, col_off[b] + q * copies[b] + copy] = 1.0
    return out


def random_instance(
    seed: int,
    n: int,
    block_dims,
    mults,
    h1: int,
    h2: int,
    k1_extra: int = 0,
    k2_extra: int = 0,
    slot_scales=None,
) -> Instance:
    """Seeded valid instance by reverse construction.

    Builds a blockwise representation ``pi`` with uniform multiplicity
    ``1 + k1_extra`` (raised further if needed so the carrier space can
    host H1), truncated Haar unitaries as the slot isometries, the
    matching module representation, and an isometric embedding of the
    generated range into H2 (padded by up to ``k2_extra`` Haar
    directions).  The returned maps are read off that data, so the
    instance is completely n-positive and compatible up to rounding.

    ``slot_scales`` optionally scales slot i by ``c_i`` (phi_ij picks up
    ``c_i c_j``), which preserves validity but makes phi_ii non-unital
    for ``c_i != 1``.

    Raises DimensionTooSmallError when H2 cannot host the generated
    range.  Deterministic: one seed, one bit-exact instance.
    """
    desc = AlgebraDescriptor(tuple(block_dims))
    mdesc = ModuleDescriptor(desc, tuple(mults))
    if n < 1 or h1 < 1 or h2 < 1:
        raise DimensionTooSmallError("n, h1 and h2 must all be >= 1")
    if k1_extra < 0 or k2_extra < 0:
        raise ValueError("slack parameters must be >= 0")

    rng = np.random.default_rng(seed)
    sum_d = sum(desc.block_dims)
    mult = max(1 + k1_extra, math.ceil(h1 / sum_d))
    copies = [mult] * desc.nblocks
    pi_t = amplified_units(desc.basis_labels, desc.block_dims, desc.block_dims, copies)
    psi_t = amplified_units(mdesc.basis_labels, mdesc.mults, desc.block_dims, copies)
    dim1, dim2 = pi_t.shape[1], psi_t.shape[1]

    s_ops = np.stack([haar_unitary(rng, dim1)[:, :h1] for _ in range(n)])

    cp_action = np.einsum("ixh,axy,jyk->ijahk", s_ops.conj(), pi_t, s_ops)

    # Range of the generated module representation composed with the
    # slot isometries; only this subspace must fit inside H2.
    span = np.einsum("gyx,ixh->ygih", psi_t, s_ops).reshape(dim2, -1)
    basis = svd_orthobasis(span, 1e-12)
    needed = basis.shape[1]
    if needed > h2:
        raise DimensionTooSmallError(
            f"h2 = {h2} cannot host the generated range of dimension {needed}"
        )
    pad = min(h2, needed + k2_extra)
    inner_iso = haar_unitary(rng, pad)[:, :needed]
    outer_iso = haar_unitary(rng, h2)[:, :pad]
    embed = outer_iso @ inner_iso @ basis.conj().T  # (h2, dim2)

    tup_action = np.einsum("yz,gzx,ixh->igyh", embed, psi_t, s_ops)

    if slot_scales is not None:
        scales = np.asarray(slot_scales, dtype=float)
        if scales.shape != (n,):
            raise ValueError(f"slot_scales must have length {n}")
        cp_action = cp_action * scales[:, None, None, None, None] * scales[None, :, None, None, None]
        tup_action = tup_action * scales[:, None, None, None]

    meta = {
        "seed": int(seed),
        "n": int(n),
        "block_dims": [int(d) for d in desc.block_dims],
        "mults": [int(k) for k in mdesc.mults],
        "h1": int(h1),
        "h2": int(h2),
        "k1_extra": int(k1_extra),
        "k2_extra": int(k2_extra),
    }
    cp = CPBlockMap(desc, n, h1, cp_action)
    tup = ModuleCPTuple(mdesc, n, h1, h2, tup_action)
    return Instance(cp, tup, meta)


def identity_instance(d: int) -> Instance:
    """The n=1 identity pair on a single block: A = V = L(H1) with
    phi = Phi = id and h1 = h2 = d."""
    desc = AlgebraDescriptor((d,))
    mdesc = ModuleDescriptor(desc, (d,))
    cp_action = np.zeros((1, 1, desc.dim, d, d), dtype=complex)
    for alpha, (_, p, q) in enumerate(desc.basis_labels):
        cp_action[0, 0, alpha, p, q] = 1.0
    tup_action = np.zeros((1, mdesc.dim, d, d), dtype=complex)
    for gamma, (_, r, q) in enumerate(mdesc.basis_labels):
        tup_action[0, gamma, r, q] = 1.0
    return Instance(
        CPBlockMap(desc, 1, d, cp_action),
        ModuleCPTuple(mdesc, 1, d, d, tup_action),
        {"kind": "identity", "d": int(d)},
    )
