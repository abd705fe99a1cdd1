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
it suffices to check all basis pairs, which ``compatibility_residual`` does;
as ``<x, y> = x* y`` vanishes across blocks and module rows, only
``sum_b k_b d_b^2`` of the ``dim_V^2`` unit pairs expect a nonzero value.

``random_instance`` generates valid instances by reverse construction:
it draws dilation-shaped data (truncated Haar isometries S_i into a
carrier with a blockwise representation ``pi``, and an isometric
embedding of the generated range into H2) and then reads the map family
off that data, block by block, so validity is exact by construction
rather than enforced by rejection sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraDescriptor, ModuleDescriptor
from .errors import (CPDilateError, DimensionTooSmallError, HermiticityViolationError,
                     ShapeMismatchError)
from .linalg import DEFAULT_TOL, max_rel_residual, negative_at_scale, svd_orthobasis

__all__ = [
    "CPBlockMap",
    "ModuleCPTuple",
    "Instance",
    "haar_unitary",
    "carrier_mult",
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

    def hermiticity_defect(self) -> float:
        """Max relative defect of phi_ij(a*) = phi_ji(a)* on basis units:
        ``max_rel_residual`` of every ``phi_ij(e_alpha)`` against
        ``phi_ji(e_alpha*)*``.  Cost: one gather of the action (reindexed
        by the bijection alpha -> alpha*) and a few passes."""
        rhs = self.action.transpose(1, 0, 2, 4, 3)[:, :, self.algebra.adjoint_table].conj()
        return max_rel_residual(self.action, rhs)

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

    def slot_scales(self) -> np.ndarray:
        """Per slot i, the power of two nearest (in log2) to ``sqrt(max
        diag phi_ii / max over slots)``, or 1 for a zero slot: exact to
        rescale by, and 1 for slots within sqrt(2) of the largest."""
        n, h1 = self.n, self.h1
        diag = self.action.reshape(n * n, -1, h1 * h1)[:: n + 1, self.algebra.identity_indices]
        peaks = diag[:, :, :: h1 + 1].real.max(axis=(1, 2)).tolist()  # of phi_ii(e^b_qq)
        top = max(peaks)
        exps = [round(0.5 * (math.log2(p) - math.log2(top))) if p > 0 else 0 for p in peaks]
        return np.array([2.0**e for e in exps])

    def check_hermiticity(self, tol: float = DEFAULT_TOL) -> None:
        """Raise HermiticityViolationError when ``hermiticity_defect`` exceeds tol."""
        defect = self.hermiticity_defect()
        if defect > tol:
            raise HermiticityViolationError(
                f"Hermiticity pattern defect {defect:.3e} exceeds tolerance {tol:.1e}: "
                "phi_ij(a*) != phi_ji(a)*, so the family cannot induce a Hermitian form"
            )

    def is_completely_n_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """``check_hermiticity``, then a PSD test of every compressed Choi block:
        ``is_valid``'s verdict-only path, without ``dilation.build_gram``'s factors."""
        self.check_hermiticity(tol)
        for b in range(self.algebra.nblocks):
            c = self.choi_block(b)
            w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
            if negative_at_scale(float(w[0]), float(w[-1]), tol):
                return False
        return True

    def diag_unital_defects(self) -> np.ndarray:
        """Spectral-norm distance of each phi_ii(1) from the identity."""
        one = np.zeros(self.algebra.dim, dtype=complex)  # coefficients of the unit
        one[self.algebra.identity_indices] = 1.0
        k = np.arange(self.n)
        images = one @ self.action[k, k].reshape(self.n, self.algebra.dim, -1)
        images = images.reshape(self.n, self.h1, self.h1)
        return np.linalg.norm(images - np.eye(self.h1), 2, axis=(1, 2))


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
        Only the pairs of ``module.inner_pairs`` expect a nonzero value; every
        other tile must vanish (denominator 1).  Cost: one Gram product of the
        tuple, ``phi`` subtracted on the paired tiles, and one ``einsum`` for
        every squared tile norm: ``max_rel_residual``, squared tile by tile."""
        n, dim_v, h1 = self.n, self.module.dim, self.h1
        f, g, units = self.module.inner_pairs
        cols = self.tup.action.transpose(2, 0, 1, 3).reshape(self.h2, n * dim_v * h1)
        gram = cols.conj().T @ cols
        phi = self.cp.action[:, :, units]  # phi_ij(<f, g>) for each pair
        gram.reshape(n, dim_v, h1, n, dim_v, h1)[:, f, :, :, g] -= phi.transpose(2, 0, 3, 1, 4)
        parts = gram.view(float).reshape(n * dim_v, h1, n * dim_v, 2 * h1)
        squares = np.einsum("ahbk,ahbk->ab", parts, parts)  # squared tile norms
        expected = np.add.reduce(np.square(phi.view(float)), axis=(3, 4)).transpose(2, 0, 1)
        squares.reshape(n, dim_v, n, dim_v)[:, f, :, g] /= np.maximum(expected, 1.0)
        return math.sqrt(squares.max())

    def check_compatible(self, tol: float = DEFAULT_TOL) -> float:
        """``compatibility_residual``, or CPDilateError when it exceeds tol."""
        compat = self.compatibility_residual()
        if compat > tol:
            raise CPDilateError(f"tuple is not compatible with the map family "
                                f"(residual {compat:.3e})")
        return compat

    def slots_scaled(self, factors) -> Instance:
        """Slot i scaled by ``factors[i]``: ``phi_ij -> f_i f_j phi_ij`` and
        ``Phi_i -> f_i Phi_i``, which keeps validity."""
        f = np.asarray(factors, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"slot scales must have length {self.n}")
        cp = self.cp.action * f[:, None, None, None, None] * f[None, :, None, None, None]
        tup = self.tup.action * f[:, None, None, None]
        return Instance(CPBlockMap(self.algebra, self.n, self.h1, cp),
                        ModuleCPTuple(self.module, self.n, self.h1, self.h2, tup), self.meta)

    def equilibrated(self) -> tuple[Instance, np.ndarray]:
        """Slot i divided by ``c_i = cp.slot_scales()[i]``, and c; itself when
        every ``c_i`` is 1.  Slot scaling is the congruence ``D C_b D``, which
        no rank decision or verdict should see: all are taken on this."""
        c = self.cp.slot_scales()
        return (self if (c == 1.0).all() else self.slots_scaled(1.0 / c)), c

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        """Positivity and compatibility at ``tol``, judged as ``dilate`` judges them.
        Never raises on a verdict: a Hermiticity break is False."""
        eq, _ = self.equilibrated()
        try:
            return eq.cp.is_completely_n_positive(tol) and eq.compatibility_residual() <= tol
        except HermiticityViolationError:
            return False


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


def carrier_mult(block_dims, h1: int, k1_extra: int) -> int:
    """Multiplicity of every block in ``random_instance``'s carrier
    representation, of side ``sum(block_dims) * carrier_mult``: ``1 +
    k1_extra``, raised so that the carrier can host H1."""
    return max(1 + k1_extra, math.ceil(h1 / max(sum(block_dims), 1)))


def random_instance(
    seed: int,
    n: int,
    block_dims,
    mults,
    h1: int,
    h2: int,
    k1_extra: int = 0,
    k2_extra: int = 0,
) -> Instance:
    """Seeded valid instance by reverse construction.

    Draws truncated Haar unitaries as the slot isometries S_i into a
    carrier with a blockwise representation ``pi(e^b_pq) = E_pq (x) 1``
    of uniform multiplicity ``1 + k1_extra`` (raised further if needed so
    the carrier can host H1), and an isometric embedding of the range of
    the matching module map ``psi`` into H2 (padded by up to ``k2_extra``
    Haar directions).  ``phi_ij(a) = S_i* pi(a) S_j`` and ``Phi_i(x) =
    embed psi(x) S_i`` are products of the carrier blocks of the S_i, one
    algebra block at a time (``pi`` and ``psi`` are never built), so the
    instance is completely n-positive and compatible up to rounding.

    Raises DimensionTooSmallError when H2 cannot host the generated
    range, whose rank (``svd_orthobasis``) lies decades from the cutoff.
    Deterministic: one seed, one bit-exact instance.
    """
    desc = AlgebraDescriptor(tuple(block_dims))
    mdesc = ModuleDescriptor(desc, tuple(mults))
    if n < 1 or h1 < 1 or h2 < 1:
        raise DimensionTooSmallError("n, h1 and h2 must all be >= 1")
    if k1_extra < 0 or k2_extra < 0:
        raise ValueError("slack parameters must be >= 0")

    rng = np.random.default_rng(seed)
    dims, ks = desc.block_dims, mdesc.mults
    copies = carrier_mult(dims, h1, k1_extra)
    s_ops = np.stack([haar_unitary(rng, sum(dims) * copies)[:, :h1] for _ in range(n)])
    # carrier block b: X_b[i, p, copy, beta] = S_i[(b, p, copy), beta]
    xs = [x.reshape(n, d, copies, h1)
          for x, d in zip(np.split(s_ops, np.cumsum(dims[:-1]) * copies, axis=1), dims)]
    k_off = np.cumsum([0, *ks]) * copies  # rows (b, r, copy) of psi's range
    g_off = np.cumsum([0, *(k * d for k, d in zip(ks, dims))])  # module labels

    # phi_ij(e^b_pq) = S_i* pi(e^b_pq) S_j = sum_copy X_b[i, p]* X_b[j, q];
    # einsum adds the copies in order, as the dense product did (BLAS would not)
    cp_action = np.concatenate(
        [np.einsum("ipch,jqck->ijpqhk", x.conj(), x, order="C").reshape(n, n, d * d, h1, h1)
         for x, d in zip(xs, dims)], axis=2)

    # Range of the generated module representation composed with the
    # slot isometries; only this subspace must fit inside H2.  Column
    # (f^b_rq, i, beta) is X_b[i, q, :, beta] on the rows (b, r, :).
    span = np.zeros((k_off[-1], mdesc.dim, n, h1), dtype=complex)
    for b, (x, d, k) in enumerate(zip(xs, dims, ks)):
        rows, diag = span[k_off[b] : k_off[b + 1], g_off[b] : g_off[b + 1]], np.arange(k)
        rows.reshape(k, copies, k, d, n, h1)[diag, :, diag] = x.transpose(2, 1, 0, 3)
    basis = svd_orthobasis(span.reshape(k_off[-1], -1))
    needed = basis.shape[1]
    if needed > h2:
        raise DimensionTooSmallError(
            f"h2 = {h2} cannot host the generated range of dimension {needed}"
        )
    pad = min(h2, needed + k2_extra)
    inner_iso = haar_unitary(rng, pad)[:, :needed]
    outer_iso = haar_unitary(rng, h2)[:, :pad]
    embed = outer_iso @ inner_iso @ basis.conj().T  # (h2, sum k_b * copies)

    # Phi_i(f^b_rq) = embed psi(f^b_rq) S_i = sum_copy embed[:, (b, r, copy)] X_b[i, q]
    tup_action = np.concatenate(
        [np.einsum("yrc,iqch->irqyh", embed[:, k_off[b] : k_off[b + 1]].reshape(h2, k, copies),
                   x, order="C").reshape(n, k * d, h2, h1)
         for b, (x, d, k) in enumerate(zip(xs, dims, ks))], axis=1)

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
    return Instance(CPBlockMap(desc, n, h1, cp_action),
                    ModuleCPTuple(mdesc, n, h1, h2, tup_action), meta)


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
