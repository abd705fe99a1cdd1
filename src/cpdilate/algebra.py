"""Concrete finite-dimensional C*-algebra and Hilbert module model.

The algebra is a direct sum of full complex matrix blocks,
``A = M_{d_1} + ... + M_{d_m}``, and the module is the matching direct sum
of rectangular blocks ``V = (k_1 x d_1) + ... + (k_m x d_m)`` with the
right action ``x . a`` given by blockwise matrix product and the A-valued
inner product ``<x, y> = x* y`` blockwise (conjugate linear in the first
variable).  Every finite-dimensional Hilbert module over such an algebra
is of this form up to isomorphism, and the single-block square case is
exactly the bounded-operator module L(H1, H2) over L(H1).

There is no element type: an element of A or V is its coefficient vector
over the canonical matrix units, ordered lexicographically by
(block, row, column), and maps on A or V are action tensors indexed by
those units.  The descriptors below are the whole model.  They carry the
basis labels and the index tables of the structure maps on the units:
adjoint, identity, product, module action and inner product.  The
library reads the adjoint and identity tables and the inner-product
pairs; the other tables serve the tests and the benchmark tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["AlgebraDescriptor", "ModuleDescriptor"]


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Shape of the algebra: one positive dimension per matrix block."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))
        if not self.block_dims:
            raise ValueError("algebra needs at least one block")
        if any(d < 1 for d in self.block_dims):
            raise ValueError(f"block dims must be >= 1, got {self.block_dims}")

    @property
    def nblocks(self) -> int:
        return len(self.block_dims)

    @cached_property
    def dim(self) -> int:
        """Linear dimension, sum of squared block dims."""
        return int(sum(d * d for d in self.block_dims))

    @cached_property
    def basis_labels(self) -> tuple[tuple[int, int, int], ...]:
        """(block, row, col) label of each canonical basis matrix unit."""
        return tuple(
            (b, p, q)
            for b, d in enumerate(self.block_dims)
            for p in range(d)
            for q in range(d)
        )

    @cached_property
    def adjoint_table(self) -> np.ndarray:
        """Index of e_alpha* for each basis index alpha."""
        lookup = {lab: idx for idx, lab in enumerate(self.basis_labels)}
        return np.array(
            [lookup[(b, q, p)] for (b, p, q) in self.basis_labels], dtype=np.intp
        )

    @cached_property
    def product_table(self) -> np.ndarray:
        """Index of e_alpha e_beta (matrix-unit relations), -1 when zero."""
        lookup = {lab: idx for idx, lab in enumerate(self.basis_labels)}
        table = np.full((self.dim, self.dim), -1, dtype=np.intp)
        for i, (b, p, q) in enumerate(self.basis_labels):
            for j, (b2, p2, q2) in enumerate(self.basis_labels):
                if b == b2 and q == p2:
                    table[i, j] = lookup[(b, p, q2)]
        return table

    @cached_property
    def identity_indices(self) -> np.ndarray:
        """Basis indices whose sum is the unit element."""
        return np.array(
            [i for i, (b, p, q) in enumerate(self.basis_labels) if p == q],
            dtype=np.intp,
        )


@dataclass(frozen=True)
class ModuleDescriptor:
    """Shape of the Hilbert module: one row count per algebra block."""

    algebra: AlgebraDescriptor
    mults: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(int(k) for k in self.mults))
        if len(self.mults) != self.algebra.nblocks:
            raise ValueError("one multiplicity per algebra block required")
        if any(k < 0 for k in self.mults):
            raise ValueError("multiplicities must be >= 0")
        if all(k == 0 for k in self.mults):
            raise ValueError("at least one multiplicity must be >= 1")

    @cached_property
    def dim(self) -> int:
        return int(sum(k * d for k, d in zip(self.mults, self.algebra.block_dims)))

    @property
    def is_full(self) -> bool:
        """Whether the inner products generate the whole algebra
        (every block carries at least one module row).  Reported for
        information; nothing in the construction requires it."""
        return all(k >= 1 for k in self.mults)

    @cached_property
    def basis_labels(self) -> tuple[tuple[int, int, int], ...]:
        """(block, row, col) label of each canonical module matrix unit."""
        return tuple(
            (b, r, q)
            for b, (k, d) in enumerate(zip(self.mults, self.algebra.block_dims))
            for r in range(k)
            for q in range(d)
        )

    @cached_property
    def action_table(self) -> np.ndarray:
        """Index of f_gamma . e_alpha, -1 when zero."""
        lookup = {lab: idx for idx, lab in enumerate(self.basis_labels)}
        table = np.full((self.dim, self.algebra.dim), -1, dtype=np.intp)
        for g, (b, r, q) in enumerate(self.basis_labels):
            for a, (b2, p2, q2) in enumerate(self.algebra.basis_labels):
                if b == b2 and q == p2:
                    table[g, a] = lookup[(b, r, q2)]
        return table

    @cached_property
    def inner_table(self) -> np.ndarray:
        """Algebra basis index of <f_gamma, f_delta>, -1 when zero."""
        table = np.full((self.dim, self.dim), -1, dtype=np.intp)
        gamma, delta, alpha = self.inner_pairs
        table[gamma, delta] = alpha
        return table

    @cached_property
    def inner_pairs(self) -> np.ndarray:
        """Rows (gamma, delta, alpha) over the ``sum_b k_b d_b^2`` unit pairs with
        ``<f_gamma, f_delta> = e_alpha != 0``: ``<f^b_rq, f^b_rq'> = e^b_qq'``."""
        pairs, g0, a0 = [], 0, 0
        for k, d in zip(self.mults, self.algebra.block_dims):
            pairs += [(r + q, r + q2, a0 + q * d + q2)  # r: first unit of a module row
                      for r in range(g0, g0 + k * d, d) for q in range(d) for q2 in range(d)]
            g0, a0 = g0 + k * d, a0 + d * d
        return np.array(pairs, dtype=np.intp).reshape(-1, 3).T
