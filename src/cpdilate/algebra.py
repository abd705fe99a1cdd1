"""Concrete finite-dimensional C*-algebra and Hilbert module model.

The algebra is a direct sum of full complex matrix blocks,
``A = M_{d_1} + ... + M_{d_m}``, and the module is the matching direct sum
of rectangular blocks ``V = (k_1 x d_1) + ... + (k_m x d_m)`` with the
right action ``x . a`` given by blockwise matrix product and the A-valued
inner product ``<x, y> = x* y`` blockwise (conjugate linear in the first
variable).  Every finite-dimensional Hilbert module over such an algebra
is of this form up to isomorphism, and the single-block square case is
exactly the bounded-operator module L(H1, H2) over L(H1).

Canonical bases are matrix units ordered lexicographically by
(block, row, column); the multiplication, action, adjoint and
inner-product tables on those bases are cached on the descriptors.
Verification reads only the adjoint and inner-product tables; the
full multiplication and action tables serve as test references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DescriptorMismatchError, NotHermitianError

__all__ = [
    "AlgebraDescriptor",
    "AlgebraElement",
    "ModuleDescriptor",
    "ModuleElement",
    "random_algebra_element",
    "random_module_element",
]


def _as_blocks(blocks, shapes) -> tuple[np.ndarray, ...]:
    out = []
    for arr, shape in zip(blocks, shapes):
        a = np.asarray(arr, dtype=complex)
        if a.shape != shape:
            raise DescriptorMismatchError(f"block shape {a.shape}, descriptor wants {shape}")
        if a.size and not np.isfinite(a).all():
            raise ValueError("non-finite entries in block")
        out.append(a)
    return tuple(out)


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

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(np.zeros((d, d), dtype=complex) for d in self.block_dims)
        )

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(np.eye(d, dtype=complex) for d in self.block_dims)
        )

    def basis_element(self, alpha: int) -> "AlgebraElement":
        b, p, q = self.basis_labels[alpha]
        a = self.zero()
        a.blocks[b][p, q] = 1.0
        return a

    def from_coeffs(self, coeffs: np.ndarray) -> "AlgebraElement":
        coeffs = np.asarray(coeffs, dtype=complex).reshape(self.dim)
        blocks, pos = [], 0
        for d in self.block_dims:
            blocks.append(coeffs[pos : pos + d * d].reshape(d, d))
            pos += d * d
        return AlgebraElement(self, tuple(blocks))


@dataclass(eq=False)
class AlgebraElement:
    """Element of the block algebra; one square matrix per block."""

    descriptor: AlgebraDescriptor
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        shapes = [(d, d) for d in self.descriptor.block_dims]
        self.blocks = _as_blocks(self.blocks, shapes)

    def coeffs(self) -> np.ndarray:
        """Coefficients against the canonical matrix-unit basis."""
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def _check(self, other: "AlgebraElement") -> None:
        if self.descriptor != other.descriptor:
            raise DescriptorMismatchError("elements live over different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.descriptor, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.descriptor, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.descriptor,
                tuple(a @ b for a, b in zip(self.blocks, other.blocks)),
            )
        return AlgebraElement(self.descriptor, tuple(complex(other) * b for b in self.blocks))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.descriptor, tuple(complex(scalar) * b for b in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.descriptor, tuple(b.conj().T for b in self.blocks))

    def norm(self) -> float:
        """C*-norm: largest singular value over the blocks."""
        vals = [np.linalg.norm(b, 2) for b in self.blocks if b.size]
        return float(max(vals)) if vals else 0.0

    def hermiticity_defect(self) -> float:
        return max(
            (float(np.linalg.norm(b - b.conj().T)) for b in self.blocks), default=0.0
        )

    def is_positive(self, tol: float = 1e-12) -> bool:
        """Blockwise minimum-eigenvalue test; requires Hermitian input."""
        scale = max(self.norm(), 1.0)
        if self.hermiticity_defect() > tol * scale:
            raise NotHermitianError("element is not Hermitian at the given tolerance")
        for b in self.blocks:
            if b.size and np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() < -tol * scale:
                return False
        return True


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
        lookup = {lab: idx for idx, lab in enumerate(self.algebra.basis_labels)}
        table = np.full((self.dim, self.dim), -1, dtype=np.intp)
        for g, (b, r, q) in enumerate(self.basis_labels):
            for g2, (b2, r2, q2) in enumerate(self.basis_labels):
                if b == b2 and r == r2:
                    table[g, g2] = lookup[(b, q, q2)]
        return table

    def block_shapes(self) -> list[tuple[int, int]]:
        return [(k, d) for k, d in zip(self.mults, self.algebra.block_dims)]

    def zero(self) -> "ModuleElement":
        return ModuleElement(
            self, tuple(np.zeros(s, dtype=complex) for s in self.block_shapes())
        )

    def basis_element(self, gamma: int) -> "ModuleElement":
        b, r, q = self.basis_labels[gamma]
        x = self.zero()
        x.blocks[b][r, q] = 1.0
        return x

    def from_coeffs(self, coeffs: np.ndarray) -> "ModuleElement":
        coeffs = np.asarray(coeffs, dtype=complex).reshape(self.dim)
        blocks, pos = [], 0
        for k, d in self.block_shapes():
            blocks.append(coeffs[pos : pos + k * d].reshape(k, d))
            pos += k * d
        return ModuleElement(self, tuple(blocks))


@dataclass(eq=False)
class ModuleElement:
    """Element of the module; one rectangular matrix per block."""

    descriptor: ModuleDescriptor
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks, self.descriptor.block_shapes())

    def coeffs(self) -> np.ndarray:
        return np.concatenate([b.reshape(-1) for b in self.blocks]) if self.blocks else np.zeros(0, dtype=complex)

    def _check(self, other: "ModuleElement") -> None:
        if self.descriptor != other.descriptor:
            raise DescriptorMismatchError("elements live over different modules")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(
            self.descriptor, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(
            self.descriptor, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.act(other)
        return ModuleElement(self.descriptor, tuple(complex(other) * b for b in self.blocks))

    def __rmul__(self, scalar) -> "ModuleElement":
        return ModuleElement(self.descriptor, tuple(complex(scalar) * b for b in self.blocks))

    def act(self, a: AlgebraElement) -> "ModuleElement":
        """Right module action x . a, blockwise product."""
        if a.descriptor != self.descriptor.algebra:
            raise DescriptorMismatchError("algebra element over a different algebra")
        return ModuleElement(
            self.descriptor, tuple(x @ ab for x, ab in zip(self.blocks, a.blocks))
        )

    def inner(self, other: "ModuleElement") -> AlgebraElement:
        """Algebra-valued inner product <x, y> = x* y, conjugate linear
        in x and algebra-linear in y."""
        self._check(other)
        return AlgebraElement(
            self.descriptor.algebra,
            tuple(x.conj().T @ y for x, y in zip(self.blocks, other.blocks)),
        )

    def norm(self) -> float:
        """Module norm, |<x, x>|^(1/2)."""
        return float(np.sqrt(self.inner(self).norm()))


def random_algebra_element(desc: AlgebraDescriptor, rng: np.random.Generator) -> AlgebraElement:
    """Standard complex Gaussian entries in every block."""
    return AlgebraElement(
        desc,
        tuple(
            (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
            for d in desc.block_dims
        ),
    )


def random_module_element(desc: ModuleDescriptor, rng: np.random.Generator) -> ModuleElement:
    return ModuleElement(
        desc,
        tuple(
            (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2.0)
            for s in desc.block_shapes()
        ),
    )
