"""The descriptor tables are the library's model of A and V.

Each table is checked entry by entry against the dense matrix-unit
oracle, and elements (coefficient vectors) combined through the tables
are checked to satisfy the C*-algebra and Hilbert-module identities.
"""

import numpy as np

from conftest import algebra_units, module_units
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor

# Three blocks of different sizes and a block that carries no module rows.
ALG = AlgebraDescriptor((2, 1, 3))
MOD = ModuleDescriptor(ALG, (2, 0, 1))
E = algebra_units(ALG)
F = module_units(MOD)


def unit_or_zero(units, index) -> np.ndarray:
    """The unit at a table entry, or zero for the entry -1."""
    return units[index] if index >= 0 else np.zeros_like(units[0])


def gaussian(rng, size) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def scatter(table, weights, size) -> np.ndarray:
    """Coefficients of ``sum weights[i, j] * unit[table[i, j]]``."""
    out = np.zeros(size, dtype=complex)
    mask = table >= 0
    np.add.at(out, table[mask], weights[mask])
    return out


def product(a, b):
    return scatter(ALG.product_table, np.outer(a, b), ALG.dim)


def adjoint(a):
    out = np.empty_like(a)
    out[ALG.adjoint_table] = a.conj()
    return out


def act(x, a):
    return scatter(MOD.action_table, np.outer(x, a), MOD.dim)


def inner(x, y):
    return scatter(MOD.inner_table, np.outer(x.conj(), y), ALG.dim)


def dense(a) -> np.ndarray:
    return np.tensordot(a, E, axes=1)


def norm(a) -> float:
    return float(np.linalg.norm(dense(a), 2))


def module_norm(x) -> float:
    return float(np.sqrt(norm(inner(x, x))))


def unit() -> np.ndarray:
    one = np.zeros(ALG.dim, dtype=complex)
    one[ALG.identity_indices] = 1.0
    return one


class TestAlgebraOps:
    def test_unit_is_neutral(self):
        idx = ALG.identity_indices
        assert len(set(idx.tolist())) == len(idx) == sum(ALG.block_dims)
        assert np.array_equal(E[idx].sum(axis=0), np.eye(6))
        a = gaussian(np.random.default_rng(0), ALG.dim)
        assert np.array_equal(product(unit(), a), a)
        assert np.array_equal(product(a, unit()), a)

    def test_matrix_unit_relations(self):
        table = ALG.product_table
        for alpha in range(ALG.dim):
            for beta in range(ALG.dim):
                assert np.array_equal(E[alpha] @ E[beta], unit_or_zero(E, table[alpha, beta]))

    def test_product_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b = gaussian(rng, ALG.dim), gaussian(rng, ALG.dim)
            da, db = dense(a), dense(b)
            side = len(da)
            brute = [[sum(da[p, k] * db[k, q] for k in range(side)) for q in range(side)]
                     for p in range(side)]
            assert np.allclose(dense(product(a, b)), brute, rtol=0, atol=1e-13)

    def test_adjoint(self):
        for alpha, star in enumerate(ALG.adjoint_table):
            assert np.array_equal(E[alpha].conj().T, E[star])
        assert np.array_equal(adjoint(unit()), unit())

    def test_adjoint_antimultiplicative(self):
        rng = np.random.default_rng(1)
        a, b = gaussian(rng, ALG.dim), gaussian(rng, ALG.dim)
        lhs, rhs = adjoint(product(a, b)), product(adjoint(b), adjoint(a))
        assert norm(lhs - rhs) <= 1e-14 * max(norm(a) * norm(b), 1.0)

    def test_positivity(self):
        a = gaussian(np.random.default_rng(2), ALG.dim)
        square = dense(product(adjoint(a), a))
        assert np.allclose(square, square.conj().T, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(square).min() >= -1e-12 * norm(a) ** 2

    def test_cstar_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = gaussian(rng, ALG.dim)
            assert abs(norm(product(adjoint(a), a)) - norm(a) ** 2) <= 1e-10 * norm(a) ** 2


class TestModuleOps:
    def test_inner_of_basis_unit(self):
        table = MOD.inner_table
        for gamma in range(MOD.dim):
            for delta in range(MOD.dim):
                expected = unit_or_zero(E, table[gamma, delta])
                assert np.array_equal(F[gamma].conj().T @ F[delta], expected)

    def test_inner_pairs_are_the_nonzero_inner_products(self):
        shapes = [((2, 1, 3), (2, 0, 1)), ((1,) * 80, (1,) * 80), ((3, 2), (0, 2)), ((4,), (3,))]
        for block_dims, mults in shapes:
            alg = AlgebraDescriptor(block_dims)
            mod = ModuleDescriptor(alg, mults)
            e, f = algebra_units(alg), module_units(mod)
            gamma, delta, alpha = mod.inner_pairs
            assert len(alpha) == sum(k * d * d for k, d in zip(mults, block_dims))
            for g, dl, a in zip(gamma, delta, alpha):
                assert np.array_equal(f[g].conj().T @ f[dl], e[a])
            nonzero = [(g, dl) for g in range(mod.dim) for dl in range(mod.dim)
                       if (f[g].conj().T @ f[dl]).any()]
            assert nonzero == list(zip(gamma.tolist(), delta.tolist()))

    def test_inner_algebra_linearity(self):
        rng = np.random.default_rng(6)
        x, y, a = gaussian(rng, MOD.dim), gaussian(rng, MOD.dim), gaussian(rng, ALG.dim)
        lhs, rhs = inner(x, act(y, a)), product(inner(x, y), a)
        assert norm(lhs - rhs) <= 1e-13 * max(norm(rhs), 1.0)

    def test_inner_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(7)
        x, y = gaussian(rng, MOD.dim), gaussian(rng, MOD.dim)
        assert norm(adjoint(inner(x, y)) - inner(y, x)) <= 1e-14
        assert np.linalg.eigvalsh(dense(inner(x, x))).min() >= -1e-12

    def test_action_unit_and_matrix_units(self):
        table = MOD.action_table
        assert table.shape == (MOD.dim, ALG.dim)
        for gamma in range(MOD.dim):
            for alpha in range(ALG.dim):
                assert np.array_equal(F[gamma] @ E[alpha], unit_or_zero(F, table[gamma, alpha]))
        x = gaussian(np.random.default_rng(9), MOD.dim)
        assert np.array_equal(act(x, unit()), x)

    def test_action_associativity(self):
        rng = np.random.default_rng(10)
        x, a, b = gaussian(rng, MOD.dim), gaussian(rng, ALG.dim), gaussian(rng, ALG.dim)
        lhs, rhs = act(act(x, a), b), act(x, product(a, b))
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(np.linalg.norm(rhs), 1.0)

    def test_module_norm(self):
        assert MOD.dim == len(F) == 2 * 2 + 1 * 3
        for gamma in range(MOD.dim):
            assert module_norm(np.eye(MOD.dim)[gamma]) == 1.0
        x = gaussian(np.random.default_rng(11), MOD.dim)
        assert abs(module_norm(2 * x) - 2 * module_norm(x)) <= 1e-12

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x, y = gaussian(rng, MOD.dim), gaussian(rng, MOD.dim)
            assert norm(inner(x, y)) <= module_norm(x) * module_norm(y) + 1e-10

    def test_fullness_flag(self):
        assert ModuleDescriptor(ALG, (1, 1, 2)).is_full
        assert not MOD.is_full
