import numpy as np
import pytest

from conftest import apply_phi_oracle, compatibility_oracle, scalar_family, transpose_map
from test_acceptance import acceptance_instances
from cpdilate.algebra import AlgebraDescriptor, random_algebra_element, random_module_element
from cpdilate.cpmaps import (
    CPBlockMap,
    Instance,
    ModuleCPTuple,
    haar_unitary,
    identity_instance,
    random_instance,
)
from cpdilate.errors import DimensionTooSmallError, HermiticityViolationError
from cpdilate.serialize import emit_instance


class TestApplyPhi:
    def test_identity_family_on_unit(self):
        inst = identity_instance(2)
        e12 = inst.algebra.basis_element(1)
        assert np.allclose(inst.cp.apply(0, 0, e12), e12.blocks[0])

    def test_zero_element(self):
        inst = identity_instance(2)
        assert np.allclose(inst.cp.apply(0, 0, inst.algebra.zero()), 0.0)

    def test_against_expansion_oracle(self):
        inst = random_instance(3, n=2, block_dims=[2, 1], mults=[1, 1], h1=2, h2=4)
        rng = np.random.default_rng(30)
        for _ in range(5):
            a = random_algebra_element(inst.algebra, rng)
            for i in range(2):
                for j in range(2):
                    assert np.allclose(
                        inst.cp.apply(i, j, a), apply_phi_oracle(inst.cp, i, j, a), atol=1e-13
                    )

    def test_index_range(self):
        inst = identity_instance(2)
        with pytest.raises(IndexError):
            inst.cp.apply(1, 0, inst.algebra.identity())


class TestChoi:
    def test_scalar_identity(self):
        cp = scalar_family(1, [[1.0]])
        assert np.allclose(cp.choi_block(0), [[1.0]])

    def test_diagonal_family_gives_identity(self):
        cp = scalar_family(2, [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(cp.choi_block(0), np.eye(2))

    def test_transpose_choi_is_swap(self):
        choi = transpose_map().choi_block(0)
        swap = np.zeros((4, 4), dtype=complex)
        for p in range(2):
            for q in range(2):
                swap[2 * p + q, 2 * q + p] = 1.0
        assert np.allclose(choi, swap)
        assert abs(np.linalg.eigvalsh(choi).min() + 1.0) <= 1e-14


class TestCompletePositivity:
    def test_all_ones_family(self):
        # Choi is the 2x2 ones matrix, spectrum (2, 0)
        cp = scalar_family(2, [[1.0, 1.0], [1.0, 1.0]])
        assert cp.is_completely_n_positive(1e-9)

    def test_transpose_rejected(self):
        assert not transpose_map().is_completely_n_positive(1e-9)

    def test_diagonal_identity_family(self):
        cp = scalar_family(3, np.eye(3))
        assert cp.is_completely_n_positive(1e-9)

    def test_hermiticity_violation_raises(self):
        desc = AlgebraDescriptor((1,))
        action = np.zeros((2, 2, 1, 1, 1), dtype=complex)
        action[0, 1, 0, 0, 0] = 1.0  # phi_01 = id but phi_10 = 0
        cp = CPBlockMap(desc, 2, 1, action)
        with pytest.raises(HermiticityViolationError):
            cp.is_completely_n_positive(1e-9)

    def test_diagonal_follows_from_family(self):
        for seed in range(100):
            inst = random_instance(seed, n=2, block_dims=[2], mults=[1], h1=2, h2=2)
            assert inst.cp.is_completely_n_positive(1e-9)
            for i in range(inst.n):
                assert inst.cp.diagonal_is_cp(i, 1e-8)

    def test_diagonal_n1_matches_family_check(self):
        inst = identity_instance(2)
        assert inst.cp.diagonal_is_cp(0, 1e-9) == inst.cp.is_completely_n_positive(1e-9)

    def test_diagonal_transpose_detected(self):
        cp = transpose_map(n_slots=2)
        assert not cp.diagonal_is_cp(0, 1e-9)
        assert cp.diagonal_is_cp(1, 1e-9)  # zero map is CP


class TestApplyTuple:
    def test_identity_tuple(self):
        inst = identity_instance(2)
        f = inst.module.basis_element(0)
        assert np.allclose(inst.tup.apply(0, f), f.blocks[0])

    def test_zero(self):
        inst = identity_instance(2)
        assert np.allclose(inst.tup.apply(0, inst.module.zero()), 0.0)

    def test_against_expansion_oracle(self):
        inst = random_instance(5, n=2, block_dims=[2], mults=[2], h1=2, h2=4)
        rng = np.random.default_rng(50)
        x = random_module_element(inst.module, rng)
        expected = sum(
            x.coeffs()[g] * inst.tup.action[1, g] for g in range(inst.module.dim)
        )
        assert np.allclose(inst.tup.apply(1, x), expected, atol=1e-13)


class TestCompatibility:
    def test_identity_instance_compatible(self):
        assert identity_instance(2).compatibility_residual() <= 1e-14

    def test_halved_family_fails_by_half(self):
        inst = identity_instance(2)
        halved = CPBlockMap(inst.algebra, 1, 2, 0.5 * inst.cp.action)
        bad = Instance(halved, inst.tup)
        assert abs(bad.compatibility_residual() - 0.5) <= 1e-12

    def test_generated_instances_compatible(self):
        for seed in range(20):
            inst = random_instance(seed, n=2, block_dims=[2, 1], mults=[1, 1], h1=3, h2=4)
            assert inst.compatibility_residual() <= 1e-10

    def test_matches_slot_pair_oracle(self):
        rng = np.random.default_rng(12)
        for inst in acceptance_instances(20):
            shape = inst.tup.action.shape
            noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            noisy = ModuleCPTuple(inst.module, inst.n, inst.h1, inst.h2,
                                  inst.tup.action + 0.1 * noise)
            for case in (inst, Instance(inst.cp, noisy)):
                assert np.isclose(case.compatibility_residual(), compatibility_oracle(case),
                                  rtol=1e-12, atol=1e-14)

    def test_each_tuple_map_is_completely_positive(self):
        # Compatibility forces every Phi_i to be completely positive,
        # witnessed by its diagonal map phi_ii.
        for seed in range(25):
            inst = random_instance(seed, n=3, block_dims=[2], mults=[1], h1=2, h2=3)
            assert inst.compatibility_residual() <= 1e-10
            for i in range(inst.n):
                assert inst.cp.diagonal_is_cp(i, 1e-9)


class TestRandomInstance:
    def test_scalar_instance_valid(self):
        inst = random_instance(1, n=1, block_dims=[1], mults=[1], h1=1, h2=1)
        assert inst.is_valid(1e-10)
        assert inst.cp.action.shape == (1, 1, 1, 1, 1)

    def test_validity_over_seeds(self):
        for seed in range(50):
            inst = random_instance(seed, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
            assert inst.is_valid(1e-9)

    def test_deterministic_per_seed(self):
        kw = dict(n=2, block_dims=[2], mults=[1], h1=2, h2=3, k1_extra=1, k2_extra=1)
        a = random_instance(123, **kw)
        b = random_instance(123, **kw)
        assert np.array_equal(a.cp.action, b.cp.action)
        assert np.array_equal(a.tup.action, b.tup.action)
        assert emit_instance(a) == emit_instance(b)

    def test_h2_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            random_instance(0, n=2, block_dims=[2], mults=[2], h1=4, h2=1)

    def test_slot_scales_break_unitality_but_not_validity(self):
        inst = random_instance(9, n=2, block_dims=[2], mults=[1], h1=2, h2=3,
                               slot_scales=[0.7, 1.0])
        assert inst.is_valid(1e-9)
        defects = inst.cp.diag_unital_defects()
        assert abs(defects[0] - (1 - 0.7**2)) <= 1e-12
        assert defects[1] <= 1e-12

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(77)
        u = haar_unitary(rng, 5)
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    def test_module_carrier_respects_h1(self):
        # A single one-dimensional block forces the carrier multiplicity
        # up to h1; the construction must still embed into h2 = dim V_range.
        inst = random_instance(4, n=1, block_dims=[1], mults=[1], h1=3, h2=3)
        assert inst.is_valid(1e-9)


class TestHermiticityPattern:
    def test_generated_pattern_defect_tiny(self):
        inst = random_instance(8, n=3, block_dims=[2], mults=[1], h1=2, h2=3)
        assert inst.cp.hermiticity_defect() <= 1e-13

    def test_transpose_pattern_holds(self):
        # Hermiticity-pattern compliance and complete positivity are
        # independent: the transpose family satisfies the pattern.
        assert transpose_map().hermiticity_defect() <= 1e-15
