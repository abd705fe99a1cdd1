import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    algebra_coeffs,
    algebra_units,
    amplified_units_oracle,
    apply_phi_oracle,
    compatibility_dense_oracle,
    compatibility_oracle,
    hermiticity_oracle,
    hermiticity_ratio_oracle,
    module_units,
    random_instance_oracle,
    scalar_family,
    transpose_map,
)
from test_acceptance import acceptance_instances
from cpdilate import cli, linalg
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate.cpmaps import (
    CPBlockMap,
    Instance,
    ModuleCPTuple,
    haar_unitary,
    identity_instance,
    random_instance,
)
from cpdilate.dilation import amplified_units
from cpdilate.errors import CPDilateError, DimensionTooSmallError, HermiticityViolationError
from cpdilate.serialize import emit_instance


def diagonal_map_is_cp(cp, i, tol):
    """Whether phi_ii alone is completely positive: its Choi matrix on
    block b is the slot-i principal sub-block of ``choi_block(b)``."""
    for b, d in enumerate(cp.algebra.block_dims):
        side = d * cp.h1
        c = cp.choi_block(b)[i * side : (i + 1) * side, i * side : (i + 1) * side]
        w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
        if w[0] < -tol * max(float(w[-1]), 1.0):
            return False
    return True


class TestApplyPhi:
    def test_identity_family_on_unit(self):
        # phi_ij(a) is the action tensor contracted with a's coefficients;
        # the identity family sends every matrix unit to itself.
        inst = identity_instance(2)
        assert np.array_equal(inst.cp.action[0, 0], algebra_units(inst.algebra))


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
        message = r"defect 1\.000e\+00 exceeds tolerance 1\.0e-09"
        with pytest.raises(HermiticityViolationError, match=message):
            cp.is_completely_n_positive(1e-9)

    def test_diagonal_follows_from_family(self):
        for seed in range(100):
            inst = random_instance(seed, n=2, block_dims=[2], mults=[1], h1=2, h2=2)
            assert inst.cp.is_completely_n_positive(1e-9)
            for i in range(inst.n):
                assert diagonal_map_is_cp(inst.cp, i, 1e-8)

    def test_diagonal_n1_matches_family_check(self):
        inst = identity_instance(2)
        assert diagonal_map_is_cp(inst.cp, 0, 1e-9) == inst.cp.is_completely_n_positive(1e-9)

    def test_diagonal_transpose_detected(self):
        cp = transpose_map(n_slots=2)
        assert not diagonal_map_is_cp(cp, 0, 1e-9)
        assert diagonal_map_is_cp(cp, 1, 1e-9)  # zero map is CP


class TestApplyTuple:
    def test_identity_tuple(self):
        inst = identity_instance(2)
        assert np.array_equal(inst.tup.action[0], module_units(inst.module))


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
            for case in (inst, tuple_perturbed(inst, 0.1, rng)):
                assert np.isclose(case.compatibility_residual(), compatibility_oracle(case),
                                  rtol=1e-12, atol=1e-14)
        for case in compatibility_cases(np.random.default_rng(13)):
            got, dense = case.compatibility_residual(), compatibility_dense_oracle(case)
            assert np.isclose(got, compatibility_oracle(case), rtol=1e-12, atol=1e-14)
            assert np.isclose(got, dense, rtol=1e-12, atol=1e-14)
            assert (got <= 1e-9) == (dense <= 1e-9)

    def test_check_compatible_gates_the_residual(self):
        for case in compatibility_cases(np.random.default_rng(14)):
            compat = case.compatibility_residual()
            if compat <= 1e-9:
                assert case.check_compatible(1e-9) == compat
                continue
            message = f"tuple is not compatible with the map family (residual {compat:.3e})"
            with pytest.raises(CPDilateError, match=f"^{re.escape(message)}$") as info:
                case.check_compatible(1e-9)
            assert type(info.value) is CPDilateError

    def test_local_defects_are_not_averaged_away(self):
        # a defect in one of block 0's two module rows is that row's own
        # defect, not a mean over both rows; a leak across blocks breaks
        # <f^0, f^1> = 0 on tiles that expect 0
        row = module_row_perturbed(ROW_DEFECT_BASE, 0, 1, 1e-6)
        leak = cross_block_leak(LEAK_BASE, 1e-6)
        assert row.compatibility_residual() >= 1e-7
        assert leak.compatibility_residual() >= 1e-7

    def test_no_dense_expected_tensor(self):
        # the dense expected tensor, the difference and its norms peaked at
        # 36.7 MiB on this shape; the Gram product alone is 9 MiB
        inst = random_instance(1, n=4, block_dims=[16], mults=[2], h1=6, h2=24, k1_extra=2)
        tracemalloc.start()
        try:
            inst.compatibility_residual()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_each_tuple_map_is_completely_positive(self):
        # Compatibility forces every Phi_i to be completely positive,
        # witnessed by its diagonal map phi_ii.
        for seed in range(25):
            inst = random_instance(seed, n=3, block_dims=[2], mults=[1], h1=2, h2=3)
            assert inst.compatibility_residual() <= 1e-10
            for i in range(inst.n):
                assert diagonal_map_is_cp(inst.cp, i, 1e-9)


def tuple_perturbed(inst, eps, rng) -> Instance:
    """``inst`` with complex Gaussian noise of size ``eps`` on the tuple."""
    shape = inst.tup.action.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tup = ModuleCPTuple(inst.module, inst.n, inst.h1, inst.h2, inst.tup.action + eps * noise)
    return Instance(inst.cp, tup)


def module_row_perturbed(inst, b, r, eps) -> Instance:
    """``inst`` with ``eps`` added to every entry of ``Phi_i(f^b_rq)``,
    the units of module row r of block b only."""
    mod = inst.module
    rows = [g for g, (bb, rr, _) in enumerate(mod.basis_labels) if (bb, rr) == (b, r)]
    action = inst.tup.action.copy()
    action[:, rows] += eps
    return Instance(inst.cp, ModuleCPTuple(mod, inst.n, inst.h1, inst.h2, action))


def cross_block_leak(inst, eps) -> Instance:
    """``inst`` with ``Phi_i(f^0_0q)`` leaking ``eps Phi_i(f^1_0q)`` into
    the H2 range of block 1, which ``<f^0, f^1> = 0`` forbids."""
    action = inst.tup.action.copy()
    d0 = inst.algebra.block_dims[0]
    start = inst.module.mults[0] * d0
    action[:, :d0] += eps * action[:, start : start + d0]
    return Instance(inst.cp, ModuleCPTuple(inst.module, inst.n, inst.h1, inst.h2, action))


def compatibility_cases(rng):
    """Instances of every kind the compatibility residual sees: fuzz draws,
    80 one-dimensional blocks, a block without module rows, ``h1 = 1`` and
    ``n = 1``, a defect in one module row, a leak across blocks; each
    clean, with tuple noise, and with tuple noise near the tolerance."""
    draws = [random_instance(int(rng.integers(0, 2**31)), **cli._fuzz_dims(rng, 3, 3, 4))
             for _ in range(60)]
    draws += [
        random_instance(1, n=2, block_dims=[1] * 80, mults=[1] * 80, h1=1, h2=80),
        random_instance(2, n=2, block_dims=[2, 3], mults=[1, 0], h1=2, h2=6),
        random_instance(3, n=2, block_dims=[3], mults=[2], h1=1, h2=6),
        random_instance(4, n=1, block_dims=[2, 1], mults=[1, 2], h1=3, h2=9),
        random_instance(5, n=1, block_dims=[2], mults=[1], h1=1, h2=2),
    ]
    for inst in draws:
        yield inst
        yield tuple_perturbed(inst, 0.1, rng)
        yield tuple_perturbed(inst, 1e-9, rng)
    yield from (module_row_perturbed(ROW_DEFECT_BASE, 0, 1, eps) for eps in (1e-6, 1e-9))
    yield from (cross_block_leak(LEAK_BASE, eps) for eps in (1e-6, 1e-9))


ROW_DEFECT_BASE = random_instance(4, n=2, block_dims=[2, 1], mults=[2, 1], h1=2, h2=8)
LEAK_BASE = random_instance(6, n=2, block_dims=[2, 2], mults=[1, 1], h1=2, h2=8)


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
        inst = random_instance(9, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        inst = inst.slots_scaled([0.7, 1.0])
        assert inst.is_valid(1e-9)
        defects = inst.cp.diag_unital_defects()
        assert abs(defects[0] - (1 - 0.7**2)) <= 1e-12
        assert defects[1] <= 1e-12

    def test_unital_defects_match_oracle(self):
        inst = random_instance(10, n=3, block_dims=[2, 1], mults=[1, 1], h1=2, h2=4)
        inst = inst.slots_scaled([0.5, 1.0, 2.0])
        unit = algebra_coeffs(inst.algebra, np.eye(3))
        want = [np.linalg.norm(apply_phi_oracle(inst.cp, i, i, unit) - np.eye(2), 2)
                for i in range(inst.n)]
        assert np.allclose(inst.cp.diag_unital_defects(), want, rtol=1e-12, atol=1e-15)

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(77)
        u = haar_unitary(rng, 5)
        assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    def test_module_carrier_respects_h1(self):
        # A single one-dimensional block forces the carrier multiplicity
        # up to h1; the construction must still embed into h2 = dim V_range.
        inst = random_instance(4, n=1, block_dims=[1], mults=[1], h1=3, h2=3)
        assert inst.is_valid(1e-9)


GENERATOR_SHAPES = [
    dict(n=2, block_dims=[2, 1], mults=[1, 2], h1=2, h2=12),
    dict(n=3, block_dims=[3, 1, 2], mults=[2, 1, 1], h1=2, h2=40, k1_extra=1),
    dict(n=2, block_dims=[2, 3], mults=[0, 1], h1=3, h2=12),
    dict(n=2, block_dims=[2, 1], mults=[1, 0], h1=2, h2=4, k2_extra=1),
    dict(n=3, block_dims=[3, 3], mults=[1, 1], h1=4, h2=30, k1_extra=1, k2_extra=3),
    dict(n=2, block_dims=[1, 2], mults=[1, 1], h1=7, h2=40),
    dict(n=1, block_dims=[3], mults=[2], h1=2, h2=6),
    dict(n=3, block_dims=[2, 1], mults=[1, 1], h1=2, h2=18, k1_extra=2,
         scales=[1.0, 1e-6, 0.3]),
    dict(n=3, block_dims=[8], mults=[2], h1=4, h2=12, k1_extra=1),
    dict(n=3, block_dims=[4, 4, 3], mults=[2, 1, 1], h1=4, h2=40, k1_extra=4),
    dict(n=4, block_dims=[16], mults=[2], h1=4, h2=24, k1_extra=1),
]


TABLE_SHAPES = [  # the four shapes of the ROADMAP's cost table
    dict(n=3, block_dims=[8], mults=[2], h1=4, h2=12, k1_extra=1),
    dict(n=3, block_dims=[4, 4, 3], mults=[2, 1, 1], h1=4, h2=40, k1_extra=4),
    dict(n=4, block_dims=[16], mults=[2], h1=6, h2=24, k1_extra=2),
    dict(n=1, block_dims=[1] * 80, mults=[1] * 80, h1=1, h2=80),
]


class TestGeneratorCutoff:
    """The generated range's kept and dropped singular values lie decades
    apart on either side of the rank cutoff, so moving
    ``linalg.DEFAULT_CUTOFF`` regenerates no instance."""

    @pytest.mark.parametrize("cutoff", [1e-14, 1e-6])
    def test_instances_do_not_depend_on_the_cutoff(self, monkeypatch, cutoff):
        rng = np.random.default_rng(23)
        cases = [(int(rng.integers(0, 2**31)), cli._fuzz_dims(rng, 3, 3, 4)) for _ in range(300)]
        cases += [(1, shape) for shape in TABLE_SHAPES]
        plain = [random_instance(seed, **shape) for seed, shape in cases]
        monkeypatch.setattr(linalg, "DEFAULT_CUTOFF", cutoff)
        assert linalg.kept_ranks([np.array([1.0, 2 * cutoff, cutoff / 2])]) == [2]
        for (seed, shape), want in zip(cases, plain):
            got = random_instance(seed, **shape)
            assert np.array_equal(got.cp.action, want.cp.action)
            assert np.array_equal(got.tup.action, want.tup.action)


class TestGeneratorOracle:
    """The per-block products equal the dense reverse construction bit
    for bit, strides included: mixed blocks, a zero-multiplicity block,
    both pads, a carrier raised by h1, one slot, slot scales, the
    benchmark shapes and fuzz draws.  Not at h1 = 1 with about 31 copies
    or more, where the dense einsum regroups its sum over the copies."""

    @staticmethod
    def assert_same_instance(seed, shape):
        shape = dict(shape)
        scales = shape.pop("scales", None)  # slot scales, applied to both sides
        got, want = random_instance(seed, **shape), random_instance_oracle(seed, **shape)
        if scales is not None:
            got, want = got.slots_scaled(scales), want.slots_scaled(scales)
        for a, b in ((got.cp.action, want.cp.action), (got.tup.action, want.tup.action)):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", GENERATOR_SHAPES)
    def test_bitwise_equal_to_the_dense_construction(self, shape):
        self.assert_same_instance(11, shape)

    def test_bitwise_equal_on_fuzz_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            shape = cli._fuzz_dims(rng, max_n=3, max_block=3, max_h=4)
            self.assert_same_instance(int(rng.integers(0, 2**31)), shape)

    def test_copies_are_summed_in_order(self):
        # h1 = 1 with 32 copies is where the dense einsum regroups its sum
        # (last-bit differences); the per-block products keep copy order
        inst = random_instance(0, n=1, block_dims=[1, 2], mults=[1, 1], h1=1, h2=66,
                               k1_extra=31)
        x = haar_unitary(np.random.default_rng(0), 96)[:, 0].reshape(3, 32)  # rows (b, p)
        re, im = np.zeros((3, 3)), np.zeros((3, 3))
        for c in range(32):
            u, v = x[:, c, None].conj(), x[None, :, c]
            re = re + (u.real * v.real - u.imag * v.imag)
            im = im + (u.real * v.imag + u.imag * v.real)
        rows = [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]  # e^0_00, then e^1_pq
        want = np.array([complex(re[r], im[r]) for r in rows])
        assert inst.cp.action[0, 0, :, 0, 0].tobytes() == want.tobytes()

    def test_builds_no_dense_units(self):
        # the amplified pi of this shape alone is dim A * carrier^2 = 2^22
        # entries (67 MB)
        tracemalloc.start()
        try:
            random_instance(1, n=2, block_dims=[16], mults=[1], h1=4, h2=16, k1_extra=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSlotScales:
    def test_powers_of_two_relative_to_the_largest_slot(self):
        # A = C, h1 = 1: the largest diagonal entry of phi_ii is entries[i][i].
        # sqrt(p / 4) is 1, 1/sqrt(2) (on the boundary, kept at 1), 0.433,
        # 0.25 and 1.58e-5; a zero slot gets 1.
        cp = scalar_family(6, np.diag([4.0, 2.0, 0.75, 0.25, 1e-9, 0.0]))
        assert cp.slot_scales().tolist() == [1.0, 1.0, 0.5, 0.25, 2.0**-16, 1.0]
        assert scalar_family(2, np.zeros((2, 2))).slot_scales().tolist() == [1.0, 1.0]

    def test_equilibrated_instance_is_exact(self):
        inst = random_instance(3, n=2, block_dims=[2], mults=[1], h1=1, h2=4, k1_extra=2)
        inst = inst.slots_scaled([1.0, 1e-9])
        eq, scales = inst.equilibrated()
        assert scales.tolist() == [1.0, 2.0**-30]
        inv = np.repeat(1.0 / scales, 2)
        assert np.array_equal(eq.cp.choi_block(0), inst.cp.choi_block(0) * np.outer(inv, inv))
        assert np.array_equal(eq.tup.action, inst.tup.action / scales[:, None, None, None])
        unscaled = random_instance(3, n=2, block_dims=[2], mults=[1], h1=1, h2=4, k1_extra=2)
        assert unscaled.equilibrated()[0] is unscaled


class TestAmplifiedUnits:
    """The vectorized scatter equals the former per-label loop."""

    @pytest.mark.parametrize("block_dims, mults, copies", [
        ((1,), (1,), (1,)),
        ((8,), (2,), (2,)),
        ((3, 1, 2), (2, 0, 1), (2, 3, 1)),
        ((2, 3), (1, 2), (0, 2)),
        ((2, 2, 1), (0, 1, 3), (3, 0, 0)),
        ((1, 4), (1, 1), (0, 0)),
    ])
    def test_matches_the_loop(self, block_dims, mults, copies):
        alg = AlgebraDescriptor(block_dims)
        mod = ModuleDescriptor(alg, mults)
        for labels, rows in ((alg.basis_labels, block_dims), (mod.basis_labels, mults)):
            got = amplified_units(labels, rows, block_dims, copies)
            want = amplified_units_oracle(labels, rows, block_dims, copies)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestHermiticityPattern:
    def test_generated_pattern_defect_tiny(self):
        inst = random_instance(8, n=3, block_dims=[2], mults=[1], h1=2, h2=3)
        assert inst.cp.hermiticity_defect() <= 1e-13

    def test_transpose_pattern_holds(self):
        # Hermiticity-pattern compliance and complete positivity are
        # independent: the transpose family satisfies the pattern.
        assert transpose_map().hermiticity_defect() <= 1e-15

    def test_matches_two_copy_oracle(self):
        rng = np.random.default_rng(14)
        cases = [inst.cp for inst in acceptance_instances(20)] + [transpose_map(2)]
        for cp in cases:
            for eps in (0.0, 1e-12, 1e-9, 1e-3, 10.0):
                noise = rng.standard_normal(cp.action.shape) + 1j * rng.standard_normal(
                    cp.action.shape)
                family = CPBlockMap(cp.algebra, cp.n, cp.h1, cp.action + eps * noise)
                got, want = family.hermiticity_defect(), hermiticity_oracle(family)
                assert np.isclose(got, want, rtol=1e-12, atol=1e-15)
                assert (got <= 1e-9) == (want <= 1e-9)

    def test_ratio_is_the_former_inline_formula(self):
        # bit for bit, with tiles of every scale and all-zero expected tiles
        rng = np.random.default_rng(41)
        for _ in range(150):
            alg = AlgebraDescriptor(tuple(int(d) for d in rng.integers(1, 4, rng.integers(1, 4))))
            n, h1 = (int(v) for v in rng.integers(1, 4, size=2))
            shape = (n, n, alg.dim, h1, h1)
            scale = 10.0 ** rng.uniform(-6, 3, size=(n, n, alg.dim, 1, 1))
            action = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
            action[rng.random(shape[:3]) < 0.3] = 0.0
            family = CPBlockMap(alg, n, h1, action)
            assert family.hermiticity_defect() == hermiticity_ratio_oracle(family)
        for inst in acceptance_instances(10):
            assert inst.cp.hermiticity_defect() == hermiticity_ratio_oracle(inst.cp)
