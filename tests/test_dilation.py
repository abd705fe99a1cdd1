import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    REPORT_RESIDUALS_ORACLE,
    brute_force_gram,
    build_gram_oracle,
    centrally_scaled,
    dilate_oracle,
    module_units,
    non_representation,
    pi_multiplicativity_oracle,
    pi_rows_oracle,
    psi_module_action_oracle,
    psi_representation_oracle,
    psi_welldef_oracle,
    raw_factor,
    raw_gram,
    report_dict_oracle,
    report_items_oracle,
    report_passed_oracle,
    scalar_family,
    transpose_map,
)
from test_acceptance import acceptance_instances
from cpdilate import cli, dilation
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate.cpmaps import (
    CPBlockMap,
    Instance,
    ModuleCPTuple,
    haar_unitary,
    identity_instance,
    random_instance,
)
from cpdilate.dilation import (
    build_S,
    build_gram,
    build_pi,
    build_psi,
    build_W,
    dilate,
    tuple_block,
    verify_dilation,
)
from cpdilate.equivalence import build_unitaries, rotate_dilation
from cpdilate.errors import (
    CPDilateError,
    HermiticityViolationError,
    NotPSDError,
    WellDefinednessError,
)
from cpdilate.linalg import frob


def seeded_instances(count, **kw):
    return [random_instance(seed, **kw) for seed in range(count)]


class TestBuildGram:
    def test_scalar_identity(self):
        g = build_gram(scalar_family(1, [[1.0]]))
        assert g.raw_dim == 1 and g.r1 == 1
        assert np.allclose(raw_gram(g.cp), [[1.0]])

    def test_all_ones_family_rank_one(self):
        g = build_gram(scalar_family(2, [[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(raw_gram(g.cp), np.ones((2, 2)))
        assert g.r1 == 1

    def test_identity_on_m2_rank_two(self):
        inst = identity_instance(2)
        g = build_gram(inst.cp)
        assert g.raw_dim == 8
        assert g.r1 == 2
        # independent oracle: eigenvalues of the brute-force Gram
        oracle = brute_force_gram(inst.cp)
        lam = np.linalg.eigvalsh(oracle)
        assert int((lam > 1e-10 * lam.max()).sum()) == 2

    def test_matches_brute_force_oracle(self):
        cases = [
            identity_instance(1).cp,
            identity_instance(2).cp,
            random_instance(2, n=2, block_dims=[2], mults=[1], h1=2, h2=3).cp,
            random_instance(3, n=1, block_dims=[2, 1], mults=[1, 1], h1=2, h2=4).cp,
        ]
        for cp in cases:
            g = build_gram(cp)
            assert g.raw_dim <= 64
            oracle = brute_force_gram(cp)
            assert frob(raw_gram(cp) - oracle) <= 1e-12 * max(frob(oracle), 1.0)

    def test_gram_hermitian_for_generated_instances(self):
        inst = random_instance(11, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        gram = raw_gram(inst.cp)
        assert frob(gram - gram.conj().T) <= 1e-12 * max(frob(gram), 1.0)

    def test_factor_reconstructs_gram(self):
        inst = random_instance(13, n=2, block_dims=[2], mults=[1], h1=3, h2=3)
        g = build_gram(inst.cp)
        gram, factor = raw_gram(inst.cp), raw_factor(g)
        lam_max = float(np.linalg.eigvalsh(gram).max())
        assert frob(factor.conj().T @ factor - gram) <= 10 * 1e-10 * lam_max

    def test_not_psd_on_transpose(self):
        # The transpose family satisfies the Hermiticity pattern, so the
        # Gram assembles and is Hermitian, but it has a negative direction.
        with pytest.raises(NotPSDError):
            build_gram(transpose_map())

    def test_not_psd_on_sign_flip(self):
        inst = random_instance(4, n=1, block_dims=[2], mults=[1], h1=2, h2=2)
        flipped = CPBlockMap(inst.algebra, inst.n, inst.h1, -inst.cp.action)
        with pytest.raises(NotPSDError):
            build_gram(flipped)


class TestBuildPi:
    def test_unit_maps_to_identity(self):
        inst = identity_instance(2)
        g = build_gram(inst.cp)
        pi = build_pi(g, inst.cp)
        one = pi[inst.algebra.identity_indices].sum(axis=0)
        assert np.allclose(one, np.eye(g.r1), atol=1e-12)
        # Closed form, so the file's well-definedness entry stays exactly 0.
        assert dilate(inst).pi_welldef == 0.0

    def test_projector_spectrum_for_identity_map(self):
        inst = identity_instance(2)
        g = build_gram(inst.cp)
        pi = build_pi(g, inst.cp)
        lam = np.sort(np.linalg.eigvalsh(pi[0]))  # pi(e_11)
        assert np.allclose(lam, [0.0, 1.0], atol=1e-12)

    def test_multiplicative_on_basis_pairs(self):
        inst = random_instance(21, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        g = build_gram(inst.cp)
        pi = build_pi(g, inst.cp)
        prod = inst.algebra.product_table
        for a in range(inst.algebra.dim):
            for b in range(inst.algebra.dim):
                expected = pi[prod[a, b]] if prod[a, b] >= 0 else np.zeros_like(pi[0])
                assert frob(pi[a] @ pi[b] - expected) <= 1e-10 * max(frob(expected), 1.0)


class TestBuildS:
    def test_isometries_for_unital_family(self):
        inst = identity_instance(2)
        g = build_gram(inst.cp)
        s = build_S(g, inst.cp)
        assert np.allclose(s[0].conj().T @ s[0], np.eye(2), atol=1e-12)

    def test_orthogonal_slots_for_diagonal_family(self):
        cp = scalar_family(2, np.eye(2))
        g = build_gram(cp)
        s = build_S(g, cp)
        assert abs((s[0].conj().T @ s[1])[0, 0]) <= 1e-14

    def test_reconstructs_family(self):
        inst = random_instance(22, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        g = build_gram(inst.cp)
        pi = build_pi(g, inst.cp)
        s = build_S(g, inst.cp)
        worst = 0.0
        for i in range(2):
            for j in range(2):
                for alpha in range(inst.algebra.dim):
                    got = s[i].conj().T @ pi[alpha] @ s[j]
                    want = inst.cp.action[i, j, alpha]
                    worst = max(worst, frob(got - want) / max(frob(want), 1.0))
        assert worst <= 1e-10


class TestBuildPsi:
    def test_identity_map_dimensions_and_rank(self):
        inst = identity_instance(2)
        g = build_gram(inst.cp)
        psi, k2e, res = build_psi(g, inst.cp, inst.tup)
        assert psi.shape[1] == 2
        assert res <= 1e-12
        # Psi(e_11) has rank one; compare against an independent
        # least-squares solve in H2 coordinates.
        sv = np.linalg.svd(psi[0], compute_uv=False)
        assert sv[0] > 1e-8 and (sv[1:] <= 1e-10).all()
        targets = np.zeros((inst.h2, g.raw_dim), dtype=complex)
        labels = [(i, a, b) for i in range(1) for a in range(4) for b in range(2)]
        for col, (i, alpha, beta) in enumerate(labels):
            fa = inst.module.action_table[0, alpha]
            if fa >= 0:
                targets[:, col] = inst.tup.action[i, fa][:, beta]
        oracle = targets @ np.linalg.pinv(raw_factor(g))
        assert frob(k2e @ psi[0] - oracle) <= 1e-10

    def test_zero_tuple_collapses(self):
        desc = AlgebraDescriptor((2,))
        mdesc = ModuleDescriptor(desc, (1,))
        cp = CPBlockMap(desc, 1, 2, np.zeros((1, 1, 4, 2, 2)))
        tup = ModuleCPTuple(mdesc, 1, 2, 3, np.zeros((1, 2, 3, 2)))
        inst = Instance(cp, tup)
        data = dilate(inst)
        assert data.r1 == 0 and data.r2 == 0
        assert data.pi_action.shape == (4, 0, 0)
        assert data.s_ops.shape == (1, 0, 2)
        assert data.k2i_dims == (0,)
        report = verify_dilation(inst, data)
        assert report.passed

    def test_contractivity_on_basis(self):
        inst = random_instance(31, n=2, block_dims=[2, 1], mults=[1, 1], h1=2, h2=4)
        data = dilate(inst)
        for gamma, f in enumerate(module_units(inst.module)):
            op_norm = np.linalg.norm(data.psi_action[gamma], 2) if data.psi_action[gamma].size else 0.0
            mod_norm = np.sqrt(np.linalg.norm(f.conj().T @ f, 2))  # |<f, f>|^(1/2)
            assert mod_norm == 1.0
            assert op_norm <= mod_norm + 1e-9

    def test_welldef_residual_is_the_former_inline_ratio(self):
        # bit for bit; blocks scaled below norm 1 or to zero take denominator 1
        rng = np.random.default_rng(43)
        cases = [centrally_scaled(random_instance(5, n=2, block_dims=[2, 1], mults=[1, 1],
                                                  h1=2, h2=4), [0.0, 1.0])]
        for _ in range(80):
            inst = random_instance(int(rng.integers(0, 2**31)), **cli._fuzz_dims(rng, 3, 3, 4))
            c = 10.0 ** rng.uniform(-1.5, 1.0, size=inst.algebra.nblocks)
            c[rng.random(len(c)) < 0.3] = 0.0
            cases += [inst, centrally_scaled(inst, c)]
        for inst in cases:
            assert dilate(inst).psi_welldef == psi_welldef_oracle(inst)

    def test_k2_embedding_is_isometric(self):
        inst = random_instance(33, n=2, block_dims=[2], mults=[1], h1=2, h2=4)
        data = dilate(inst)
        gram = data.k2_embed.conj().T @ data.k2_embed
        assert frob(gram - np.eye(data.r2)) <= 1e-12


class TestBuildW:
    def test_full_span_gives_unitary(self):
        inst = identity_instance(2)
        ws, dims = build_W(inst.tup)
        assert dims == (2,)
        w = ws[0]
        assert np.allclose(w @ w.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-12)

    def test_zero_map_gives_zero_rows(self):
        desc = AlgebraDescriptor((1,))
        mdesc = ModuleDescriptor(desc, (1,))
        tup = ModuleCPTuple(mdesc, 1, 1, 2, np.zeros((1, 1, 2, 1)))
        ws, dims = build_W(tup)
        assert dims == (0,)
        assert ws[0].shape == (0, 2)

    def test_coisometry_on_generated_instance(self):
        inst = random_instance(41, n=3, block_dims=[2], mults=[1], h1=2, h2=4)
        ws, _ = build_W(inst.tup)
        for w in ws:
            k = w.shape[0]
            assert frob(w @ w.conj().T - np.eye(k)) <= 1e-12

    def test_range_keeps_a_direction_the_reading_needs(self):
        # Slot 0's two columns e1 and e1 + 1e-6 e2 span a direction of
        # squared singular value 5e-13, far below the Gram cutoff but
        # worth 5e-7 in Phi_0; the Choi spectrum (2, 1, 0, 0) has no
        # value near a cutoff.
        x = np.array([[1, 1, 0, 0], [0, 1e-6, 1, 0]], dtype=complex)  # columns (i, beta)
        alg = AlgebraDescriptor((1,))
        gram = (x.conj().T @ x).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
        tup = (np.eye(3)[:, :2] @ x).reshape(3, 2, 2).transpose(1, 0, 2)[:, None]
        inst = Instance(CPBlockMap(alg, 2, 2, gram[:, :, None]),
                        ModuleCPTuple(ModuleDescriptor(alg, (1,)), 2, 2, 3, tup))
        assert inst.is_valid()
        data = dilate(inst)
        assert data.k2i_dims == (2, 1)
        assert verify_dilation(inst, data).passed


class TestDilate:
    def test_scalar_instance(self):
        inst = identity_instance(1)
        data = dilate(inst)
        assert data.r1 == 1 and data.r2 == 1
        assert np.allclose(data.pi_action[0], [[1.0]])
        assert np.allclose(data.s_ops[0], [[1.0]])
        assert np.allclose(data.k2_embed @ data.psi_action[0], [[1.0]])
        assert np.allclose(data.w_ops[0] @ data.w_ops[0].conj().T, [[1.0]])

    def test_identity_m2(self):
        data = dilate(identity_instance(2))
        assert data.r1 == 2 and data.r2 == 2

    def test_seeded_end_to_end(self):
        for inst in seeded_instances(10, n=2, block_dims=[2], mults=[1], h1=2, h2=3):
            data = dilate(inst)
            report = verify_dilation(inst, data, tol=1e-9)
            assert report.passed, report.to_dict()

    def test_incompatible_tuple_fails_welldefinedness(self):
        inst = random_instance(51, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        rng = np.random.default_rng(0)
        junk = rng.standard_normal(inst.tup.action.shape) + 1j * rng.standard_normal(
            inst.tup.action.shape
        )
        bad = Instance(inst.cp, ModuleCPTuple(inst.module, inst.n, inst.h1, inst.h2, junk))
        with pytest.raises(WellDefinednessError):
            dilate(bad)


class TestVerifyDilation:
    def test_sabotaged_pi_detected(self):
        inst = identity_instance(2)
        data = dilate(inst)
        data.pi_action = np.zeros_like(data.pi_action)
        report = verify_dilation(inst, data)
        assert not report.passed
        assert report.phi_reconstruction > 0.5

    def test_scalar_residuals_at_machine_precision(self):
        inst = identity_instance(1)
        report = verify_dilation(inst, dilate(inst))
        assert max(v for _, v in report.residual_items()) <= 1e-14

    def test_unital_isometry_defect(self):
        inst = random_instance(61, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        report = verify_dilation(inst, dilate(inst))
        assert report.s_isometry_in_pass
        assert max(report.s_isometry_defect) <= 1e-10

    def test_non_unital_defect_reported_not_gated(self):
        inst = random_instance(61, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        inst = inst.slots_scaled([0.6, 1.3])
        data = dilate(inst)
        report = verify_dilation(inst, data)
        assert report.passed
        assert not report.s_isometry_in_pass
        # |S_i* S_i - 1| equals the unitality defect of phi_ii
        for defect, unital in zip(report.s_isometry_defect, report.diag_unital_defects):
            assert abs(defect - unital) <= 1e-10
        assert abs(report.s_isometry_defect[0] - (1 - 0.6**2)) <= 1e-10

    def test_representation_identity_and_module_action(self):
        inst = random_instance(71, n=3, block_dims=[2], mults=[2], h1=2, h2=4)
        report = verify_dilation(inst, dilate(inst))
        assert report.psi_representation <= 1e-9
        assert report.psi_module_action <= 1e-9
        assert report.minimality_k1_defect == 0.0
        assert report.minimality_k2_defect == 0.0

    def test_memory_of_many_blocks(self):
        # 40 one-dimensional blocks: the generator Gram of psi_representation
        # has side 40 * r1 = 1,600, so forming it whole takes 160 MB; a row
        # at a time stays within a few pi-sized arrays.
        inst = random_instance(1, n=1, block_dims=[1] * 40, mults=[1] * 40, h1=1, h2=40)
        data = dilate(inst)
        tracemalloc.start()
        try:
            report = verify_dilation(inst, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 8 * data.pi_action.nbytes


def report_variants(count):
    """``(kind, report)`` on the acceptance dilations, their rotated twins
    and failing variants: non-unital slots, a bumped pi unit, and the
    non-representation data."""
    rng = np.random.default_rng(29)
    for inst in acceptance_instances(count):
        data = dilate(inst)
        twin = rotate_dilation(data, haar_unitary(rng, data.r1), haar_unitary(rng, data.r2),
                               [haar_unitary(rng, k) for k in data.k2i_dims])
        bumped = replace(data, pi_action=data.pi_action.copy())
        bumped.pi_action[0] *= 1.001
        scaled = inst.slots_scaled(rng.uniform(0.5, 0.9, inst.n))
        yield "acceptance", verify_dilation(inst, data)
        yield "twin", verify_dilation(inst, twin)
        yield "bumped", verify_dilation(inst, bumped)
        yield "non-unital", verify_dilation(scaled, dilate(scaled))
    inst = random_instance(7, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
    yield "non-representation", verify_dilation(inst, non_representation(inst, dilate(inst)))


class TestReportRows:
    """The row fields give what the written-out names and the hand-built
    verdict gave (``tests/conftest.py``)."""

    def test_rows_equal_the_former_code(self):
        verdicts = {}
        for kind, report in report_variants(20):
            assert report.residual_items() == report_items_oracle(report)
            assert report.to_dict() == report_dict_oracle(report)
            assert report.passed == report_passed_oracle(report)
            verdicts.setdefault(kind, set()).add(report.passed)
        assert verdicts == {"acceptance": {True}, "twin": {True}, "non-unital": {True},
                            "bumped": {False}, "non-representation": {False}}

    def test_statuses_decide_the_verdict(self):
        for kind, report in report_variants(5):
            statuses = {name: status for name, _, status in report.rows()}
            assert [name for name, _ in report.residual_items()] == list(statuses)
            assert ("FAIL" in statuses.values()) == (not report.passed)
            assert ("reported" in statuses.values()) == (kind == "non-unital")
            if kind == "non-representation":
                assert statuses["minimality_k1_defect"] == "FAIL"


class TestPiRowsInPlace:
    """The slot-isometry, pi_multiplicativity, pi_star and pi_unital rows,
    built in place and from the norms of pi taken once, equal the former
    formulas (``conftest.pi_rows_oracle``) with ``==``, on dilations, their
    Haar twins and data whose pi or Psi is no representation."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(41)

        def noise(a):
            return a + 1e-6 * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))

        instances = fuzz_draws(40, seed=3)
        instances[::3] = [i.slots_scaled(10.0 ** rng.uniform(-3, 3, i.n)) for i in instances[::3]]
        instances.append(random_instance(1, n=3, block_dims=[8], mults=[2], h1=4, h2=12, k1_extra=1))
        for inst in instances:
            data = dilate(inst)
            twin = rotate_dilation(data, haar_unitary(rng, data.r1), haar_unitary(rng, data.r2),
                                   [haar_unitary(rng, k) for k in data.k2i_dims])
            for d in (data, twin):
                yield inst, d
                yield inst, replace(d, pi_action=noise(d.pi_action))
                yield inst, replace(d, psi_action=noise(d.psi_action))
        inst = random_instance(7, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        yield inst, non_representation(inst, dilate(inst))

    def test_rows_equal_the_former_formulas(self):
        failing = 0
        for inst, data in self.cases():
            report = verify_dilation(inst, data)
            for name, value in pi_rows_oracle(inst, data).items():
                assert getattr(report, name) == value, name
            failing += not report.passed
        assert failing > 40  # the perturbed data is judged, not skipped


class TestGeneratorCertificate:
    """verify_dilation checks pi and Psi on the generators e^b_p0 only;
    the full basis-pair sweeps in conftest are the reference."""

    def test_agrees_with_full_sweep_oracles(self):
        rng = np.random.default_rng(23)
        for inst in acceptance_instances(100):
            data = dilate(inst)
            twin = rotate_dilation(data, haar_unitary(rng, data.r1), haar_unitary(rng, data.r2))
            for d in (data, twin):
                report = verify_dilation(inst, d)
                assert report.pi_multiplicativity <= 1e-12
                assert report.psi_module_action <= 1e-12
                assert report.psi_representation <= 1e-12
                assert pi_multiplicativity_oracle(inst.algebra, d.pi_action) <= 1e-12
                assert psi_module_action_oracle(inst.module, d.pi_action, d.psi_action) <= 1e-12
                assert psi_representation_oracle(inst.module, d.pi_action, d.psi_action) <= 1e-12

    @pytest.mark.parametrize("sabotage", ["pi_off_generator", "cross_block", "psi_off_generator"])
    def test_sabotage_off_the_generators_is_caught(self, sabotage):
        inst = random_instance(7, n=2, block_dims=[2, 2], mults=[1, 1], h1=2, h2=6)
        data = dilate(inst)
        alg, mod = inst.algebra, inst.module
        rng = np.random.default_rng(29)

        def bump(shape):  # unit Frobenius norm
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return z / frob(z)

        if sabotage == "pi_off_generator":  # pi(e^0_11) moved by 1e-6
            data.pi_action[alg.basis_labels.index((0, 1, 1))] += 1e-6 * bump((data.r1, data.r1))
        elif sabotage == "cross_block":  # pi(e^0_00) overlaps pi(e^1_00)
            data.pi_action[alg.basis_labels.index((0, 0, 0))] += (
                data.pi_action[alg.basis_labels.index((1, 0, 0))]
            )
        else:  # Psi(f^0_01) moved by 1e-6
            data.psi_action[mod.basis_labels.index((0, 0, 1))] += 1e-6 * bump((data.r2, data.r1))
        report = verify_dilation(inst, data)
        oracle = max(
            pi_multiplicativity_oracle(alg, data.pi_action),
            psi_module_action_oracle(mod, data.pi_action, data.psi_action),
        )
        assert oracle > report.tolerance
        assert not report.passed
        certificate = (report.pi_multiplicativity, report.pi_star, report.pi_unital,
                       report.psi_module_action)
        assert max(certificate) > report.tolerance

    def test_moved_psi_generator_is_caught_by_the_representation_check(self):
        inst = random_instance(13, n=2, block_dims=[2, 1], mults=[2, 1], h1=2, h2=8)
        data = dilate(inst)
        mod = inst.module
        rng = np.random.default_rng(37)
        z = rng.standard_normal((data.r2, data.r1)) + 1j * rng.standard_normal((data.r2, data.r1))
        data.psi_action[mod.basis_labels.index((0, 1, 0))] += 1e-6 * z / frob(z)
        report = verify_dilation(inst, data)
        assert psi_representation_oracle(mod, data.pi_action, data.psi_action) > report.tolerance
        assert report.psi_representation > report.tolerance
        assert not report.passed

    def test_full_tables_are_not_read(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("full basis-pair table read during verification")

        monkeypatch.setattr(AlgebraDescriptor, "product_table", property(forbidden))
        monkeypatch.setattr(ModuleDescriptor, "action_table", property(forbidden))
        monkeypatch.setattr(ModuleDescriptor, "inner_table", property(forbidden))
        inst = random_instance(9, n=2, block_dims=[2, 3], mults=[1, 2], h1=2, h2=8)
        assert verify_dilation(inst, dilate(inst)).passed


def equilibrated_choi(cp):
    """The Choi blocks with slot i divided by c_i on both sides, where
    c_i is the power of two nearest (in log2) the square root of slot i's
    largest Choi diagonal entry over the largest slot's, or 1 for a zero
    slot: the blocks ``build_gram`` factors."""
    blocks = [cp.choi_block(b) for b in range(cp.algebra.nblocks)]
    peaks = np.zeros(cp.n)
    for c, d in zip(blocks, cp.algebra.block_dims):
        diag = np.diagonal(c).real.reshape(cp.n, d * cp.h1)
        peaks = np.maximum(peaks, diag.max(axis=1))
    scales = [2.0 ** np.round(0.5 * np.log2(p / peaks.max())) if p > 0 else 1.0 for p in peaks]
    out = []
    for c, d in zip(blocks, cp.algebra.block_dims):
        dv = np.repeat(scales, d * cp.h1)
        out.append(c / np.outer(dv, dv))
    return out


def choi_ranks(cp, shared_scale=True):
    """Rank of each equilibrated Choi block, by eigvalsh, at the default
    cutoff 1e-10 relative to the largest eigenvalue over all blocks (or,
    with ``shared_scale=False``, over that block alone)."""
    spectra = [np.linalg.eigvalsh(c) for c in equilibrated_choi(cp)]
    top = max(float(w[-1]) for w in spectra)
    return [int((w > 1e-10 * (top if shared_scale else w[-1])).sum()) for w in spectra]


def unit_scaled(inst, z):
    """The instance composed with the diagonal element
    ``z = sum_b sum_q z[b][q] e^b_qq``: ``phi_ij(a) -> phi_ij(z a z)`` and
    ``Phi_i(x) -> Phi_i(x z)``, which stays valid.  Slot scales cannot
    undo it."""
    alg = np.array([z[b][p] * z[b][q] for b, p, q in inst.algebra.basis_labels])
    mod = np.array([z[b][q] for b, _, q in inst.module.basis_labels])
    cp = CPBlockMap(inst.algebra, inst.n, inst.h1, inst.cp.action * alg[:, None, None])
    tup = ModuleCPTuple(inst.module, inst.n, inst.h1, inst.h2, inst.tup.action * mod[:, None, None])
    return Instance(cp, tup)


def scaled_two_block():
    # Block 1 sits 1e6 below block 0 in Choi scale, and inside it the
    # row e^1_11 sits 1e3 below e^1_00, so its smallest nonzero eigenvalue
    # is below the cutoff on the whole-Gram scale but above it on the
    # block's own scale; mults [1, 0] keep that direction out of the K2
    # solve.
    base = random_instance(0, n=2, block_dims=[2, 2], mults=[1, 0], h1=1, h2=4, k1_extra=2)
    return unit_scaled(base, [[1.0, 1.0], [1e-3, 1e-6]])


def gap_instance(lam_min=-5e-9, scale=100.0):
    """Two blocks: block 0 at Choi scale ``scale`` and block 1, without
    module rows, with eigenvalues 1 and ``lam_min``.  Compatibility holds
    for every ``lam_min``; the positivity rule at tol 1e-9 on block 1
    alone decides validity, whatever the whole-Gram scale."""
    inst = random_instance(5, n=1, block_dims=[2, 1], mults=[1, 0], h1=2, h2=4)
    cp, tup = inst.cp.action.copy(), inst.tup.action.copy()
    scale = scale / np.linalg.eigvalsh(inst.cp.choi_block(0))[-1]
    cp[:, :, :4] *= scale
    tup *= np.sqrt(scale)
    cp[0, 0, 4] = np.diag([1.0, lam_min])
    return Instance(CPBlockMap(inst.algebra, 1, 2, cp), ModuleCPTuple(inst.module, 1, 2, 4, tup))


def hermiticity_perturbed(eps, seed=5):
    """phi_01 of the unit of block 1, which has no module rows, moved by
    ``eps`` in one entry: compatibility cannot see it, and the
    Hermiticity defect is at most ``eps``."""
    inst = random_instance(seed, n=2, block_dims=[2, 1], mults=[1, 0], h1=2, h2=4)
    cp = inst.cp.action.copy()
    cp[0, 1, 4, 0, 1] += eps
    return Instance(CPBlockMap(inst.algebra, 2, 2, cp), inst.tup)


def assert_dilates_iff_valid(inst):
    if inst.is_valid():
        assert verify_dilation(inst, dilate(inst)).passed
    else:
        with pytest.raises((NotPSDError, HermiticityViolationError)):
            dilate(inst)


class TestPositivityVerdict:
    """``build_gram``, and so ``dilate``, rejects exactly the families
    ``is_completely_n_positive`` rejects, by the same rules."""

    @pytest.mark.parametrize("lam_min", [-5e-9, -1.5e-9, -0.9e-9, -5e-10, 0.0, 1e-9])
    def test_gap_instances(self, lam_min):
        inst = gap_instance(lam_min)
        assert inst.compatibility_residual() <= 1e-12
        lam = np.linalg.eigvalsh(inst.cp.choi_block(1))
        assert float(lam[0]) == pytest.approx(lam_min, abs=1e-15)
        if inst.cp.is_completely_n_positive(1e-9):
            assert lam_min > -1e-9
            assert verify_dilation(inst, dilate(inst, welldef_tol=1e-9)).passed
        else:
            assert lam_min < -1e-9
            with pytest.raises(NotPSDError, match=r"^map family is not completely n-positive: "
                                                  r"Choi block 1 has eigenvalue "):
                dilate(inst, welldef_tol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10.0, 1.0), st.floats(-3.0, 4.0))
    @example(0.9999999999999999, 0.9999999999999999)  # lambda_min on the Gram cutoff
    def test_gap_family(self, lam_over_tol, decades):
        inst = gap_instance(lam_over_tol * 1e-9, 10.0**decades)
        assert inst.compatibility_residual() <= 1e-9
        assert_dilates_iff_valid(inst)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-11.0, -8.0), st.integers(0, 5))
    def test_hermiticity_family(self, decades, seed):
        inst = hermiticity_perturbed(10.0**decades, seed)
        assert inst.compatibility_residual() <= 1e-9
        assert_dilates_iff_valid(inst)

    def test_is_valid_answers_a_hermiticity_break(self):
        inst = hermiticity_perturbed(1e-6)
        assert inst.is_valid() is False
        with pytest.raises(HermiticityViolationError):
            inst.cp.is_completely_n_positive(1e-9)

    def test_verdicts_on_acceptance_and_flipped_instances(self):
        for inst in acceptance_instances(30):
            assert inst.cp.is_completely_n_positive(1e-9)
            dilate(inst)
            flipped = CPBlockMap(inst.algebra, inst.n, inst.h1, -inst.cp.action)
            assert not flipped.is_completely_n_positive(1e-9)
            with pytest.raises(NotPSDError, match="not completely n-positive: Choi block 0 "):
                build_gram(flipped)

    @pytest.mark.parametrize("lam, valid", [(-1e-11, False), (-1e-19, True)])
    def test_each_slot_is_judged_at_its_own_scale(self, lam, valid):
        # Slot 1 has phi_11 = diag(1e-8, lam), scale c_1 = 2^-13.  An
        # eigenvalue of -1e-11 is within tol on the family's own scale but
        # -7e-4 at the slot's, so it is refused; -1e-19 is -7e-12 there.
        alg = AlgebraDescriptor((1,))
        cp = np.zeros((2, 2, 1, 2, 2), dtype=complex)
        cp[0, 0, 0], cp[1, 1, 0] = np.eye(2), np.diag([1e-8, lam])
        tup = np.zeros((2, 1, 4, 2), dtype=complex)
        tup[0, 0, :2], tup[1, 0, 2:] = np.eye(2), np.diag([1e-4, 0.0])
        inst = Instance(CPBlockMap(alg, 2, 2, cp), ModuleCPTuple(ModuleDescriptor(alg, (1,)),
                                                                 2, 2, 4, tup))
        assert inst.cp.is_completely_n_positive(1e-9)
        assert inst.is_valid() == valid
        assert_dilates_iff_valid(inst)

    def test_spectra_are_kept_descending(self):
        # F_b F_b* is the diagonal of the kept eigenvalues, in descending order.
        inst = random_instance(3, n=2, block_dims=[2, 1], mults=[1, 1], h1=2, h2=4)
        g = build_gram(inst.cp)
        spectra = [np.linalg.eigvalsh(inst.cp.choi_block(b))[::-1] for b in range(2)]
        top = max(lam[0] for lam in spectra)
        for b, (f, lam) in enumerate(zip(g.block_factors, spectra)):
            kept = np.einsum("kx,kx->k", f, f.conj()).real
            assert np.all(np.diff(kept) <= 0)
            assert np.allclose(kept, lam[: len(kept)], atol=1e-12)
            assert g.ranks[b] == np.count_nonzero(lam > 1e-10 * top)


class TestBlockwiseConstruction:
    def test_eigendecompositions_are_per_block(self, monkeypatch):
        # Each Choi block is factored once, on the equilibrated instance:
        # from its tuple block when it has module rows (the certificate
        # holds on these valid instances), otherwise by one hermitian_eig
        # of the equilibrated block D^-1 C_b D^-1; r1 and r2 count the ranks.
        calls = []
        for name in ("build_gram", "hermitian_eig", "psd_certified"):
            def recording(*args, _name=name, _fn=getattr(dilation, name), **kwargs):
                out = _fn(*args, **kwargs)
                calls.append((_name, (*args, *kwargs.values()), out))
                return out
            monkeypatch.setattr(dilation, name, recording)
        graded = random_instance(3, **GRADED).slots_scaled([1.0, 1e-9])
        for inst in acceptance_instances(100) + [scaled_two_block(), graded]:
            calls.clear()
            data = dilate(inst)
            chois = equilibrated_choi(inst.cp)
            (cp, _, tup), = [args for name, args, _ in calls if name == "build_gram"]
            assert all(np.array_equal(cp.choi_block(b), c) for b, c in enumerate(chois))
            for b, (c, k) in enumerate(zip(chois, inst.module.mults)):
                t = tuple_block(tup, b).reshape(-1, len(c))
                assert frob(t.conj().T @ t - k * c) <= 1e-12 * max(k * frob(c), 1.0)
            bare = [c for c, k in zip(chois, inst.module.mults) if k == 0]
            eigs = [args[0] for name, args, _ in calls if name == "hermitian_eig"]
            assert len(eigs) == len(bare)
            assert all(np.array_equal(m, c) for m, c in zip(eigs, bare))
            certified = [out for name, _, out in calls if name == "psd_certified"]
            assert certified == [True] * (len(chois) - len(bare))
            ranks = choi_ranks(inst.cp)
            assert data.r1 == sum(d * r for d, r in zip(inst.algebra.block_dims, ranks))
            assert data.r2 == sum(k * r for k, r in zip(inst.module.mults, ranks))
        assert not np.array_equal(chois[0], graded.cp.choi_block(0))

    def test_rank_cutoff_is_on_the_whole_gram_scale(self):
        inst = scaled_two_block()
        tops = [np.linalg.eigvalsh(c)[-1] for c in equilibrated_choi(inst.cp)]
        assert tops[0] >= 1e6 * tops[1]
        assert inst.is_valid()
        assert choi_ranks(inst.cp) != choi_ranks(inst.cp, shared_scale=False)
        g = build_gram(inst.cp)
        assert list(g.ranks) == choi_ranks(inst.cp)
        data = dilate(inst)
        assert verify_dilation(inst, data).passed

    def test_closed_forms_satisfy_the_raw_space_relations(self):
        # pi(e) F = F L_e and k2_embed Psi(f) F = [Phi_i(f . e_alpha) e_beta]
        # column by column, through the dense raw-space factor.
        inst = random_instance(81, n=2, block_dims=[2, 1], mults=[1, 2], h1=2, h2=6)
        g = build_gram(inst.cp)
        pi = build_pi(g, inst.cp)
        psi, k2e, psi_res = build_psi(g, inst.cp, inst.tup)
        assert psi_res <= 1e-12
        n, dim_a, h1 = inst.n, inst.algebra.dim, inst.h1
        factor = raw_factor(g)
        f = factor.reshape(g.r1, n, dim_a, h1)
        for gamma, row in enumerate(inst.algebra.product_table):
            moved = np.zeros_like(f)
            moved[:, :, row >= 0] = f[:, :, row[row >= 0]]
            want = moved.reshape(g.r1, g.raw_dim)
            assert frob(pi[gamma] @ factor - want) <= 1e-12 * max(frob(want), 1.0)
        for gamma, row in enumerate(inst.module.action_table):
            want = np.zeros((inst.h2, n, dim_a, h1), dtype=complex)
            want[:, :, row >= 0] = inst.tup.action[:, row[row >= 0]].transpose(2, 0, 1, 3)
            want = want.reshape(inst.h2, g.raw_dim)
            assert frob(k2e @ psi[gamma] @ factor - want) <= 1e-10 * max(frob(want), 1.0)


GRADED = dict(n=2, block_dims=[2], mults=[1], h1=1, h2=4, k1_extra=2)


def fuzz_draws(count, seed=0):
    """The instances of ``cpdilate fuzz --seed seed`` at the default
    bounds, trial by trial."""
    out = []
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        dims = cli._fuzz_dims(rng, 3, 3, 4)
        out.append(random_instance(seed=int(rng.integers(0, 2**63 - 1)), **dims))
    return out


class TestTupleFactorAgainstEigh:
    """``build_gram`` with the tuple against the former eigh-only one
    (``build_gram_oracle``): the same ranks, dilations related by
    unitaries at the tolerance, and residuals no worse in the median."""

    def test_ranks_equivalence_and_residuals(self):
        graded = random_instance(3, **GRADED).slots_scaled([1.0, 1e-9])
        worst, worst_oracle = [], []
        for inst in acceptance_instances(100) + [scaled_two_block(), graded] + fuzz_draws(60):
            eq, _ = inst.equilibrated()
            assert build_gram(eq.cp, tup=eq.tup).ranks == build_gram_oracle(eq.cp).ranks
            data, oracle = dilate(inst), dilate_oracle(inst)
            assert (data.r1, data.r2) == (oracle.r1, oracle.r2)
            assert build_unitaries(inst, oracle, data).commutes(1e-9)
            for d, out in ((data, worst), (oracle, worst_oracle)):
                report = verify_dilation(inst, d)
                out.append(max(getattr(report, name) for name in REPORT_RESIDUALS_ORACLE))
        assert np.median(worst) <= np.median(worst_oracle)


@pytest.mark.parametrize("scale", [1e-4, 1e-9, 1e-12, 1e-14])
def test_graded_slot_scales_dilate_and_verify(scale):
    inst = random_instance(3, **GRADED).slots_scaled([1.0, scale])
    assert inst.is_valid()
    data = dilate(inst)
    assert (data.r1, data.r2) == (6, 3)
    report = verify_dilation(inst, data)
    assert report.passed, report.to_dict()
    assert report.minimality_k2_defect == 0.0


@pytest.mark.parametrize("scale", [1e-5, 1e-6, 1e-7])
def test_graded_slot_scales_k2_solve(scale):
    # A cutoff on the unequilibrated whole Gram drops slot 2's directions
    # here, and the K2 solve then fails on valid input.
    inst = random_instance(3, **GRADED).slots_scaled([1.0, scale])
    assert inst.is_valid()
    data = dilate(inst)
    assert (data.r1, data.r2) == (6, 3)
    assert verify_dilation(inst, data).passed


def planted_instance(seed, spectrum, scales, x_noise=0.0, tup_noise=0.0):
    """Valid instance on A = M_2 with n = len(scales) slots, h1 = 1 and V
    the first row.  Its Choi block is ``X* X`` for a k x 2n matrix ``X``
    with squared singular values ``spectrum``, moved by ``x_noise`` times a
    unit perturbation (validity stays exact), and slot i scaled by
    ``scales[i]``.  The tuple gets ``tup_noise`` times a unit perturbation
    at each slot's scale, which moves compatibility by about that much."""
    rng = np.random.default_rng(seed)
    n, k = len(scales), len(spectrum)
    alg = AlgebraDescriptor((2,))
    mod = ModuleDescriptor(alg, (1,))

    def unit(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z / frob(z)

    v = haar_unitary(rng, 2 * n)[:, :k]
    x = haar_unitary(rng, k) @ (np.sqrt(spectrum)[:, None] * v.conj().T)  # columns (i, q)
    x = (x + x_noise * unit(x.shape)).reshape(k, n, 2) * np.asarray(scales)[:, None]
    choi = np.einsum("xiq,xjr->ijqr", x.conj(), x)
    cp = np.zeros((n, n, alg.dim, 1, 1), dtype=complex)
    for alpha, (_, q, r) in enumerate(alg.basis_labels):
        cp[:, :, alpha, 0, 0] = choi[:, :, q, r]
    embed = haar_unitary(rng, k + 1)[:, :k]
    tup = np.zeros((n, mod.dim, k + 1, 1), dtype=complex)
    for gamma, (_, _, q) in enumerate(mod.basis_labels):
        tup[:, gamma, :, 0] = (embed @ x[:, :, q]).T
    for i, c in enumerate(scales):
        tup[i] += tup_noise * c * unit(tup[i].shape)
    return Instance(CPBlockMap(alg, n, 1, cp), ModuleCPTuple(mod, n, 1, k + 1, tup))


def dilate_command_passes(inst, tol=1e-9):
    """What ``cpdilate dilate`` decides: the compatibility gate, ``dilate``
    and the verification report."""
    try:
        inst.equilibrated()[0].check_compatible(tol)
        return verify_dilation(inst, dilate(inst, welldef_tol=tol), tol).passed
    except CPDilateError:
        return False


class TestSlotScaleInvariance:
    """Slot scales over 12 decades (one slot possibly zero), near-degenerate
    Choi spectra and noise at the tolerance: ``dilate`` and ``verify``
    pass, with the ranks of the instance whose nonzero slot scales are 1."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        decades=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3),
        split=st.floats(-14.0, -6.0),
        exponents=st.lists(st.floats(-12.0, 0.0), min_size=2, max_size=3),
        zero_slot=st.booleans(),
        noise=st.floats(-1.0, 1.0),
    )
    def test_ranks_of_the_unscaled_instance(self, seed, decades, split, exponents,
                                            zero_slot, noise):
        spectrum = [10.0**-d for d in decades]
        spectrum = np.array([spectrum[0] * (1 + 10.0**split), *spectrum])  # a near-pair
        scales = [10.0**e for e in exponents]
        if zero_slot:
            scales[-1] = 0.0
        noisy = dict(x_noise=noise * 1e-9, tup_noise=noise * 2.5e-10)
        inst = planted_instance(seed, spectrum, scales, **noisy)
        ref = planted_instance(seed, spectrum, [float(c > 0) for c in scales], **noisy)
        # rank decisions within the slack of a power-of-two scale (a factor
        # 16 on relative eigenvalues) are not scale invariant
        lam = np.linalg.eigvalsh(ref.equilibrated()[0].cp.choi_block(0))
        assume(not np.any((lam > 1e-12 * lam[-1]) & (lam < 1e-8 * lam[-1])))
        assert inst.is_valid() and ref.is_valid()
        data, ref_data = dilate(inst), dilate(ref)
        assert (data.r1, data.r2) == (ref_data.r1, ref_data.r2)
        assert verify_dilation(inst, data).passed
        assert verify_dilation(ref, ref_data).passed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), exponent=st.floats(-12.0, 0.0),
           noise=st.floats(-1.0, 1.0))
    @example(seed=0, exponent=-4.0, noise=0.3)
    @example(seed=57, exponent=-0.75, noise=0.5)  # valid at tol, not at tol / 10
    def test_absolute_noise_on_a_small_slot(self, seed, exponent, noise):
        # Tuple noise up to +-tol, absolute rather than at the slot's
        # scale, is large at a small slot's own scale.  The dilate command
        # and is_valid judge it on that one scale: the command refuses
        # what is_valid rejects, and passes what is_valid accepts at a
        # tenth of tol.  In between, the K2 solve residual and the
        # compatibility residual differ by a small factor (up to about 4
        # here), as they do on a slot of scale 1.
        inst = planted_instance(seed, np.array([1.0, 0.5, 0.25]), [1.0, 10.0**exponent])
        z = np.random.default_rng(seed).standard_normal(inst.tup.action[1].shape)
        inst.tup.action[1] += noise * 1e-9 * z / frob(z)
        passes = dilate_command_passes(inst)
        assert inst.is_valid() or not passes
        assert passes or not inst.is_valid(1e-10)
