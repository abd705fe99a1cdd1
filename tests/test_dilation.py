import numpy as np
import pytest

from conftest import brute_force_gram, scalar_family, transpose_map
from test_acceptance import acceptance_instances
from cpdilate import dilation
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate.cpmaps import CPBlockMap, Instance, ModuleCPTuple, identity_instance, random_instance
from cpdilate.dilation import (
    build_S,
    build_gram,
    build_pi,
    build_psi,
    build_W,
    dilate,
    verify_dilation,
)
from cpdilate.errors import NotPSDError, WellDefinednessError
from cpdilate.linalg import frob


def seeded_instances(count, **kw):
    return [random_instance(seed, **kw) for seed in range(count)]


class TestBuildGram:
    def test_scalar_identity(self):
        g = build_gram(scalar_family(1, [[1.0]]))
        assert g.raw_dim == 1 and g.r1 == 1
        assert np.allclose(g.gram, [[1.0]])

    def test_all_ones_family_rank_one(self):
        g = build_gram(scalar_family(2, [[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(g.gram, np.ones((2, 2)))
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
            assert frob(g.gram - oracle) <= 1e-12 * max(frob(oracle), 1.0)

    def test_gram_hermitian_for_generated_instances(self):
        inst = random_instance(11, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        g = build_gram(inst.cp)
        assert frob(g.gram - g.gram.conj().T) <= 1e-12 * max(frob(g.gram), 1.0)

    def test_factor_reconstructs_gram(self):
        inst = random_instance(13, n=2, block_dims=[2], mults=[1], h1=3, h2=3)
        g = build_gram(inst.cp)
        lam_max = float(np.linalg.eigvalsh(g.gram).max())
        assert frob(g.factor.conj().T @ g.factor - g.gram) <= 10 * 1e-10 * lam_max

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
        pi, res = build_pi(g, inst.cp)
        one = pi[inst.algebra.identity_indices].sum(axis=0)
        assert np.allclose(one, np.eye(g.r1), atol=1e-12)
        assert res <= 1e-12

    def test_projector_spectrum_for_identity_map(self):
        inst = identity_instance(2)
        g = build_gram(inst.cp)
        pi, _ = build_pi(g, inst.cp)
        lam = np.sort(np.linalg.eigvalsh(pi[0]))  # pi(e_11)
        assert np.allclose(lam, [0.0, 1.0], atol=1e-12)

    def test_multiplicative_on_basis_pairs(self):
        inst = random_instance(21, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        g = build_gram(inst.cp)
        pi, _ = build_pi(g, inst.cp)
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
        pi, _ = build_pi(g, inst.cp)
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
        psi, k2e, r2, res = build_psi(g, inst.cp, inst.tup)
        assert r2 == 2
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
        oracle = targets @ np.linalg.pinv(g.factor)
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
        for gamma in range(inst.module.dim):
            op_norm = np.linalg.norm(data.psi_action[gamma], 2) if data.psi_action[gamma].size else 0.0
            mod_norm = inst.module.basis_element(gamma).norm()
            assert op_norm <= mod_norm + 1e-9

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
        inst = random_instance(61, n=2, block_dims=[2], mults=[1], h1=2, h2=3,
                               slot_scales=[0.6, 1.3])
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


def choi_ranks(cp, shared_scale=True):
    """Rank of each compressed Choi block, by eigvalsh, at the default
    cutoff 1e-10 relative to the largest eigenvalue over all blocks (or,
    with ``shared_scale=False``, over that block alone)."""
    spectra = [np.linalg.eigvalsh(cp.choi_block(b)) for b in range(cp.algebra.nblocks)]
    top = max(float(w[-1]) for w in spectra)
    return [int((w > 1e-10 * (top if shared_scale else w[-1])).sum()) for w in spectra]


def block_scaled(inst, scales):
    """The instance composed with the central element z = sum_b scales[b] 1_b:
    phi_ij(a) -> phi_ij(z a z) and Phi_i(x) -> Phi_i(x z), which stays valid."""
    alg = np.array([scales[b] for b, _, _ in inst.algebra.basis_labels])
    mod = np.array([scales[b] for b, _, _ in inst.module.basis_labels])
    cp = CPBlockMap(inst.algebra, inst.n, inst.h1, inst.cp.action * (alg**2)[:, None, None])
    tup = ModuleCPTuple(inst.module, inst.n, inst.h1, inst.h2, inst.tup.action * mod[:, None, None])
    return Instance(cp, tup)


class TestBlockwiseConstruction:
    def scaled_two_block(self):
        # Block 1 sits 1e6 below block 0 in Choi scale, and its smallest
        # nonzero eigenvalue is below the cutoff on the whole-Gram scale
        # but above it on the block's own scale; mults [1, 0] keep that
        # direction out of the K2 solve.
        base = random_instance(0, n=2, block_dims=[2, 2], mults=[1, 0], h1=1, h2=4,
                               k1_extra=2, slot_scales=[1.0, 1e-3])
        return block_scaled(base, [1.0, 1e-3])

    def test_eigendecompositions_are_per_block(self, monkeypatch):
        seen = []
        original = dilation.hermitian_eig

        def recording(m, *args, **kwargs):
            seen.append(m.shape)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(dilation, "hermitian_eig", recording)
        for inst in acceptance_instances(100) + [self.scaled_two_block()]:
            seen.clear()
            data = dilate(inst)
            largest = max(inst.n * d * inst.h1 for d in inst.algebra.block_dims)
            assert len(seen) == inst.algebra.nblocks
            assert max(max(shape) for shape in seen) <= largest
            ranks = choi_ranks(inst.cp)
            assert data.r1 == sum(d * r for d, r in zip(inst.algebra.block_dims, ranks))
            assert data.r2 == sum(k * r for k, r in zip(inst.module.mults, ranks))

    def test_rank_cutoff_is_on_the_whole_gram_scale(self):
        inst = self.scaled_two_block()
        tops = [np.linalg.eigvalsh(inst.cp.choi_block(b))[-1] for b in range(2)]
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
        pi, pi_res = build_pi(g, inst.cp)
        psi, k2e, _, psi_res = build_psi(g, inst.cp, inst.tup)
        assert pi_res == 0.0 and psi_res <= 1e-12
        n, dim_a, h1 = inst.n, inst.algebra.dim, inst.h1
        f = g.factor.reshape(g.r1, n, dim_a, h1)
        for gamma, row in enumerate(inst.algebra.product_table):
            moved = np.zeros_like(f)
            moved[:, :, row >= 0] = f[:, :, row[row >= 0]]
            want = moved.reshape(g.r1, g.raw_dim)
            assert frob(pi[gamma] @ g.factor - want) <= 1e-12 * max(frob(want), 1.0)
        for gamma, row in enumerate(inst.module.action_table):
            want = np.zeros((inst.h2, n, dim_a, h1), dtype=complex)
            want[:, :, row >= 0] = inst.tup.action[:, row[row >= 0]].transpose(2, 0, 1, 3)
            want = want.reshape(inst.h2, g.raw_dim)
            assert frob(k2e @ psi[gamma] @ g.factor - want) <= 1e-10 * max(frob(want), 1.0)


GRADED = dict(n=2, block_dims=[2], mults=[1], h1=1, h2=4, k1_extra=2)


@pytest.mark.parametrize("scale", [1e-4, 1e-9])
def test_graded_slot_scales_dilate_and_verify(scale):
    inst = random_instance(3, **GRADED, slot_scales=[1.0, scale])
    assert inst.is_valid()
    report = verify_dilation(inst, dilate(inst))
    assert report.passed, report.to_dict()
    assert report.minimality_k2_defect == 0.0


@pytest.mark.xfail(strict=True, raises=WellDefinednessError,
                   reason="ROADMAP item 3: the K2 solve meets slot-2 directions "
                          "dropped at the whole-Gram cutoff")
@pytest.mark.parametrize("scale", [1e-5, 1e-6, 1e-7])
def test_graded_slot_scales_k2_solve(scale):
    inst = random_instance(3, **GRADED, slot_scales=[1.0, scale])
    assert inst.is_valid()
    assert verify_dilation(inst, dilate(inst)).passed
