import numpy as np
import pytest

from conftest import intertwine_oracle
from test_acceptance import acceptance_instances
from cpdilate.cpmaps import haar_unitary, identity_instance, random_instance
from cpdilate.dilation import DilationData, dilate
from cpdilate.equivalence import (
    _diagram_residuals,
    build_unitaries,
    rotate_dilation,
    verify_diagram,
)
from cpdilate.errors import InconsistentSpansError, NotMinimalError
from cpdilate.linalg import frob


def rotated_twin(data, rng):
    q1 = haar_unitary(rng, data.r1)
    q2 = haar_unitary(rng, data.r2)
    w_rot = [haar_unitary(rng, k) for k in data.k2i_dims]
    return rotate_dilation(data, q1, q2, w_rot), q1, q2


def permutation_matrix(perm):
    size = len(perm)
    p = np.zeros((size, size), dtype=complex)
    p[np.arange(size), perm] = 1.0
    return p


def doubled(data):
    """Non-minimal representation: everything duplicated on K1 + K1."""
    r1 = data.r1
    pi = np.zeros((data.pi_action.shape[0], 2 * r1, 2 * r1), dtype=complex)
    pi[:, :r1, :r1] = data.pi_action
    pi[:, r1:, r1:] = data.pi_action
    s = np.concatenate([data.s_ops, np.zeros_like(data.s_ops)], axis=1)
    psi = np.concatenate([data.psi_action, np.zeros_like(data.psi_action)], axis=2)
    return DilationData(
        r1=2 * r1,
        r2=data.r2,
        pi_action=pi,
        s_ops=s,
        psi_action=psi,
        k2_embed=data.k2_embed,
        w_ops=data.w_ops,
        k2i_dims=data.k2i_dims,
    )


class TestBuildUnitaries:
    def test_identical_data_gives_identities(self):
        inst = random_instance(1, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        data = dilate(inst)
        w = build_unitaries(inst, data, data)
        assert frob(w.u1 - np.eye(data.r1)) <= 1e-12
        assert frob(w.u2 - np.eye(data.r2)) <= 1e-12
        assert verify_diagram(w, inst, data, data)

    def test_recovers_planted_rotation(self):
        inst = random_instance(2, n=2, block_dims=[2], mults=[1], h1=2, h2=4)
        data = dilate(inst)
        twin, q1, q2 = rotated_twin(data, np.random.default_rng(7))
        w = build_unitaries(inst, data, twin)
        assert frob(w.u1 - q1) <= 1e-10
        assert frob(w.u2 - q2) <= 1e-10
        assert max(w.u1_unitarity, w.u2_unitarity) <= 1e-10
        assert verify_diagram(w, inst, data, twin, tol=1e-9)

    def test_recovers_planted_permutation(self):
        inst = random_instance(3, n=2, block_dims=[2, 1], mults=[1, 1], h1=2, h2=4)
        data = dilate(inst)
        rng = np.random.default_rng(9)
        p1 = permutation_matrix(rng.permutation(data.r1))
        p2 = permutation_matrix(rng.permutation(data.r2))
        twin = rotate_dilation(data, p1, p2)
        w = build_unitaries(inst, data, twin)
        assert frob(w.u1 - p1) <= 1e-10
        assert frob(w.u2 - p2) <= 1e-10
        assert verify_diagram(w, inst, data, twin, tol=1e-9)

    def test_intertwined_spectra_match(self):
        inst = random_instance(4, n=2, block_dims=[2], mults=[1], h1=3, h2=3)
        data = dilate(inst)
        twin, _, _ = rotated_twin(data, np.random.default_rng(11))
        for alpha in range(inst.algebra.dim):
            herm_a = data.pi_action[alpha] + data.pi_action[alpha].conj().T
            herm_b = twin.pi_action[alpha] + twin.pi_action[alpha].conj().T
            lam_a = np.sort(np.linalg.eigvalsh(herm_a))
            lam_b = np.sort(np.linalg.eigvalsh(herm_b))
            assert np.allclose(lam_a, lam_b, atol=1e-9)

    def test_rejects_non_minimal(self):
        inst = random_instance(5, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        data = dilate(inst)
        with pytest.raises(NotMinimalError):
            build_unitaries(inst, doubled(data), data)
        with pytest.raises(NotMinimalError):
            build_unitaries(inst, data, doubled(data))

    def test_rejects_dilations_of_different_instances(self):
        kw = dict(n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        inst_a = random_instance(100, **kw)
        inst_b = random_instance(200, **kw)
        data_a = dilate(inst_a)
        data_b = dilate(inst_b)
        with pytest.raises(InconsistentSpansError):
            build_unitaries(inst_a, data_a, data_b)


class TestVerifyDiagram:
    def test_identity_witness_fails_on_rotated_copy(self):
        inst = random_instance(6, n=2, block_dims=[2], mults=[1], h1=2, h2=4)
        data = dilate(inst)
        twin, q1, q2 = rotated_twin(data, np.random.default_rng(13))
        w = build_unitaries(inst, data, twin)
        assert frob(q1 - np.eye(data.r1)) > 1e-2  # rotation is nontrivial
        w.u1 = np.eye(data.r1, dtype=complex)
        assert not verify_diagram(w, inst, data, twin)

    def test_scalar_instance_trivial(self):
        inst = identity_instance(1)
        data = dilate(inst)
        w = build_unitaries(inst, data, data)
        assert verify_diagram(w, inst, data, data)
        assert max(v for _, v in w.residual_items()) <= 1e-14

    def test_many_seeds_rotated(self):
        rng = np.random.default_rng(17)
        for seed in range(15):
            inst = random_instance(seed, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
            data = dilate(inst)
            twin, _, _ = rotated_twin(data, rng)
            w = build_unitaries(inst, data, twin, tol=1e-9)
            assert verify_diagram(w, inst, data, twin, tol=1e-9)
            assert max(w.u1_unitarity, w.u2_unitarity) <= 1e-10

    def test_stacked_residuals_match_per_index_oracle(self):
        # A true witness (residuals near rounding) and a wrong one
        # (residuals of order one) on rotated twins.
        rng = np.random.default_rng(19)
        for inst in acceptance_instances(20):
            data = dilate(inst)
            twin, q1, q2 = rotated_twin(data, rng)
            wrong = (haar_unitary(rng, data.r1), haar_unitary(rng, data.r2))
            for u1, u2 in ((q1, q2), wrong):
                got = _diagram_residuals(u1, u2, data, twin)
                for name, want in intertwine_oracle(u1, u2, data, twin).items():
                    assert np.isclose(got[name], want, rtol=1e-12, atol=1e-14), name
