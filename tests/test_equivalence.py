from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    build_unitaries_oracle,
    commutes_oracle,
    full_span_defects,
    intertwine_oracle,
    rotate_dilation_oracle,
    witness_items_oracle,
)
from test_acceptance import acceptance_instances
from test_dilation import scaled_two_block
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate.cpmaps import (
    CPBlockMap,
    Instance,
    ModuleCPTuple,
    haar_unitary,
    identity_instance,
    random_instance,
)
from cpdilate.dilation import DilationData, dilate, span_families, verify_dilation
from cpdilate.equivalence import (
    _diagram_residuals,
    build_unitaries,
    rotate_dilation,
    verify_diagram,
)
from cpdilate.errors import InconsistentSpansError, NotMinimalError
from cpdilate.linalg import direct_sum_rank, frob


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


def graded_two_block():
    """Data on A = C + C whose block-1 span has singular values 1e-6 and
    1e-11 against block 0's 1, and the instance it dilates exactly.  At
    the default cutoff the sum's scale drops the 1e-11 direction, so
    both spans have rank defect 1; a cutoff relative to each block's own
    largest value would keep it and find no defect."""
    alg = AlgebraDescriptor((1, 1))
    mod = ModuleDescriptor(alg, (1, 1))
    pi = np.array([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])], dtype=complex)
    s = np.array([[[1.0, 0.0], [0.0, 1e-6], [1e-11, 0.0]]], dtype=complex)
    data = DilationData(r1=3, r2=3, pi_action=pi, s_ops=s, psi_action=pi.copy(),
                        k2_embed=np.eye(3, dtype=complex), w_ops=(np.eye(3, dtype=complex),),
                        k2i_dims=(3,))
    cp = CPBlockMap(alg, 1, 2, np.einsum("iyh,ayz,jzk->ijahk", s.conj(), pi, s))
    tup = ModuleCPTuple(mod, 1, 2, 3, np.einsum("gyz,izh->igyh", pi, s))
    return Instance(cp, tup), data


class TestBuildUnitaries:
    def test_identical_data_gives_identities(self):
        inst = random_instance(1, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        data = dilate(inst)
        w = build_unitaries(inst, data, data)
        assert frob(w.u1 - np.eye(data.r1)) <= 1e-12
        assert frob(w.u2 - np.eye(data.r2)) <= 1e-12
        assert verify_diagram(w, inst, data, data)

    def test_graded_instance_is_not_rescaled(self, monkeypatch):
        # Only the slot scales and the descriptors are read: the instance's
        # tensors are never copied and rescaled.
        inst = random_instance(3, n=2, block_dims=[2], mults=[1], h1=1, h2=4, k1_extra=2)
        inst = inst.slots_scaled([1.0, 1e-9])
        data = dilate(inst)
        twin, _, _ = rotated_twin(data, np.random.default_rng(5))
        monkeypatch.setattr(Instance, "slots_scaled", None)
        w = build_unitaries(inst, data, twin)
        assert verify_diagram(w, inst, data, twin)

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

    def test_witness_verdict_equals_recomputed_one(self):
        # EquivalenceWitness.commutes reads the residuals build_unitaries
        # computed; verify_diagram recomputes them from u1 and u2.
        rng = np.random.default_rng(23)
        verdicts = set()
        for inst in acceptance_instances(20):
            data = dilate(inst)
            twin, _, _ = rotated_twin(data, rng)
            w = build_unitaries(inst, data, twin)
            worst = max(v for name, v in w.residual_items() if "solve" not in name)
            for tol in (1e-9, worst, np.nextafter(worst, 0.0), 0.0):
                verdict = w.commutes(tol)
                assert verdict == verify_diagram(w, inst, data, twin, tol=tol)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_rows_equal_the_former_code(self):
        # A true witness, one with wrong unitaries (residuals of order one)
        # and one with large solve residuals, which are rows but not in
        # the diagram.
        rng = np.random.default_rng(37)
        for inst in acceptance_instances(20):
            data = dilate(inst)
            twin, _, _ = rotated_twin(data, rng)
            w = build_unitaries(inst, data, twin)
            u1, u2 = haar_unitary(rng, data.r1), haar_unitary(rng, data.r2)
            wrong = replace(w, u1=u1, u2=u2, **_diagram_residuals(u1, u2, data, twin))
            unsolved = replace(w, u1_solve_residual=1.0, u2_solve_residual=1.0)
            assert unsolved.commutes(1e-9)
            for witness in (w, wrong, unsolved):
                assert witness.residual_items() == witness_items_oracle(witness)
                assert witness.to_dict() == dict(witness_items_oracle(witness))
                for tol in (1e-9, 0.5, witness.u1_solve_residual, witness.u2_solve_residual):
                    assert witness.commutes(tol) == commutes_oracle(witness, tol)
                    assert witness.rows(tol) == [(name, v, "ok" if v <= tol else "FAIL")
                                                 for name, v in witness_items_oracle(witness)]

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


class TestFullSpanOracle:
    """U1, U2 and the minimality decisions match the former full-span
    rank checks and least-squares solves (tests/conftest.py)."""

    def test_acceptance_twins(self):
        rng = np.random.default_rng(41)
        for inst in acceptance_instances(100):
            data = dilate(inst)
            twin, q1, q2 = rotated_twin(data, rng)
            w = build_unitaries(inst, data, twin)
            u1, u2, res1, res2 = build_unitaries_oracle(inst, data, twin)
            assert frob(w.u1 - u1) <= 1e-10 and frob(w.u2 - u2) <= 1e-10
            assert frob(w.u1 - q1) <= 1e-10 and frob(w.u2 - q2) <= 1e-10
            assert max(w.u1_solve_residual, w.u2_solve_residual, res1, res2) <= 1e-13

    def test_planted_permutations(self):
        rng = np.random.default_rng(43)
        for inst in acceptance_instances(30, entropy=11):
            data = dilate(inst)
            p1 = permutation_matrix(rng.permutation(data.r1))
            p2 = permutation_matrix(rng.permutation(data.r2))
            twin = rotate_dilation(data, p1, p2)
            w = build_unitaries(inst, data, twin)
            u1, u2, _, _ = build_unitaries_oracle(inst, data, twin)
            assert frob(w.u1 - u1) <= 1e-10 and frob(w.u2 - u2) <= 1e-10
            assert frob(w.u1 - p1) <= 1e-10 and frob(w.u2 - p2) <= 1e-10

    def test_scaled_two_block(self):
        inst = scaled_two_block()
        data = dilate(inst)
        twin, _, _ = rotated_twin(data, np.random.default_rng(59))
        for d in (data, twin):
            report = verify_dilation(inst, d)
            got = (report.minimality_k1_defect, report.minimality_k2_defect)
            assert got == full_span_defects(d) == (0.0, 0.0)
        w = build_unitaries(inst, data, twin)
        u1, u2, _, _ = build_unitaries_oracle(inst, data, twin)
        assert frob(w.u1 - u1) <= 1e-10 and frob(w.u2 - u2) <= 1e-10

    def test_doubled_data(self):
        inst = random_instance(5, n=2, block_dims=[2, 1], mults=[1, 2], h1=2, h2=6)
        data = dilate(inst)
        report = verify_dilation(inst, doubled(data))
        got = (report.minimality_k1_defect, report.minimality_k2_defect)
        assert got == full_span_defects(doubled(data)) == (float(data.r1), 0.0)
        for pair in ((doubled(data), data), (data, doubled(data))):
            with pytest.raises(NotMinimalError):
                build_unitaries(inst, *pair)
            with pytest.raises(NotMinimalError):
                build_unitaries_oracle(inst, *pair)

    def test_shared_cutoff_where_per_block_cutoffs_disagree(self):
        inst, data = graded_two_block()
        assert inst.is_valid()
        report = verify_dilation(inst, data)
        got = (report.minimality_k1_defect, report.minimality_k2_defect)
        assert got == full_span_defects(data) == (1.0, 1.0)
        spectra = [np.linalg.svd(x, compute_uv=False) for x in span_families(inst, data)[3]]
        per_block = sum(direct_sum_rank([sv], [1]) for sv in spectra)
        assert per_block == data.r1  # each block's own scale finds no defect
        with pytest.raises(NotMinimalError):
            build_unitaries(inst, data, data)
        with pytest.raises(NotMinimalError):
            build_unitaries_oracle(inst, data, data)


class TestBlockSpanGuard:
    """No SVD or least-squares solve in verify_dilation or
    build_unitaries takes more span vectors than one block span
    ``X_b = [pi(e^b_0q) S_i e_beta]`` holds, ``max_b d_b n h1``: the
    columns of a matrix handed to an SVD, the rows (equations) of a
    system ``a x = b`` handed to a least-squares solve."""

    def test_factorizations_are_one_block_span_wide(self, monkeypatch):
        widths = []
        svd, lstsq = np.linalg.svd, np.linalg.lstsq

        def recording_svd(a, *args, **kwargs):
            widths.append(a.shape[-1])
            return svd(a, *args, **kwargs)

        def recording_lstsq(a, b, *args, **kwargs):
            widths.append(a.shape[0])
            return lstsq(a, b, *args, **kwargs)

        rng = np.random.default_rng(61)
        cases = [(inst, dilate(inst)) for inst in acceptance_instances(100) + [scaled_two_block()]]
        twins = [rotated_twin(data, rng)[0] for _, data in cases]
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        oracle_too_wide = 0
        for (inst, data), twin in zip(cases, twins):
            bound = max(inst.n * d * inst.h1 for d in inst.algebra.block_dims)
            widths.clear()
            for d in (data, twin):
                verify_dilation(inst, d)
            build_unitaries(inst, data, twin)
            assert widths and max(widths) <= bound
            widths.clear()
            build_unitaries_oracle(inst, data, twin)
            oracle_too_wide += max(widths) > bound
        assert oracle_too_wide >= 50  # the guard sees the full spans


def test_rotate_dilation_matches_the_contraction_oracle():
    rng = np.random.default_rng(67)
    for inst in acceptance_instances(100):
        data = dilate(inst)
        q1, q2 = haar_unitary(rng, data.r1), haar_unitary(rng, data.r2)
        w_rot = [haar_unitary(rng, k) for k in data.k2i_dims]
        got = rotate_dilation(data, q1, q2, w_rot)
        want = rotate_dilation_oracle(data, q1, q2, w_rot)
        for name in ("pi_action", "s_ops", "psi_action", "k2_embed"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            assert frob(a - b) <= 1e-14 * max(frob(b), 1.0), name
        assert all(np.array_equal(a, b) for a, b in zip(got.w_ops, want.w_ops))
