import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    full_span_defects,
    k1_span_oracle,
    k2_span_oracle,
    lsq_residual_oracle,
    numerical_rank,
    transpose_map,
)
from test_acceptance import acceptance_instances
from test_equivalence import doubled
from cpdilate import cpmaps, dilation, equivalence, linalg
from cpdilate.algebra import AlgebraDescriptor
from cpdilate.cpmaps import CPBlockMap, haar_unitary
from cpdilate.errors import NotMinimalError, NotPSDError, NotSquareError
from cpdilate.linalg import (
    direct_sum_rank,
    frob,
    hermitian_eig,
    kept_ranks,
    matrix_norms,
    negative_at_scale,
    psd_certified,
    solve_lsq,
    svd_orthobasis,
)


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1.0, -1.0], atol=1e-14)

    def test_reconstruction_of_random_hermitian(self):
        rng = np.random.default_rng(11)
        b = random_complex(rng, 8, 8)
        m = b + b.conj().T
        w, v = hermitian_eig(m)
        recon = v @ np.diag(w) @ v.conj().T
        assert frob(recon - m) <= 1e-12 * frob(m)
        assert np.all(np.diff(w) <= 1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            hermitian_eig(np.zeros((2, 3)))

    def test_spectrum_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, 6, 6)
        m = b + b.conj().T
        q, _ = np.linalg.qr(random_complex(rng, 6, 6))
        w1, _ = hermitian_eig(m)
        w2, _ = hermitian_eig(q @ m @ q.conj().T)
        assert np.allclose(w1, w2, atol=1e-10)


class TestNegativeAtScale:
    def test_threshold_is_relative_to_the_largest_eigenvalue_floored_at_one(self):
        assert not negative_at_scale(-1e-9, 0.5, 1e-9)     # on the threshold
        assert negative_at_scale(-1.01e-9, 0.5, 1e-9)      # scale floored at 1
        assert not negative_at_scale(-1.5e-7, 200.0, 1e-9)
        assert negative_at_scale(-2.01e-7, 200.0, 1e-9)
        assert not negative_at_scale(0.0, 0.0, 0.0)

    def test_build_gram_and_choi_test_share_it(self, monkeypatch):
        # Both apply it to each block's own spectrum at the same tol, so the
        # transpose map (eigenvalues 1, 1, 1, -1) is judged by one call each.
        seen = []

        def recording(lam_min, lam_max, rel_tol):
            seen.append((lam_min, lam_max, rel_tol))
            return False

        monkeypatch.setattr(dilation, "negative_at_scale", recording)
        monkeypatch.setattr(cpmaps, "negative_at_scale", recording)
        g = dilation.build_gram(transpose_map(), tol=1e-9)  # the rule says no
        assert seen == [pytest.approx((-1.0, 1.0, 1e-9))]
        assert g.ranks == (3,)
        assert transpose_map().is_completely_n_positive(1e-9)
        assert seen[1] == pytest.approx(seen[0])
        monkeypatch.undo()
        with pytest.raises(NotPSDError, match="Choi block 0 has eigenvalue -1.000e"):
            dilation.build_gram(transpose_map())
        assert not transpose_map().is_completely_n_positive(1e-9)


class TestPsdCertificate:
    """``psd_certified`` from a nearby PSD product ``P = T* T / k`` proves
    what ``negative_at_scale`` would say on the spectrum of ``C``."""

    @staticmethod
    def perturbed(seed, rows, side, k, log_scale, log_delta, negatives):
        """``(C, P, top)``: ``P = T* T / k`` for a random ``(rows, side)``
        tuple ``T`` of scale ``10**log_scale``, its largest eigenvalue
        ``top`` from the SVD of ``T``, and ``C = P + delta H`` with ``H``
        a random Hermitian of unit norm with ``negatives`` negative
        eigenvalues and ``delta = 10**log_delta * |P|_F``."""
        rng = np.random.default_rng(seed)
        t = 10.0**log_scale * random_complex(rng, rows, side)
        p = t.conj().T @ t / k
        lam = np.abs(rng.standard_normal(side)) * np.where(np.arange(side) < negatives, -1, 1)
        q = haar_unitary(rng, side)
        h = (q * (lam / np.linalg.norm(lam))) @ q.conj().T
        top = float(np.linalg.svd(t, compute_uv=False)[0] ** 2 / k)
        return p + 10.0**log_delta * frob(p) * h, p, top

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), side=st.integers(1, 8),
           k=st.integers(1, 3), log_scale=st.floats(-4.0, 4.0),
           log_delta=st.floats(-17.0, -6.0), negatives=st.integers(0, 8))
    def test_certificate_implies_the_rule(self, seed, rows, side, k, log_scale, log_delta,
                                          negatives):
        c, p, top = self.perturbed(seed, rows, side, k, log_scale, log_delta, negatives)
        if psd_certified(frob(c - p), top, 1e-9):
            lam = np.linalg.eigvalsh(c)
            assert not negative_at_scale(float(lam[0]), float(lam[-1]), 1e-9)

    def test_certifies_a_negative_eigenvalue_within_the_tolerance(self):
        # rank-deficient P, so the perturbation alone sets C's smallest
        # eigenvalues: negative, within the rule at 1e-12, refused at 1e-6
        c, p, top = self.perturbed(1, 2, 6, 1, 0.0, -12.0, 6)
        assert np.linalg.eigvalsh(c)[0] < 0
        assert psd_certified(frob(c - p), top, 1e-9)
        c, p, top = self.perturbed(1, 2, 6, 1, 0.0, -6.0, 6)
        assert not psd_certified(frob(c - p), top, 1e-9)
        lam = np.linalg.eigvalsh(c)
        assert negative_at_scale(float(lam[0]), float(lam[-1]), 1e-9)


def truncate(g):
    """``build_gram`` on the one-slot family ``phi(1) = g`` (A = C,
    h1 = len(g)), whose one Choi block is ``g``; a single slot has scale 1,
    so the block is factored as it is.  Returns ``(rank, F)``."""
    side = len(g)
    f = dilation.build_gram(CPBlockMap(AlgebraDescriptor((1,)), 1, side,
                                       g.reshape(1, 1, 1, side, side))).block_factors[0]
    return len(f), f


class TestRankTruncate:
    """Truncation of one PSD block: ``kept_ranks`` decides, ``build_gram``
    keeps that many leading eigenpairs as ``diag(sqrt(kept)) V_kept*``."""

    def test_rank_one_ones_matrix(self):
        g = np.ones((2, 2), dtype=complex)
        rank, factor = truncate(g)
        assert rank == 1
        assert factor.shape == (1, 2)
        assert frob(factor.conj().T @ factor - g) <= 1e-12

    def test_identity_full_rank(self):
        rank, _ = truncate(np.eye(3, dtype=complex))
        assert rank == 3

    def test_cutoff_forces_truncation(self):
        assert kept_ranks([np.array([1.0, 1e-14])]) == [1]
        rank, factor = truncate(np.diag([1.0, 1e-14]).astype(complex))
        assert rank == 1
        assert factor.shape == (1, 2)

    def test_drops_negative_eigenvalues(self):
        # Counting only: the positivity verdict is the caller's.
        assert kept_ranks([np.array([1.0, -1.0])]) == [1]
        assert kept_ranks([np.array([-1.0]), np.array([-2.0])]) == [0, 0]

    def test_reconstruction_bound_on_random_psd(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            k = int(rng.integers(1, 7))
            b = random_complex(rng, 8, k)
            g = b @ b.conj().T
            rank, factor = truncate(g)
            lam_max = float(np.linalg.eigvalsh(g).max())
            assert frob(factor.conj().T @ factor - g) <= 10 * 1e-10 * lam_max
            assert rank == np.linalg.matrix_rank(g, tol=1e-8)

    def test_zero_matrix(self):
        rank, factor = truncate(np.zeros((3, 3), dtype=complex))
        assert rank == 0
        assert factor.shape == (0, 3)


class TestSolveLsq:
    def test_identity_system(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, 4, 2)
        x, res = solve_lsq(np.eye(4, dtype=complex), b)
        assert np.allclose(x, b)
        assert res <= 1e-14

    def test_overdetermined_by_normal_equations(self):
        # A = [[1], [1]], B = [[1], [0]]: A*A x = A*B gives 2x = 1, so
        # x = 1/2 and the residual vector is (-1/2, 1/2) with Frobenius
        # norm sqrt(1/2), divided by |B| = 1.
        a = np.array([[1.0], [1.0]], dtype=complex)
        b = np.array([[1.0], [0.0]], dtype=complex)
        x, res = solve_lsq(a, b)
        assert np.allclose(x, [[0.5]])
        assert abs(res - np.sqrt(0.5)) <= 1e-14

    def test_rank_deficient_consistent_system(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 6, 2) @ random_complex(rng, 2, 4)  # rank 2
        x0 = random_complex(rng, 4, 3)
        b = a @ x0
        _, res = solve_lsq(a, b)
        assert res <= 1e-12

    def test_empty_columns(self):
        x, res = solve_lsq(np.zeros((3, 0), dtype=complex), np.zeros((3, 2), dtype=complex))
        assert x.shape == (0, 2)
        assert res == 0.0

    def test_residual_is_the_former_inline_ratio(self):
        # bit for bit, on right-hand sides above and below norm 1 and zero
        rng = np.random.default_rng(29)
        small = 0
        for trial in range(300):
            rows, cols, rhs = (int(v) for v in rng.integers(0, 6, size=3))
            a = 10.0 ** rng.uniform(-4, 4) * random_complex(rng, rows, cols)
            b = 10.0 ** rng.uniform(-4, 4) * random_complex(rng, rows, rhs) * (trial % 5 != 0)
            x, res = solve_lsq(a, b)
            assert res == lsq_residual_oracle(a, x, b)
            small += res > 0 and frob(b) < 1.0
        assert small >= 10  # the denominator-1 branch with a nonzero residual


class TestMatrixNorms:
    """Bit for bit ``np.linalg.norm(stack, axis=(-2, -1))``, whose
    summation order the residual reports depend on."""

    @pytest.mark.parametrize("shape", [(3, 4, 4), (64, 16, 16), (2, 3, 5, 7), (1, 1), (9, 1, 40)])
    def test_bitwise_equal_to_numpy(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for stack in (z, np.swapaxes(z, -2, -1), z[..., ::2, :], z.real, z.real.T):
            want = np.linalg.norm(stack, axis=(-2, -1))
            got = matrix_norms(stack)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 3), (4, 2, 0), (0, 0)])
    def test_empty_stacks(self, shape):
        got = matrix_norms(np.zeros(shape, dtype=complex))
        assert got.shape == shape[:-2] and not got.any()
        assert frob(np.zeros(shape, dtype=complex)) == 0.0  # no branch of its own


class TestSvdOrthobasis:
    def test_identity(self):
        q = svd_orthobasis(np.eye(2, dtype=complex))
        assert q.shape == (2, 2)
        assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)

    def test_duplicate_columns_collapse(self):
        col = np.array([[1.0], [2.0]], dtype=complex)
        q = svd_orthobasis(np.hstack([col, col]))
        assert q.shape == (2, 1)

    def test_rank_three_span(self):
        rng = np.random.default_rng(23)
        m = random_complex(rng, 4, 3) @ random_complex(rng, 3, 7)
        q = svd_orthobasis(m)
        assert q.shape == (4, 3)
        assert frob(q @ q.conj().T @ m - m) <= 1e-12 * frob(m)

    def test_zero_input(self):
        q = svd_orthobasis(np.zeros((3, 4), dtype=complex))
        assert q.shape == (3, 0)


class TestNumericalRank:
    """The full-span rank of the former minimality checks (the oracle
    ``numerical_rank`` in tests/conftest.py) equals the column count of
    ``svd_orthobasis`` at the same cutoff, and the minimality ranks that
    verification and equivalence now count on the block spans equal it
    on the full spanning families."""

    def test_spans_ranked_by_verification_and_equivalence(self):
        rng = np.random.default_rng(47)
        for inst in acceptance_instances(100):
            data = dilation.dilate(inst)
            twin = equivalence.rotate_dilation(
                data,
                haar_unitary(rng, data.r1),
                haar_unitary(rng, data.r2),
                [haar_unitary(rng, k) for k in data.k2i_dims],
            )
            data_doubled = doubled(data)
            for d in (data, twin, data_doubled):
                report = dilation.verify_dilation(inst, d)
                assert report.passed == (d is not data_doubled or not data.r1)
                got = (report.minimality_k1_defect, report.minimality_k2_defect)
                assert got == full_span_defects(d)
                for columns in (k1_span_oracle(d), k2_span_oracle(d)):
                    assert numerical_rank(columns) == svd_orthobasis(columns).shape[1]
            assert full_span_defects(data_doubled) == (float(data.r1), 0.0)
            equivalence.build_unitaries(inst, data, twin)
            if data.r1:
                with pytest.raises(NotMinimalError):
                    equivalence.build_unitaries(inst, data_doubled, twin)

    @pytest.mark.parametrize("shape", [(3, 4), (0, 5), (4, 0)])
    def test_zero_and_empty_input(self, shape):
        assert numerical_rank(np.zeros(shape, dtype=complex)) == 0

    def test_cutoff_is_relative_to_the_largest_singular_value(self):
        m = np.diag([1e3, 1e-6, 1e-8]).astype(complex)
        assert numerical_rank(m, 1e-10) == 2
        assert numerical_rank(m, 1e-12) == 3
        assert numerical_rank(m, 1e-10) == svd_orthobasis(m).shape[1]


class TestDirectSumRank:
    """One cutoff for every block: ``DEFAULT_CUTOFF`` times the largest
    singular value over the blocks that enter, as on the whole sum."""

    @staticmethod
    def whole_sum(blocks, copies):
        rows = sum(c * m.shape[0] for m, c in zip(blocks, copies))
        cols = sum(c * m.shape[1] for m, c in zip(blocks, copies))
        out = np.zeros((rows, cols), dtype=complex)
        r = q = 0
        for m, c in zip(blocks, copies):
            for _ in range(c):
                out[r : r + m.shape[0], q : q + m.shape[1]] = m
                r, q = r + m.shape[0], q + m.shape[1]
        return out

    @staticmethod
    def rank(blocks, copies):
        spectra = [np.linalg.svd(m, compute_uv=False) for m in blocks]
        return direct_sum_rank(spectra, copies)

    def test_equals_the_rank_of_the_whole_sum(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            blocks = []
            for _ in range(int(rng.integers(1, 4))):
                rows, cols = (int(v) for v in rng.integers(0, 6, size=2))
                grade = np.diag(10.0 ** -rng.uniform(0, 14, size=min(rows, cols)))
                m = np.zeros((rows, cols), dtype=complex)
                if min(rows, cols):
                    q_l = np.linalg.qr(random_complex(rng, rows, min(rows, cols)))[0]
                    q_r = np.linalg.qr(random_complex(rng, cols, min(rows, cols)))[0]
                    m = 10.0 ** rng.uniform(-6, 6) * q_l @ grade @ q_r.conj().T
                blocks.append(m)
            copies = [int(c) for c in rng.integers(0, 4, size=len(blocks))]
            assert self.rank(blocks, copies) == numerical_rank(self.whole_sum(blocks, copies))

    def test_scale_is_shared_across_blocks(self):
        # 1e-11 is above 1e-10 of its own block's top value 1e-6 but
        # below 1e-10 of the sum's top value 1: a per-block cutoff would
        # count 3.
        blocks = [np.diag([1.0]).astype(complex), np.diag([1e-6, 1e-11]).astype(complex)]
        assert self.rank(blocks, [1, 1]) == 2
        assert self.rank(blocks, [1, 1]) == numerical_rank(self.whole_sum(blocks, [1, 1]))
        assert sum(self.rank([m], [1]) for m in blocks) == 3
        assert self.rank(blocks, [2, 3]) == 2 + 3

    def test_blocks_without_copies_set_no_scale(self):
        blocks = [np.diag([1e6]).astype(complex), np.diag([1.0, 1e-5]).astype(complex)]
        assert self.rank(blocks, [0, 2]) == 4
        assert self.rank(blocks, [1, 2]) == 1 + 2

    def test_empty_and_zero_blocks(self):
        assert direct_sum_rank([], []) == 0
        assert self.rank([np.zeros((0, 3)), np.zeros((2, 2))], [2, 1]) == 0
