import numpy as np
import pytest

from test_acceptance import acceptance_instances
from cpdilate import dilation, equivalence, linalg
from cpdilate.cpmaps import haar_unitary
from cpdilate.errors import NotHermitianError, NotPSDError, NotSquareError
from cpdilate.linalg import (
    HermEig,
    frob,
    hermitian_eig,
    numerical_rank,
    rank_truncate,
    solve_lsq,
    svd_orthobasis,
)


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


class TestHermitianEig:
    def test_identity(self):
        e = hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(e.eigenvalues, [1.0, 1.0])
        v = e.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_pauli_x_spectrum(self):
        e = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(e.eigenvalues, [1.0, -1.0], atol=1e-14)

    def test_reconstruction_of_random_hermitian(self):
        rng = np.random.default_rng(11)
        b = random_complex(rng, 8, 8)
        m = b + b.conj().T
        e = hermitian_eig(m)
        recon = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.conj().T
        assert frob(recon - m) <= 1e-12 * frob(m)
        assert np.all(np.diff(e.eigenvalues) <= 1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            hermitian_eig(np.zeros((2, 3)))

    def test_spectrum_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, 6, 6)
        m = b + b.conj().T
        q, _ = np.linalg.qr(random_complex(rng, 6, 6))
        e1 = hermitian_eig(m)
        e2 = hermitian_eig(q @ m @ q.conj().T, tol_herm=1e-10)
        assert np.allclose(e1.eigenvalues, e2.eigenvalues, atol=1e-10)


class TestRankTruncate:
    def test_rank_one_ones_matrix(self):
        g = np.ones((2, 2), dtype=complex)
        rank, factor = rank_truncate(hermitian_eig(g))
        assert rank == 1
        assert factor.shape == (1, 2)
        assert frob(factor.conj().T @ factor - g) <= 1e-12

    def test_identity_full_rank(self):
        rank, _ = rank_truncate(hermitian_eig(np.eye(3, dtype=complex)))
        assert rank == 3

    def test_cutoff_forces_truncation(self):
        e = HermEig(np.array([1.0, 1e-14]), np.eye(2, dtype=complex))
        rank, factor = rank_truncate(e, rel_cutoff=1e-10)
        assert rank == 1
        assert factor.shape == (1, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            rank_truncate(hermitian_eig(np.diag([1.0, -1.0]).astype(complex)))

    def test_reconstruction_bound_on_random_psd(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            k = int(rng.integers(1, 7))
            b = random_complex(rng, 8, k)
            g = b @ b.conj().T
            rank, factor = rank_truncate(hermitian_eig(g, tol_herm=1e-12))
            lam_max = float(np.linalg.eigvalsh(g).max())
            assert frob(factor.conj().T @ factor - g) <= 10 * 1e-10 * lam_max
            assert rank == np.linalg.matrix_rank(g, tol=1e-8)

    def test_zero_matrix(self):
        rank, factor = rank_truncate(hermitian_eig(np.zeros((3, 3), dtype=complex)))
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
    """The rank from singular values alone equals the column count of
    ``svd_orthobasis`` at the same cutoff."""

    def test_spans_ranked_by_verification_and_equivalence(self, monkeypatch):
        ranked = []

        def recording_rank(columns, rel_cutoff=linalg.DEFAULT_CUTOFF):
            ranked.append((columns, rel_cutoff))
            return numerical_rank(columns, rel_cutoff)

        monkeypatch.setattr(dilation, "numerical_rank", recording_rank)
        monkeypatch.setattr(equivalence, "numerical_rank", recording_rank)
        rng = np.random.default_rng(47)
        for inst in acceptance_instances(100):
            data = dilation.dilate(inst)
            twin = equivalence.rotate_dilation(
                data,
                haar_unitary(rng, data.r1),
                haar_unitary(rng, data.r2),
                [haar_unitary(rng, k) for k in data.k2i_dims],
            )
            for d in (data, twin):
                assert dilation.verify_dilation(inst, d).passed
            equivalence.build_unitaries(inst, data, twin)
        assert len(ranked) == 100 * (2 * 2 + 4)
        for columns, cutoff in ranked:
            assert numerical_rank(columns, cutoff) == svd_orthobasis(columns, cutoff).shape[1]

    @pytest.mark.parametrize("shape", [(3, 4), (0, 5), (4, 0)])
    def test_zero_and_empty_input(self, shape):
        assert numerical_rank(np.zeros(shape, dtype=complex)) == 0

    def test_cutoff_is_relative_to_the_largest_singular_value(self):
        m = np.diag([1e3, 1e-6, 1e-8]).astype(complex)
        assert numerical_rank(m, 1e-10) == 2
        assert numerical_rank(m, 1e-12) == 3
        assert numerical_rank(m, 1e-10) == svd_orthobasis(m, 1e-10).shape[1]
