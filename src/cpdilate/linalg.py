"""Dense complex linear-algebra kernel.

Everything downstream (Gram factorization, quotient maps, span bases,
unitary recovery) is built from the four operations here.  All matrices
are ``numpy.ndarray`` with dtype complex128; all comparisons are relative
Frobenius residuals with denominator ``max(norm, 1)`` so zero inputs never
divide by zero.

Determinism: LAPACK eigendecompositions are deterministic on a fixed
platform, but eigenvector phase and ordering inside degenerate clusters
may differ across platforms.  Callers must therefore compare only
basis-independent quantities (residuals, dimensions, spectra) across
platforms; within one platform all outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, NotPSDError, NotSquareError

DEFAULT_CUTOFF = 1e-10
DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_CUTOFF",
    "DEFAULT_TOL",
    "HermEig",
    "frob",
    "matrix_norms",
    "rel_residual",
    "hermitian_eig",
    "rank_truncate",
    "solve_lsq",
    "svd_orthobasis",
    "numerical_rank",
]


def frob(m: np.ndarray) -> float:
    """Frobenius norm; 0.0 for empty matrices."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m))


def matrix_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a (..., r, c) stack."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.norm(stack, axis=(-2, -1))


def rel_residual(actual: np.ndarray, expected: np.ndarray) -> float:
    """``|actual - expected|_F / max(|expected|_F, 1)``."""
    return frob(actual - expected) / max(frob(expected), 1.0)


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors``
    holds the matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray, tol_herm: float = 1e-12) -> HermEig:
    """Eigendecomposition of a (numerically) Hermitian matrix.

    Raises NotSquareError for non-square input and NotHermitianError when
    the symmetry defect ``|m - m*|`` exceeds ``tol_herm * |m|``.  The input
    is symmetrized before factorization so the defect never leaks into the
    eigenvalues.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    defect = frob(m - m.conj().T)
    if defect > tol_herm * frob(m):
        raise NotHermitianError(
            f"symmetry defect {defect:.3e} exceeds {tol_herm:.1e} * |m|"
        )
    if m.shape[0] == 0:
        return HermEig(np.zeros(0), np.zeros((0, 0), dtype=complex))
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    order = np.argsort(w)[::-1]
    return HermEig(w[order], v[:, order])


def rank_truncate(
    e: HermEig, rel_cutoff: float = DEFAULT_CUTOFF, scale: float | None = None
) -> tuple[int, np.ndarray]:
    """Rank-reveal a PSD eigendecomposition and return its square-root factor.

    Keeps eigenvalues above ``rel_cutoff * scale`` and returns
    ``(rank, F)`` with ``F = diag(sqrt(kept)) @ V_kept*`` so that
    ``F* F`` reconstructs the original matrix to cutoff accuracy.  The
    factor's rows are the canonical coordinates of the quotient by the
    numerical null space.

    Raises NotPSDError when a kept-scale negative eigenvalue exists, i.e.
    ``min(eigenvalue) < -rel_cutoff * max(scale, 1)``.

    ``scale`` defaults to the largest eigenvalue of ``e``; the diagonal
    blocks of one direct sum pass the largest eigenvalue over all
    blocks, so their rank decisions match those on the whole sum.
    """
    w = e.eigenvalues
    if w.size == 0:
        return 0, np.zeros((0, 0), dtype=complex)
    lam_max = float(w[0]) if scale is None else scale
    if float(w[-1]) < -rel_cutoff * max(lam_max, 1.0):
        raise NotPSDError(
            f"negative eigenvalue {w[-1]:.3e} at kept scale "
            f"(cutoff {rel_cutoff:.1e} * {max(lam_max, 1.0):.3e})"
        )
    keep = w > rel_cutoff * max(lam_max, 0.0)
    rank = int(np.count_nonzero(keep))
    factor = np.sqrt(w[keep])[:, None] * e.eigenvectors[:, keep].conj().T
    return rank, factor


def solve_lsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of ``a @ x = b``.

    Returns ``(x, residual)`` with ``residual = |a x - b|_F / max(|b|_F, 1)``.
    Rank-deficient ``a`` is handled through the SVD-based solver.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("solve_lsq expects matrices")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: a has {a.shape[0]}, b has {b.shape[0]}")
    if a.size == 0 or b.size == 0:
        x = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
    else:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    return x, frob(a @ x - b) / max(frob(b), 1.0)


def svd_orthobasis(columns: np.ndarray, rel_cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Orthonormal basis of the column space at the given relative cutoff.

    Returns a matrix whose columns are orthonormal and span the input's
    column space; singular directions at or below ``rel_cutoff * s_max``
    are dropped.  Zero or empty input yields a zero-column result.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {columns.shape}")
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    r = int(np.count_nonzero(s > rel_cutoff * s[0]))
    return u[:, :r]


def numerical_rank(columns: np.ndarray, rel_cutoff: float = DEFAULT_CUTOFF) -> int:
    """Rank of a matrix at the given relative singular-value cutoff."""
    return svd_orthobasis(columns, rel_cutoff).shape[1]
