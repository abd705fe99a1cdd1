"""Dense complex linear-algebra kernel.

Everything downstream (Gram factorization, quotient maps, span bases,
span ranks, unitary recovery) is built from the operations here.  All
matrices are ``numpy.ndarray`` with dtype complex128; all comparisons
are relative Frobenius residuals with denominator ``max(norm, 1)`` so
zero inputs never divide by zero.

Validity is the callers' verdict: ``hermitian_eig`` only symmetrizes
and ``rank_truncate`` only truncates.  ``negative_at_scale`` states the
one positivity rule, which the callers apply to each Choi block's spectrum.

Determinism: LAPACK eigendecompositions are deterministic on a fixed
platform, but eigenvector phase and ordering inside degenerate clusters
may differ across platforms.  Callers must therefore compare only
basis-independent quantities (residuals, dimensions, spectra) across
platforms; within one platform all outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSquareError

DEFAULT_CUTOFF = 1e-10
DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_CUTOFF",
    "DEFAULT_TOL",
    "HermEig",
    "frob",
    "matrix_norms",
    "rel_residual",
    "max_rel_residual",
    "hermitian_eig",
    "negative_at_scale",
    "rank_truncate",
    "direct_sum_rank",
    "solve_lsq",
    "svd_orthobasis",
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


def max_rel_residual(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max over leading axes of the per-matrix ``rel_residual``; 0.0 when
    the stacks are empty."""
    if expected.size == 0:
        return 0.0
    denom = np.maximum(matrix_norms(expected), 1.0)
    return float((matrix_norms(actual - expected) / denom).max())


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors``
    holds the matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray) -> HermEig:
    """Eigendecomposition of the Hermitian part ``(m + m*) / 2`` of a
    square matrix; raises NotSquareError for non-square input.  Whether
    ``m`` is Hermitian enough is the caller's verdict, not this one's."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return HermEig(np.zeros(0), np.zeros((0, 0), dtype=complex))
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    order = np.argsort(w)[::-1]
    return HermEig(w[order], v[:, order])


def negative_at_scale(lam_min: float, lam_max: float, rel_tol: float) -> bool:
    """The one PSD rule: a spectrum whose largest eigenvalue is ``lam_max``
    has a negative direction when ``lam_min < -rel_tol * max(lam_max, 1)``."""
    return lam_min < -rel_tol * max(lam_max, 1.0)


def rank_truncate(
    e: HermEig, rel_cutoff: float = DEFAULT_CUTOFF, scale: float | None = None
) -> tuple[int, np.ndarray]:
    """Rank-reveal an eigendecomposition and return its square-root factor.

    Keeps eigenvalues above ``rel_cutoff * scale`` and returns
    ``(rank, F)`` with ``F = diag(sqrt(kept)) @ V_kept*``, so that
    ``F* F`` is the PSD part of the original matrix to cutoff accuracy.
    The factor's rows are the canonical coordinates of the quotient by
    the numerical null space.  Negative eigenvalues are dropped, never
    judged: the positivity verdict is ``negative_at_scale``, applied by
    the caller.

    ``scale`` defaults to the largest eigenvalue of ``e``; the diagonal
    blocks of one direct sum pass the largest eigenvalue over all
    blocks, so their rank decisions match those on the whole sum.
    """
    w = e.eigenvalues
    if w.size == 0:
        return 0, np.zeros((0, 0), dtype=complex)
    lam_max = float(w[0]) if scale is None else scale
    keep = w > rel_cutoff * max(lam_max, 0.0)
    rank = int(np.count_nonzero(keep))
    factor = np.sqrt(w[keep])[:, None] * e.eigenvectors[:, keep].conj().T
    return rank, factor


def direct_sum_rank(spectra, copies, rel_cutoff: float = DEFAULT_CUTOFF) -> int:
    """Rank of the direct sum holding ``copies[b]`` copies of a block
    whose descending singular values are ``spectra[b]``.

    The sum's singular values are the blocks', each repeated ``copies[b]``
    times, so every block is cut at ``rel_cutoff`` times the largest
    singular value over the blocks with copies (as ``rank_truncate``'s
    ``scale`` does for eigenvalues): the decision an SVD of the whole
    sum makes.  Blocks without copies enter neither count nor scale.
    """
    kept = [(c, s) for s, c in zip(spectra, copies) if c and s.size]
    scale = max((float(s[0]) for _, s in kept), default=0.0)
    return sum(c * int(np.count_nonzero(s > rel_cutoff * scale)) for c, s in kept)


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
    return u[:, : int(np.count_nonzero(s > rel_cutoff * s[0]))]
