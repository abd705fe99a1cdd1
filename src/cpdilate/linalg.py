"""Dense complex linear-algebra kernel.

Everything downstream (Gram factorization, quotient maps, span bases,
span ranks, unitary recovery) is built from the operations here.  All
matrices are ``numpy.ndarray`` with dtype complex128; all comparisons
are relative Frobenius residuals with denominator ``max(norm, 1)`` so
zero inputs never divide by zero.

Every rank decision is ``kept_ranks``.  Validity is the callers'
verdict: ``hermitian_eig`` only symmetrizes and ``kept_ranks`` only
counts.  ``negative_at_scale`` states the one positivity rule, which the
callers apply to each Choi block's spectrum; ``psd_certified`` proves
that rule passes from a nearby PSD product, without the spectrum.

Determinism: LAPACK eigendecompositions are deterministic on a fixed
platform, but eigenvector phase and ordering inside degenerate clusters
may differ across platforms.  Callers must therefore compare only
basis-independent quantities (residuals, dimensions, spectra) across
platforms; within one platform all outputs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSquareError

DEFAULT_CUTOFF = 1e-10
DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_CUTOFF",
    "DEFAULT_TOL",
    "frob",
    "matrix_norms",
    "rel_residual",
    "max_rel_residual",
    "max_rel_diff",
    "hermitian_eig",
    "negative_at_scale",
    "psd_certified",
    "kept_ranks",
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
    """Frobenius norm of each matrix in a (..., r, c) stack: the formula
    of ``np.linalg.norm(stack, axis=(-2, -1))``, bit for bit, squaring in
    place into the conjugate copy."""
    sq = np.conjugate(stack)
    np.multiply(sq, stack, out=sq)
    return np.sqrt(np.add.reduce(sq.real, axis=(-2, -1)))


def rel_residual(actual: np.ndarray, expected: np.ndarray) -> float:
    """``|actual - expected|_F / max(|expected|_F, 1)``."""
    return frob(actual - expected) / max(frob(expected), 1.0)


def max_rel_residual(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max over leading axes of the per-matrix ``rel_residual``; 0.0 when
    the stacks are empty."""
    return max_rel_diff(actual - expected, matrix_norms(expected))


def max_rel_diff(diff: np.ndarray, expected_norms: np.ndarray) -> float:
    """``max_rel_residual`` from the differences and the norms of the
    expected matrices, for callers that already hold one or the other."""
    return float((matrix_norms(diff) / np.maximum(expected_norms, 1.0)).max(initial=0.0))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of the Hermitian part ``(m + m*) / 2``
    of a square matrix: real eigenvalues sorted descending and the matching
    orthonormal columns.  Raises NotSquareError for non-square input.
    Whether ``m`` is Hermitian enough is the caller's verdict, not this one's."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def negative_at_scale(lam_min: float, lam_max: float, rel_tol: float) -> bool:
    """The one PSD rule: a spectrum whose largest eigenvalue is ``lam_max``
    has a negative direction when ``lam_min < -rel_tol * max(lam_max, 1)``."""
    return lam_min < -rel_tol * max(lam_max, 1.0)


def psd_certified(err: float, top: float, rel_tol: float) -> bool:
    """True only if ``negative_at_scale`` passes on the Hermitian part
    ``H`` of ``C``, read off a PSD ``P`` with largest eigenvalue ``top``
    and ``err = |C - P|_F >= |H - P|_F``: ``err <= rel_tol * max(top - err, 1)``.

    Proof: by Weyl each eigenvalue of ``H`` is within ``|H - P|_2 <= err``
    of ``P``'s, so ``lambda_min(H) >= -err`` and ``lambda_max(H) >= top -
    err``, whence ``lambda_min(H) >= -rel_tol * max(lambda_max(H), 1)``.
    False decides nothing."""
    return err <= rel_tol * max(top - err, 1.0)


def kept_ranks(spectra, rel_cutoff: float = DEFAULT_CUTOFF) -> list[int]:
    """The one rank rule: the number of values each block keeps, given the
    descending spectra of the diagonal blocks of one direct sum, as
    computed (eigenvalues of a PSD sum, or singular values).  Kept values
    exceed ``rel_cutoff`` times the largest over all blocks, the decision
    on the whole sum; negative values are dropped, not judged."""
    cut = rel_cutoff * max([0.0] + [float(w[0]) for w in spectra if w.size])
    return [int(np.count_nonzero(w > cut)) for w in spectra]


def direct_sum_rank(spectra, copies, rel_cutoff: float = DEFAULT_CUTOFF) -> int:
    """Rank of the direct sum holding ``copies[b]`` copies of a block
    whose descending singular values are ``spectra[b]``, by ``kept_ranks``
    over the blocks with copies: blocks without copies are not in the
    sum, so they enter neither count nor scale."""
    kept = [(c, w) for w, c in zip(spectra, copies) if c]
    ranks = kept_ranks([w for _, w in kept], rel_cutoff)
    return sum(c * r for (c, _), r in zip(kept, ranks))


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
    column space, as many as ``kept_ranks`` keeps of the singular values.
    Zero or empty input yields a zero-column result.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {columns.shape}")
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, : kept_ranks([s], rel_cutoff)[0]]
