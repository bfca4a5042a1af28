"""Dense complex linear algebra over small multi-qudit registers.

All routines operate on explicit ``numpy`` arrays and are meant for registers
whose total dimension stays at desk scale (state vectors up to ``2**16``,
density matrices up to ``2**10``).  Site indices are 0-based throughout this
module.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    BadParameter,
    DimensionMismatch,
    NoConvergence,
    NonHermitian,
    NonSquare,
    NotOrthonormal,
)

MAX_VECTOR_DIM = 2**16
MAX_DENSITY_DIM = 2**10

HERMITIAN_TOL = 1e-10
_TIE_TOL = 1e-12


def require_square(matrix: np.ndarray) -> int:
    """Return the side length of ``matrix``, raising ``NonSquare`` otherwise."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate hermiticity within ``tol`` and return the symmetrized matrix.

    Non-finite entries are rejected too: a NaN defect compares false against
    any tolerance.
    """
    require_square(matrix)
    a = np.asarray(matrix, dtype=complex)
    if not np.isfinite(a).all():
        raise NonHermitian("matrix has non-finite entries")
    h = a.conj().T
    defect = float(np.max(np.abs(a - h))) if a.size else 0.0
    if defect > tol:
        raise NonHermitian(f"matrix deviates from Hermitian by {defect:.3e} > {tol:.3e}")
    return (a + h) / 2.0


def fix_phase(vector: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is positive real."""
    v = np.asarray(vector, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) <= tol:
        return v.copy()
    return v * (abs(v[k]) / v[k])


def _lex_key(vector: np.ndarray) -> tuple:
    """Sort key for eigenvector tie-breaking.

    The vector is phase-normalized so its first entry above 1e-12 in magnitude
    is positive real, then compared entrywise as rounded (re, im) pairs.
    """
    v = np.asarray(vector, dtype=complex)
    nonzero = np.flatnonzero(np.abs(v) > 1e-12)
    if nonzero.size:
        k = nonzero[0]
        v = v * (abs(v[k]) / v[k])
    rounded = np.round(np.concatenate([v.real, v.imag]), 10)
    return tuple(rounded.tolist())


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Parameters
    ----------
    matrix : np.ndarray
        Square Hermitian matrix with finite entries (validated within
        ``HERMITIAN_TOL``).

    Returns
    -------
    tuple[np.ndarray, np.ndarray]
        ``(w, V)`` with eigenvalues ``w`` sorted in descending order and the
        matching eigenvectors as the columns of ``V``.  Within clusters of
        eigenvalues equal to ``1e-12`` (relative to the largest magnitude) the
        vectors are ordered lexicographically, and every stored vector is
        phase-normalized so its largest-magnitude entry is positive real.
        This makes the decomposition deterministic for identical inputs.
    """
    a = require_hermitian(matrix)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]

    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    start = 0
    while start < w.size:
        stop = start + 1
        while stop < w.size and abs(w[stop] - w[start]) <= _TIE_TOL * scale:
            stop += 1
        if stop - start > 1:
            cluster = sorted(range(start, stop), key=lambda i: _lex_key(v[:, i]))
            v[:, start:stop] = v[:, cluster]
        start = stop

    for i in range(v.shape[1]):
        v[:, i] = fix_phase(v[:, i])
    return w, v


def top_eigenvector(matrix: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of a Hermitian matrix.

    Validates like :func:`hermitian_eig` and raises the same typed errors,
    but computes no eigenvectors with LAPACK: the largest eigenvalue
    ``lam`` comes from ``eigvalsh`` and the vector from two steps of shifted
    inverse iteration, solving ``(sigma I - A) x = b`` with
    ``sigma = lam + 1e-10 * scale`` (``scale`` as in :func:`hermitian_eig`,
    the largest eigenvalue magnitude but at least 1).  The shift makes
    ``sigma I - A`` positive definite, so no solve is singular, and each step
    damps every eigenvector at gap ``g`` below the top by
    ``1e-10 * scale / (g + 1e-10 * scale)``.  The start vector ``b`` is a
    fixed seeded complex Gaussian vector, so equal inputs give equal bits.
    The result is phase-normalized like :func:`hermitian_eig`'s columns: its
    largest-magnitude entry is positive real.

    When the top eigenvalue is tied, the result is the normalized projection
    of ``b`` onto the top eigenspace (eigenvalues within a few ``1e-10 *
    scale`` of the top are weighted almost equally).  That vector is
    deterministic and does not depend on which basis LAPACK picks for the
    eigenspace; it is in general not :func:`hermitian_eig`'s column 0, which
    is the lexicographically first vector of such a basis.
    """
    a = require_hermitian(matrix)
    dim = a.shape[0]
    if dim == 0:
        raise BadParameter("an empty matrix has no eigenvector")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    scale = max(1.0, float(np.max(np.abs(w))))
    shifted = -a
    shifted.flat[:: dim + 1] += w[-1] + 1e-10 * scale
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for _ in range(2):
        x = np.linalg.solve(shifted, x)
        x /= np.linalg.norm(x)
    return fix_phase(x)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    require_square(matrix)
    return float(np.sum(np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)))


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a square matrix."""
    require_square(matrix)
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _check_dims(matrix: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise BadParameter(f"site dimensions must be >= 1, got {dims}")
    total = math.prod(dims)
    side = require_square(matrix)
    if side != total:
        raise DimensionMismatch(f"matrix side {side} does not match prod(dims) = {total}")
    return dims


def partial_trace(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of an operator onto the kept sites.

    Parameters
    ----------
    matrix : np.ndarray
        Operator on the full register, shape ``(prod(dims), prod(dims))``.
    dims : sequence of int
        Per-site Hilbert space dimensions.
    keep : sequence of int
        0-based site indices to keep, in ascending order of the output axes.

    Returns
    -------
    np.ndarray
        The reduced operator on the kept sites.  The trace is preserved.
    """
    dims = _check_dims(matrix, dims)
    n = len(dims)
    keep = sorted(int(k) for k in keep)
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise DimensionMismatch(f"keep sites {keep} outside register of {n} sites")
    if len(set(keep)) != len(keep):
        raise BadParameter(f"keep sites contain duplicates: {keep}")

    a = np.asarray(matrix, dtype=complex).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, site in enumerate(traced):
        ax = site - offset
        a = np.trace(a, axis1=ax, axis2=ax + (n - offset))
    kept_dim = math.prod(dims[k] for k in keep) if keep else 1
    return a.reshape(kept_dim, kept_dim)


def gram_schmidt_extend(partial: Sequence[np.ndarray], dim: int, seed: int = 0) -> np.ndarray:
    """Extend an orthonormal list to a full orthonormal basis.

    Candidate vectors are drawn from the canonical basis in index order;
    candidates whose residual after projection has norm below ``1e-8`` are
    skipped.  If the canonical basis is exhausted before the basis is full,
    seeded random vectors fill the remainder.  The first ``len(partial)``
    columns of the result equal the inputs exactly.

    Returns
    -------
    np.ndarray
        Matrix of shape ``(dim, dim)`` whose columns form an orthonormal basis.
    """
    vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in partial]
    for v in vectors:
        if v.shape[0] != dim:
            raise DimensionMismatch(f"input vector has dimension {v.shape[0]}, expected {dim}")
    if len(vectors) > dim:
        raise DimensionMismatch(f"{len(vectors)} input vectors exceed dimension {dim}")
    if vectors:
        g = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        if np.max(np.abs(g - np.eye(len(vectors)))) > 1e-10:
            raise NotOrthonormal("input vectors are not orthonormal within 1e-10")

    basis = list(vectors)

    def residual(candidate: np.ndarray) -> np.ndarray:
        r = candidate.astype(complex)
        for _ in range(2):  # re-orthogonalize once for numerical quality
            for b in basis:
                r = r - np.vdot(b, r) * b
        return r

    for i in range(dim):
        if len(basis) == dim:
            break
        r = residual(np.eye(dim, dtype=complex)[:, i])
        norm = np.linalg.norm(r)
        if norm >= 1e-8:
            basis.append(fix_phase(r / norm))

    rng = np.random.default_rng(seed)
    attempts = 0
    while len(basis) < dim:
        attempts += 1
        if attempts > 100 * dim:  # pragma: no cover - would need adversarial input
            raise NoConvergence("basis extension failed to find independent vectors")
        candidate = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        r = residual(candidate)
        norm = np.linalg.norm(r)
        if norm >= 1e-8:
            basis.append(fix_phase(r / norm))

    return np.stack(basis, axis=1)


def numerical_rank(matrix: np.ndarray, tol: float) -> int:
    """Number of eigenvalues of a Hermitian PSD matrix exceeding ``tol``."""
    if tol < 0:
        raise BadParameter(f"rank tolerance must be non-negative, got {tol}")
    a = require_hermitian(matrix)
    w = np.linalg.eigvalsh(a)
    return int(np.count_nonzero(w > tol))


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm."""
    a = require_hermitian(matrix, tol=np.inf)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T
