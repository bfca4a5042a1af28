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
)

MAX_VECTOR_DIM = 2**16
MAX_DENSITY_DIM = 2**10

HERMITIAN_TOL = 1e-10
_LANCZOS_STEPS = 64
_TILE = 64


def require_square(matrix: np.ndarray) -> int:
    """Return the side length of ``matrix``, raising ``NonSquare`` otherwise."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate hermiticity within ``tol`` and return the symmetrized matrix.

    The result is bit for bit ``(a + a^H) / 2``, and the defect is the largest
    ``|a - a^H|`` entry.  Both are computed in 64 x 64 tiles (``_TILE``),
    each pair of mirror tiles visited once, so that no dense temporary of
    the full size is made.  Non-finite entries are rejected too,
    also under ``tol=np.inf``.  Each makes the defect NaN or infinite, so the
    entries are scanned for them only when the defect is not finite (a
    difference of finite entries can also overflow).
    """
    require_square(matrix)
    a = np.asarray(matrix, dtype=complex)
    dim = a.shape[0]
    out = np.empty((dim, dim), dtype=complex)
    peaks = [0.0]
    with np.errstate(invalid="ignore"):  # inf - inf in a tile is caught below
        for i in range(0, dim, _TILE):
            for j in range(i, dim, _TILE):
                x, y = a[i : i + _TILE, j : j + _TILE], a[j : j + _TILE, i : i + _TILE]
                yh = y.conj().T
                peaks.append(np.max(np.abs(x - yh)))
                upper = out[i : i + _TILE, j : j + _TILE]
                np.divide(np.add(x, yh, out=upper), 2.0, out=upper)
                if j > i:  # not mirrored: conj(upper) can flip the sign of a zero
                    lower = out[j : j + _TILE, i : i + _TILE]
                    np.divide(np.add(y, x.conj().T, out=lower), 2.0, out=lower)
    defect = float(np.max(peaks))  # NaN-propagating, unlike the builtin max
    if not math.isfinite(defect) and not np.isfinite(a).all():
        raise NonHermitian("matrix has non-finite entries")
    if defect > tol:
        raise NonHermitian(f"matrix deviates from Hermitian by {defect:.3e} > {tol:.3e}")
    return out


def fix_phase(vector: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is positive real."""
    v = np.asarray(vector, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) <= tol:
        return v.copy()
    return v * (abs(v[k]) / v[k])


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
        matching eigenvectors as the columns of ``V``, each phase-normalized
        so its largest-magnitude entry is positive real.  Vectors of tied
        eigenvalues keep LAPACK's order (a stable sort on the eigenvalues
        alone), so any orthonormal basis of a tied eigenspace may come back;
        equal inputs still give equal bits.
    """
    return _eigh_descending(require_hermitian(matrix))


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_eig` on a matrix :func:`require_hermitian` returned."""
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def _fix_phases(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """:func:`fix_phase` on every column of ``v``, in place and bit for bit."""
    if v.size == 0:  # argmax has no empty reduction
        return v
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    fixed = np.abs(pivots) > tol
    # scalar abs(p) / p, as fix_phase computes it: the array quotient
    # np.abs(pivots) / pivots can differ in the last bit
    v[:, fixed] *= np.array([abs(p) / p for p in pivots[fixed]], dtype=complex)
    return v


def _lanczos_top(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Top Ritz vector of ``a`` from the Krylov space of ``b``, and the Ritz scale.

    Lanczos with full reorthogonalization (two classical Gram-Schmidt passes
    per step), stopped when the residual estimate ``beta * |s_last|`` of the
    top Ritz pair is at most ``1e-13 * scale`` or after ``_LANCZOS_STEPS``
    steps.  ``scale`` is the largest Ritz value magnitude, at least 1.
    """
    dim = a.shape[0]
    basis = np.empty((min(_LANCZOS_STEPS, dim), dim), dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    q = b / np.linalg.norm(b)
    for k in range(basis.shape[0]):
        basis[k] = q
        w = a @ q
        alphas.append(float(np.real(np.vdot(q, w))))
        kept = basis[: k + 1]
        for _ in range(2):
            w -= kept.T @ (kept.conj() @ w)
        beta = float(np.linalg.norm(w))
        ritz, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        scale = max(1.0, float(np.max(np.abs(ritz))))
        if beta * abs(s[-1, -1]) <= 1e-13 * scale:
            break
        betas.append(beta)
        q = w / beta
    v = s[:, -1] @ kept
    return v / np.linalg.norm(v), scale


def top_eigenvector(matrix: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of a Hermitian matrix.

    Validates like :func:`hermitian_eig` and raises the same typed errors.
    ``b`` is a fixed seeded complex Gaussian start vector, so equal inputs
    give equal bits; the result is phase-normalized like
    :func:`hermitian_eig`'s columns (largest-magnitude entry positive real).

    Fast path: Lanczos from ``b`` (:func:`_lanczos_top`) gives a Ritz vector
    ``v`` with Rayleigh quotient ``theta <= lam_max`` and an explicit
    residual ``r = |A v - theta v|``, which must be at most
    ``1e-12 * scale`` (``scale`` the largest Ritz magnitude, at least 1).
    Then ``v`` is returned if one of two certificates holds, the first in
    O(dim^2), the second in O(dim^3):

    1. Frobenius gap bound: ``lo = theta - r - 1e-10 * scale > 0`` and
       ``2 lo^2 > |A|_F^2 (1 + dim^2 2^-52)``, the factor covering the
       rounding of ``|A|_F^2``.  Some eigenvalue ``lam_i`` lies within ``r``
       of ``theta``, so ``lam_i > lo``; every other eigenvalue has
       ``lam_j^2 <= |A|_F^2 - lam_i^2 < lo^2``.  So ``lam_i`` is the simple
       top, above all others by the gap ``lam_i - sqrt(|A|_F^2 - lo^2)``.
    2. A successful Cholesky factorization of ``sigma I - A``, with
       ``sigma = theta + r + 1e-10 * scale``, certifies ``lam_max <= sigma``.
       ``sigma I - A`` is built in place in the symmetrized copy of the
       input.  This covers tied tops and tops that do not dominate ``A``.

    Either way ``theta`` is within ``r + 1e-10 * scale`` of the top, and
    (Davis-Kahan) ``v`` is within angle ``r / gap`` of the top eigenspace.
    Where the first certificate holds, ``sigma I - A`` is positive definite,
    so the second would return the same ``v``.

    Fallback, when the residual check or both certificates fail (Lanczos
    reached its step cap, or ``b`` is nearly orthogonal to the top
    eigenvector and Lanczos settled lower): ``lam_max = sigma -
    lam_min(sigma I - A)`` from ``eigvalsh``, then two steps of inverse
    iteration from ``b`` on ``sigma' I - A``, ``sigma' = lam_max + 1e-10 *
    scale'`` (``scale'`` the largest eigenvalue magnitude, at least 1),
    which damp each eigenvector at gap ``g`` below the top by
    ``1e-10 * scale' / (g + 1e-10 * scale')`` per step.

    A tied top gives, on either path, the normalized projection of ``b``
    onto the top eigenspace: Lanczos sees only that projection, and inverse
    iteration weights the tied vectors equally.  It does not depend on the
    basis an eigensolver picks for the eigenspace, so it is in general not
    :func:`hermitian_eig`'s column 0.  Eigenvalues within about
    ``1e-10 * scale`` of the top count as near-tied: the result is a unit
    vector mostly in their span, weighted differently by the two paths.
    """
    a = require_hermitian(matrix)
    dim = a.shape[0]
    if dim == 0:
        raise BadParameter("an empty matrix has no eigenvector")
    rng = np.random.default_rng(0)
    b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v, scale = _lanczos_top(a, b)
    av = a @ v
    theta = float(np.real(np.vdot(v, av)))
    r = float(np.linalg.norm(av - theta * v))
    lo = theta - r - 1e-10 * scale
    if r <= 1e-12 * scale and lo > 0.0:
        frobenius2 = float(np.real(np.vdot(a, a)))
        if 2.0 * lo * lo > frobenius2 * (1.0 + dim * dim * 2.0**-52):
            return fix_phase(v)
    sigma = theta + r + 1e-10 * scale
    a *= -1.0
    a.flat[:: dim + 1] += sigma
    if r <= 1e-12 * scale:
        try:
            np.linalg.cholesky(a)
            return fix_phase(v)
        except np.linalg.LinAlgError:
            pass
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    top = sigma - w[0]
    full_scale = max(1.0, abs(top), abs(sigma - w[-1]))
    a.flat[:: dim + 1] += top + 1e-10 * full_scale - sigma
    x = b
    for _ in range(2):
        x = np.linalg.solve(a, x)
        x /= np.linalg.norm(x)
    return fix_phase(x)


def top_eigenpairs(matrix: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Top ``m`` eigenpairs of a Hermitian matrix of rank at most about ``m``.

    Validates like :func:`hermitian_eig` and raises the same typed errors.
    Returns ``(theta, V)`` like :func:`hermitian_eig`'s ``(w, V)`` cut to
    ``m`` columns, with the columns phase-normalized the same way, or
    ``None`` when the pairs cannot be certified.  Equal inputs give equal
    bits.

    Randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53, 217,
    2011): ``Q`` is the reduced QR factor of ``A Omega``, where ``Omega`` is a
    fixed seeded ``dim x m`` complex Gaussian matrix, and ``V = Q W`` for the
    eigenvectors ``W`` of ``Q^H A Q`` (symmetrized), in descending order of
    the Ritz values ``theta``.  With ``scale = max(1, |theta_1|)`` the pairs
    are accepted only if ``|A - V diag(theta) V^H|_F <= 1e-12 * scale`` and
    ``theta_m >= -1e-12 * scale``.  By Weyl's inequality every eigenvalue
    of ``A`` is then within ``1e-12 * scale`` of a Ritz value or of 0, so
    ``span V`` is the top-``m`` eigenspace up to eigenvalues within about
    ``2e-12 * scale`` of the cut, which count as tied.  Without the second
    test a negative Ritz value would rank above discarded zeros.  A matrix
    of higher rank fails the first test.
    """
    return _top_eigenpairs(require_hermitian(matrix), m)


def _top_eigenpairs(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`top_eigenpairs` on a matrix :func:`require_hermitian` returned."""
    dim = a.shape[0]
    if not 1 <= m <= dim:
        raise BadParameter(f"need 1 <= m <= {dim}, got m={m}")
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
    q, _ = np.linalg.qr(a @ omega)
    b = q.conj().T @ (a @ q)
    try:
        theta, w = np.linalg.eigh((b + b.conj().T) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    theta, v = theta[::-1], q @ w[:, ::-1]
    scale = max(1.0, abs(float(theta[0])))
    if theta[-1] < -1e-12 * scale:
        return None
    residual = (v * theta) @ v.conj().T
    residual -= a
    if np.sqrt(np.vdot(residual, residual).real) > 1e-12 * scale:
        return None
    return theta, _fix_phases(v)


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
