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

from .errors import BadParameter, DimensionMismatch, NoConvergence, NonHermitian, NonSquare, shown

MAX_VECTOR_DIM = 2**16
MAX_DENSITY_DIM = 2**10
MAX_WALK_WINDOW = 2**24  # entries of a grown window, a frequency table or a generated state

HERMITIAN_TOL = 1e-10
PHASE_TOL = 1e-12  # a vector whose largest entry is no larger keeps its phase
_LANCZOS_STEPS = 64
# Tile side of the hermiticity check.  One BLAS thread on a 2-vCPU VM, median
# check of a 1024 x 1024 input: side 64 3.9-4.5 ms, 128 3.8-4.3 ms, 256 6.4 ms.
_TILE = 128


def require_square(matrix: np.ndarray) -> int:
    """Return the side length of ``matrix``, raising ``NonSquare`` otherwise."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate hermiticity within ``tol`` and return the symmetrized matrix.

    The result is bit for bit ``(a + a^H) / 2``, written into its one
    C-contiguous output array.  The defect, the largest ``|a - a^H|`` entry,
    is read in mirror pairs of ``_TILE``-square tiles through one scratch
    tile, with no full-size temporary.  A pair whose differences
    ``x`` have ``max(|Re x|, |Im x|) <= 0.7 tol`` passes on that bound, as
    ``|x| <= sqrt(2) max(|Re x|, |Im x|)``; any other takes its exact
    largest ``|x|``, so a rejection reports the exact defect.  Non-finite
    entries are rejected too, also under ``tol=np.inf``: each makes the
    defect NaN or infinite, so they are looked for only when it is not
    finite (a difference of finite entries can also overflow).  A NaN or
    negative ``tol`` is a ``BadParameter``.
    """
    a = _hermitian_input(matrix, tol)
    h = np.conjugate(a.T, out=np.empty_like(a, order="C"))  # the one full-size allocation
    h += a
    h /= 2.0
    return h


def _hermitian_input(matrix: np.ndarray, tol: float) -> np.ndarray:
    """``matrix`` as a complex array, after :func:`require_hermitian`'s check."""
    if not tol >= 0.0:  # NaN fails too
        raise BadParameter(f"hermiticity tolerance must be non-negative, got {shown(tol)}")
    dim = require_square(matrix)
    a = np.asarray(matrix, dtype=complex)
    scratch = np.empty(min(dim, _TILE) ** 2, dtype=complex)
    peaks = [0.0]
    with np.errstate(invalid="ignore"):  # inf - inf in a tile is caught below
        for i in range(0, dim, _TILE):
            for j in range(i, dim, _TILE):
                x = a[i : i + _TILE, j : j + _TILE]
                diff = scratch[: x.size].reshape(x.shape)
                np.conjugate(a[j : j + _TILE, i : i + _TILE].T, out=diff)
                diff -= x
                bound = max(diff.view(float).max(), -diff.view(float).min())  # max |Re|, |Im|
                if not (bound <= 0.7 * tol and math.isfinite(bound)):
                    peaks.append(np.max(np.abs(diff)))
    defect = float(np.max(peaks))  # NaN-propagating, unlike the builtin max
    if not math.isfinite(defect) and not all(np.isfinite(row).all() for row in a):
        raise NonHermitian("matrix has non-finite entries")
    if defect > tol:
        raise NonHermitian(f"matrix deviates from Hermitian by {defect:.3e} > {tol:.3e}")
    return a


def fix_phase(vector: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is positive real."""
    return _fix_phases(np.array(vector, dtype=complex).reshape(-1, 1))[:, 0]


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
    try:
        w, v = np.linalg.eigh(require_hermitian(matrix))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_phases(v[:, order])


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column of ``v`` in place, as :func:`fix_phase` rotates a vector."""
    if v.size == 0:  # argmax has no empty reduction
        return v
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    fixed = np.abs(pivots) > PHASE_TOL
    # scalar quotients abs(p) / p, multiplied into the rows of v.T out of place:
    # array quotients, in-place or row-broadcast products differ in the last bit
    phases = np.array([abs(p) / p for p in pivots[fixed]], dtype=complex)
    v.T[fixed] = v.T[fixed] * phases[:, None]
    return v


def _hermitian_part_times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``H x`` for the Hermitian part ``H = (a + a^H) / 2``, without forming ``H``."""
    return (a @ x + (x.conj() @ a).conj()) / 2.0


def _lanczos_top(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Top Ritz vector ``v`` of ``a``'s Hermitian part ``H`` in ``b``'s Krylov space, and ``H v``.

    Lanczos with full reorthogonalization (two classical Gram-Schmidt passes
    per step), stopped when the residual estimate ``beta * |s_last|`` of the
    top Ritz pair is at most ``1e-13 * scale`` or after ``_LANCZOS_STEPS``
    steps.  Also returns ``scale``, the largest Ritz value magnitude, at
    least 1.  Each step keeps its product ``H q_k`` as computed, before
    reorthogonalization, so ``H v`` is the same combination of the products
    as ``v`` is of the ``q_k``, and needs no further read of ``a``.
    """
    dim = a.shape[0]
    basis = np.empty((min(_LANCZOS_STEPS, dim), dim), dtype=complex)
    products = np.empty_like(basis)
    alphas: list[float] = []
    betas: list[float] = []
    q = b / np.linalg.norm(b)
    for k in range(basis.shape[0]):
        basis[k] = q
        w = _hermitian_part_times(a, q)
        products[k] = w
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
    norm = np.linalg.norm(v)
    return v / norm, (s[:, -1] @ products[: k + 1]) / norm, scale


def top_eigenvector(matrix: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of a Hermitian matrix.

    Validates like :func:`hermitian_eig`, raises the same typed errors and,
    like it, answers for the Hermitian part ``H = (A + A^H) / 2`` of the
    input ``A``.  ``A`` is only read: ``H x`` is computed as
    ``(A x + (x^H A)^H) / 2``, and a view that is not C-contiguous is read
    from a contiguous copy, whose bits it gives.  ``b`` is a fixed seeded
    complex Gaussian start vector, so equal inputs give equal bits; the
    result is phase-normalized like :func:`hermitian_eig`'s columns.

    Fast path: Lanczos from ``b`` (:func:`_lanczos_top`) gives a Ritz vector
    ``v`` and ``H v``, from the products its steps kept (an explicit ``H v``
    differs by rounding only), with Rayleigh quotient ``theta <= lam_max``
    and residual ``r = |H v - theta v|``, which must be at most
    ``1e-12 * scale`` (``scale`` the largest Ritz magnitude, at least 1).
    Then ``v`` is returned if one of two certificates holds, the first in
    O(dim^2), the second in O(dim^3):

    1. Frobenius gap bound: ``lo = theta - r - 1e-10 * scale > 0`` and
       ``2 lo^2 > |A|_F^2 (1 + dim^2 2^-52)``, the factor covering the
       rounding of ``|A|_F^2``, one ``vdot``, in any summation order.
       ``|H|_F <= |A|_F``, as ``A = H + K`` with ``K`` anti-Hermitian and
       ``|A|_F^2 = |H|_F^2 + |K|_F^2``.  Some eigenvalue ``lam_i`` of ``H``
       lies within ``r`` of ``theta``, so ``lam_i > lo``, and every other has
       ``lam_j^2 <= |A|_F^2 - lam_i^2 < lo^2``: ``lam_i`` is the simple top,
       by a gap of at least ``lam_i - lo``.
    2. A successful Cholesky factorization of ``sigma I - H``, with
       ``sigma = theta + r + 1e-10 * scale``, certifies ``lam_max <= sigma``.
       It covers tied tops and tops that do not dominate ``H``, and is the
       first dense matrix made here, in a fresh array.

    Either way ``theta`` is within ``r + 1e-10 * scale`` of the top, and
    (Davis-Kahan) ``v`` is within angle ``r / gap`` of the top eigenspace.
    Where the first certificate holds, ``sigma I - H`` is positive definite,
    so the second would return the same ``v``.

    Fallback, when the residual check or both certificates fail (Lanczos
    reached its step cap, or ``b`` is nearly orthogonal to the top
    eigenvector and Lanczos settled lower): ``lam_max = sigma -
    lam_min(sigma I - H)`` from ``eigvalsh``, then two steps of inverse
    iteration from ``b`` on ``sigma' I - H``, ``sigma' = lam_max + 1e-10 *
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
    a = _hermitian_input(np.ascontiguousarray(matrix, dtype=complex), HERMITIAN_TOL)
    dim = a.shape[0]
    if dim == 0:
        raise BadParameter("an empty matrix has no eigenvector")
    rng = np.random.default_rng(0)
    b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v, hv, scale = _lanczos_top(a, b)
    theta = float(np.real(np.vdot(v, hv)))
    r = float(np.linalg.norm(hv - theta * v))
    lo = theta - r - 1e-10 * scale
    converged = r <= 1e-12 * scale
    if converged and lo > 0.0 and 2.0 * lo * lo > np.vdot(a, a).real * (1.0 + dim * dim * 2.0**-52):
        return fix_phase(v)
    sigma = theta + r + 1e-10 * scale
    h = np.conjugate(a.T, out=np.empty_like(a))  # -(a + a^H) / 2, then sigma on the diagonal
    h += a
    h /= -2.0
    h.flat[:: dim + 1] += sigma
    if converged:
        try:
            np.linalg.cholesky(h)
            return fix_phase(v)
        except np.linalg.LinAlgError:
            pass
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    top = sigma - w[0]
    full_scale = max(1.0, abs(top), abs(sigma - w[-1]))
    h.flat[:: dim + 1] += top + 1e-10 * full_scale - sigma
    x = b
    for _ in range(2):
        x = np.linalg.solve(h, x)
        x /= np.linalg.norm(x)
    return fix_phase(x)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values of a square matrix; a non-finite sum raises ``BadParameter``."""
    require_square(matrix)
    try:
        norm = float(np.sum(np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)))
    except np.linalg.LinAlgError:  # LAPACK's answer to a NaN entry
        norm = math.nan
    if not math.isfinite(norm):  # an infinite entry, or a norm past a float's range
        raise BadParameter(f"trace norm is {norm}: the matrix has a non-finite or too large entry")
    return norm


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
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise BadParameter(f"site dimensions must be >= 1, got {shown(min(dims))}")
    side = require_square(matrix)
    if side != math.prod(dims):
        raise DimensionMismatch(f"matrix side {side} does not match prod(dims) = {math.prod(dims)}")
    n = len(dims)
    keep = sorted(int(k) for k in keep)
    if keep and (keep[0] < 0 or keep[-1] >= n):
        outside = keep[0] if keep[0] < 0 else keep[-1]
        raise DimensionMismatch(f"keep site {shown(outside)} outside register of {n} sites")
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
    if not tol >= 0:  # NaN fails too
        raise BadParameter(f"rank tolerance must be non-negative, got {shown(tol)}")
    a = require_hermitian(matrix)
    w = np.linalg.eigvalsh(a)
    return int(np.count_nonzero(w > tol))


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm."""
    a = require_hermitian(matrix, tol=np.inf)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T
