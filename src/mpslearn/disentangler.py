"""Block disentanglers built from estimated block marginals.

Both constructions compress a ``y``-qudit block onto its trailing qudits
while keeping a chosen subspace intact:

* :func:`build_rank_capped` keeps the top ``D**2`` eigenvectors (``d**p`` in
  the learner's closest variant) and compresses onto the last ``p`` qudits.
* :func:`build_threshold`, the paper's threshold construction, keeps every
  eigenvector above ``eta`` on the fewest qudits that can hold them.

Each is stored as its isometry ``W``, the top eigenvectors in descending
eigenvalue order.  Any unitary ``U`` with ``U^dagger = [W, C]`` maps column
``r`` of ``W`` to computational basis state ``r``, so the kept sector
(leading qudits zero) is the span of ``W``, which is all the learner's
projection analysis relies on; :func:`unitary_from_isometry` builds one such
``U`` where a full unitary is asked for.  :func:`build_rank_capped` takes
the top ``d**p`` eigenvectors of a dense estimate from its full eigenbasis.
:func:`build_rank_capped_from_factor` builds the same isometry from a thin
factor ``F`` of the estimate ``F F^H``: ``F``'s top left singular vectors, in
O(side k^2) work for ``k`` columns, completed from a ``k x d**p`` null space
when ``k < d**p``.  The tensor-train register's exact marginals come as such
factors, so the exact oracle on any MPS input never forms a dense estimate,
in either variant; their Gram matrix is Hermitian and PSD: no hermiticity
check, no certificate.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg
from .backend import infer_site_count
from .errors import BadParameter, RankCapExceedsDim, shown


def unitary_from_isometry(isometry: np.ndarray) -> np.ndarray:
    """A block unitary ``U`` whose ``U^dagger`` leads with ``isometry``, bit for bit.

    The rest of ``U^dagger`` is the Householder completion, columns ``k:`` of
    ``np.linalg.qr(isometry, mode="complete")``, so equal isometries give equal bits.
    """
    k = isometry.shape[1]
    q, _ = np.linalg.qr(isometry, mode="complete")
    return np.concatenate([isometry, q[:, k:]], axis=1).conj().T


@dataclasses.dataclass(frozen=True)
class Disentangler:
    """A block isometry together with the subspace it protects.

    Attributes
    ----------
    isometry : np.ndarray
        ``(d**y, d**k)`` for a ``y``-qudit block that keeps ``k`` trailing
        qudits: orthonormal eigenvectors in descending eigenvalue order.
    selected : np.ndarray
        Columns are the selected vectors (top ``D**2`` eigenvectors, or the
        above-threshold eigenvectors).  May have zero columns.
    """

    isometry: np.ndarray
    selected: np.ndarray


def _from_eigenbasis(vectors: np.ndarray, selected_count: int, width: int) -> Disentangler:
    """Disentangler from orthonormal columns led by the selected vectors."""
    return Disentangler(
        isometry=vectors[:, :width].copy(), selected=vectors[:, :selected_count].copy()
    )


def build_rank_capped(sigma_hat: np.ndarray, d: int, D_squared: int, p: int) -> Disentangler:
    """Disentangler keeping the top ``D_squared`` eigenvectors on ``p`` qudits.

    The estimate must live on at least ``p`` qudits and satisfy
    ``D_squared <= d**p`` so the selected subspace fits into the kept sector.

    The isometry is the top ``m = d**p`` eigenvectors, which span the kept
    sector: the leading columns of :func:`linalg.hermitian_eig`'s full
    eigenbasis.  Eigenvalues tied across the cut may come back in any
    orthonormal basis of their eigenspace, and equal inputs give equal bits.
    """
    m = _kept_dim(linalg.require_square(sigma_hat), d, D_squared, p)
    return _from_eigenbasis(linalg.hermitian_eig(sigma_hat)[1], selected_count=D_squared, width=m)


def build_rank_capped_from_factor(
    factor: np.ndarray, d: int, D_squared: int, p: int
) -> Disentangler:
    """:func:`build_rank_capped` of ``sigma = F F^H``, given ``F`` and never forming ``sigma``.

    The top eigenvectors of ``F F^H`` are the left singular vectors of ``F``,
    so the isometry is the top ``m = d**p`` of them from a thin SVD, phases
    fixed like :func:`linalg.hermitian_eig`'s columns.  ``sigma`` is Hermitian
    and PSD by construction and the SVD exact up to rounding, so nothing is
    certified; ``F`` must be a matrix of finite entries (else ``BadParameter``).
    When the SVD gives ``k < m`` vectors ``U``, the last ``m - k`` right
    singular vectors ``N`` of ``U[:m]^H`` are annihilated by it, whatever its
    rank, and ``[N; 0]`` finishes the basis.  Equal inputs give equal bits.
    """
    if np.ndim(factor) != 2 or not np.isfinite(factor).all():
        raise BadParameter(f"a factor is a matrix of finite entries, got shape {np.shape(factor)}")
    m = _kept_dim(len(factor), d, D_squared, p)
    u = np.linalg.svd(factor, full_matrices=False)[0]
    k = u.shape[1]
    if k < m:
        u = np.concatenate([u, np.zeros((len(u), m - k), dtype=complex)], axis=1)
        u[:m, k:] = np.linalg.svd(u[:m, :k].conj().T)[2][k:].conj().T
    vectors = linalg._fix_phases(u[:, :m])
    return _from_eigenbasis(vectors, selected_count=D_squared, width=m)


def _kept_dim(dim: int, d: int, D_squared: int, p: int) -> int:
    """The kept dimension ``d**p`` of a rank-capped build, after checking its arguments."""
    y = infer_site_count(dim, d)
    if p < 0 or p > y:
        raise BadParameter(f"need 0 <= p <= y = {y}, got p={shown(p)}")
    if D_squared < 1:
        raise BadParameter(f"D_squared must be >= 1, got {shown(D_squared)}")
    m = d**p
    if D_squared > m:
        raise RankCapExceedsDim(
            f"kept rank {shown(D_squared)} does not fit into kept dimension {m}"
        )
    return m


def build_threshold(sigma_hat: np.ndarray, d: int, eta: float) -> Disentangler:
    """Disentangler keeping eigenvectors with eigenvalues above ``eta``.

    The estimate must be Hermitian with trace at most ``1 + 1e-9``; for a
    density-matrix input the number of kept vectors ``m`` is then below
    ``1/eta``.  Eigenvalues within ``1e-12`` of ``eta`` count as below it.
    The isometry holds the top ``d**t`` eigenvectors, for the kept width of
    ``t = ceil(log_d m)`` qudits (zero when ``m <= 1``).
    """
    if eta <= 0:
        raise BadParameter(f"eta must be positive, got {shown(eta)}")
    infer_site_count(linalg.require_square(sigma_hat), d)  # a side that is no power of d raises
    trace = float(np.real(np.trace(sigma_hat)))
    if trace > 1.0 + 1e-9:
        raise BadParameter(f"trace must be at most 1 + 1e-9, got {trace}")
    values, vectors = linalg.hermitian_eig(sigma_hat)
    m = int(np.count_nonzero(values - eta > 1e-12))
    t = 0
    while d**t < m:  # smallest t with d**t >= m, in integer arithmetic
        t += 1
    return _from_eigenbasis(vectors, selected_count=m, width=d**t)
