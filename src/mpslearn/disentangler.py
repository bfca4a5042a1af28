"""Block disentangling unitaries built from estimated block marginals.

Both constructions rotate a chosen subspace of a ``y``-qudit block into the
sector where the leading qudits read zero, so that projecting those qudits
onto zero and discarding them keeps the chosen subspace intact:

* :func:`build_rank_capped` keeps the top ``D**2`` eigenvectors of the
  estimate and compresses the block onto its last ``p`` qudits.
* :func:`build_threshold` keeps every eigenvector whose eigenvalue clears a
  threshold ``eta`` and compresses onto the fewest qudits that can hold them.

The unitary's rows are the conjugates of an orthonormal basis whose leading
columns are eigenvectors in descending eigenvalue order, so the ``r``-th
basis vector maps to the ``r``-th computational basis state and the kept
sector of width ``d**t`` is the span of the top ``d**t`` eigenvectors, which
is what the learner's projection analysis relies on.  :func:`build_threshold`
takes the full eigenbasis.  :func:`build_rank_capped` needs only the top
``d**p`` eigenvectors, the kept width: on blocks of side at least
``LOW_RANK_MIN_SIDE`` it takes them from :func:`linalg.top_eigenpairs`, in
O(side^2 d**p) work, and completes them by a Householder QR; when those pairs
cannot be certified (an estimate of rank above ``d**p``), and on smaller
blocks, it takes the full eigenbasis.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg
from .backend import infer_site_count
from .errors import BadParameter, RankCapExceedsDim

# Smallest block side on which build_rank_capped tries top_eigenpairs.  One
# BLAS thread on a 2-vCPU VM, rank-m qubit inputs, QR completion included,
# against hermitian_eig: side 16 (m = 4) 91 us vs 54 us, side 32 (m = 4)
# 103 us vs 105 us, side 64 (m = 8) 186 us vs 387 us, side 256 (m = 16)
# 2.3 ms vs 12.5 ms.
LOW_RANK_MIN_SIDE = 64


@dataclasses.dataclass(frozen=True)
class Disentangler:
    """A block unitary together with the subspace it protects.

    Attributes
    ----------
    unitary : np.ndarray
        ``(d**y, d**y)`` unitary acting on the block.
    d, y : int
        Local dimension and number of block qudits.
    kept_qudits : int
        Number of trailing qudits that carry the protected subspace.
    kept_dim : int
        ``d**kept_qudits``.
    selected : np.ndarray
        Columns are the selected vectors (top ``D**2`` eigenvectors, or the
        above-threshold eigenvectors).  May have zero columns.
    """

    unitary: np.ndarray
    d: int
    y: int
    kept_qudits: int
    kept_dim: int
    selected: np.ndarray


def _from_eigenbasis(
    vectors: np.ndarray, d: int, kept_qudits: int, selected_count: int
) -> Disentangler:
    """Disentangler from an orthonormal basis (columns) led by the selected vectors."""
    # Row r of the unitary is the conjugate of basis vector r, so the r-th
    # vector maps to computational basis state r.  The kept sector (leading
    # qudits zero) is then exactly the span of the leading vectors.
    unitary = vectors.conj().T
    return Disentangler(
        unitary=unitary,
        d=d,
        y=infer_site_count(vectors.shape[0], d),
        kept_qudits=kept_qudits,
        kept_dim=d**kept_qudits,
        selected=vectors[:, :selected_count].copy(),
    )


def build_rank_capped(sigma_hat: np.ndarray, d: int, D_squared: int, p: int) -> Disentangler:
    """Disentangler keeping the top ``D_squared`` eigenvectors on ``p`` qudits.

    The estimate must live on at least ``p`` qudits and satisfy
    ``D_squared <= d**p`` so the selected subspace fits into the kept sector.

    The kept sector is the span of the top ``m = d**p`` eigenvectors.  On a
    side of at least ``LOW_RANK_MIN_SIDE`` they come from
    :func:`linalg.top_eigenpairs`, and the basis is completed by the columns
    ``m:`` of ``np.linalg.qr(V, mode="complete")`` (Householder QR; Golub &
    Van Loan, *Matrix Computations*, section 5.2), which depend only on
    ``V``, not on a basis an eigensolver picks for the discarded part.  When
    the side is smaller, or the pairs are not certified (the estimate has
    rank above ``m``), the basis is :func:`linalg.hermitian_eig`'s full
    eigenbasis.  Either way eigenvalues tied across the cut may come back
    in any orthonormal basis of their eigenspace, and equal inputs give
    equal bits.
    """
    dim = linalg.require_square(sigma_hat)
    y = infer_site_count(dim, d)
    if p < 0 or p > y:
        raise BadParameter(f"need 0 <= p <= y = {y}, got p={p}")
    if D_squared < 1:
        raise BadParameter(f"D_squared must be >= 1, got {D_squared}")
    m = d**p
    if D_squared > m:
        raise RankCapExceedsDim(f"kept rank {D_squared} does not fit into kept dimension {m}")
    pairs = linalg.top_eigenpairs(sigma_hat, m) if dim >= LOW_RANK_MIN_SIDE else None
    if pairs is None:
        _, vectors = linalg.hermitian_eig(sigma_hat)
    else:
        _, top = pairs
        q, _ = np.linalg.qr(top, mode="complete")
        vectors = np.concatenate([top, q[:, m:]], axis=1)
    return _from_eigenbasis(vectors, d, kept_qudits=p, selected_count=D_squared)


def build_threshold(sigma_hat: np.ndarray, d: int, eta: float) -> Disentangler:
    """Disentangler keeping eigenvectors with eigenvalues above ``eta``.

    The estimate must be Hermitian with trace at most ``1 + 1e-9``; for a
    density-matrix input the number of kept vectors ``m`` is then below
    ``1/eta``.  Eigenvalues within ``1e-12`` of ``eta`` count as below it.
    The kept width is ``t = ceil(log_d m)`` qudits (zero when ``m <= 1``).
    """
    if eta <= 0:
        raise BadParameter(f"eta must be positive, got {eta}")
    linalg.require_square(sigma_hat)
    trace = float(np.real(np.trace(sigma_hat)))
    if trace > 1.0 + 1e-9:
        raise BadParameter(f"trace must be at most 1 + 1e-9, got {trace}")
    values, vectors = linalg.hermitian_eig(sigma_hat)
    m = int(np.count_nonzero(values - eta > 1e-12))
    t = 0
    while d**t < m:  # smallest t with d**t >= m, in integer arithmetic
        t += 1
    return _from_eigenbasis(vectors, d, kept_qudits=t, selected_count=m)
