"""Block disentangling unitaries built from estimated block marginals.

Both constructions rotate a chosen subspace of a ``y``-qudit block into the
sector where the leading qudits read zero, so that projecting those qudits
onto zero and discarding them keeps the chosen subspace intact:

* :func:`build_rank_capped` keeps the top ``D**2`` eigenvectors of the
  estimate and compresses the block onto its last ``p`` qudits.
* :func:`build_threshold` keeps every eigenvector whose eigenvalue clears a
  threshold ``eta`` and compresses onto the fewest qudits that can hold them.

Ordering the full eigenbasis by descending eigenvalue and mapping the ``r``-th
basis vector to the ``r``-th computational basis state makes the kept sector
of any width equal to the span of the top eigenvectors, which is what the
learner's projection analysis relies on.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import linalg
from .errors import BadParameter, DimensionMismatch, RankCapExceedsDim


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


def _qudit_count(dim: int, d: int) -> int:
    y = round(math.log(dim, d))
    if d**y != dim:
        raise DimensionMismatch(f"matrix side {dim} is not a power of d = {d}")
    return y


def _from_eigenbasis(
    vectors: np.ndarray, d: int, kept_qudits: int, selected_count: int
) -> Disentangler:
    """Disentangler from eigenvectors in descending eigenvalue order (columns)."""
    # Row r of the unitary is the conjugate of eigenvector r, so the r-th
    # eigenvector maps to computational basis state r.  The kept sector
    # (leading qudits zero) is then exactly the span of the top eigenvectors.
    unitary = vectors.conj().T
    return Disentangler(
        unitary=unitary,
        d=d,
        y=_qudit_count(vectors.shape[0], d),
        kept_qudits=kept_qudits,
        kept_dim=d**kept_qudits,
        selected=vectors[:, :selected_count].copy(),
    )


def build_rank_capped(sigma_hat: np.ndarray, d: int, D_squared: int, p: int) -> Disentangler:
    """Disentangler keeping the top ``D_squared`` eigenvectors on ``p`` qudits.

    The estimate must live on at least ``p`` qudits and satisfy
    ``D_squared <= d**p`` so the selected subspace fits into the kept sector.
    The basis completion comes from the estimate's own eigenbasis.
    """
    dim = linalg.require_square(sigma_hat)
    y = _qudit_count(dim, d)
    if p < 0 or p > y:
        raise BadParameter(f"need 0 <= p <= y = {y}, got p={p}")
    if D_squared < 1:
        raise BadParameter(f"D_squared must be >= 1, got {D_squared}")
    if D_squared > d**p:
        raise RankCapExceedsDim(
            f"kept rank {D_squared} does not fit into kept dimension {d**p}"
        )
    _, vectors = linalg.hermitian_eig(sigma_hat)
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
