"""Dense register simulator used by the tree learner.

Tracks a multi-qudit state through block unitaries and zero-projections.
Pure inputs stay vectors: conditioning a pure state on a projective outcome
keeps it pure, merely sub-normalized.  Mixed inputs are density matrices and
are capped at a much smaller register since they square the memory cost.

The register remembers which original chain sites it still holds, so callers
address operations by original 0-based site label while the arrays shrink as
sites are projected out.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import linalg, mps
from .errors import BackendTooLarge, BlockOutOfRange, DimensionMismatch

MAX_PURE_DIM = linalg.MAX_VECTOR_DIM
MAX_MIXED_DIM = linalg.MAX_DENSITY_DIM


def infer_site_count(size: int, d: int) -> int:
    n = round(math.log(size, d))
    if d**n != size:
        raise DimensionMismatch(f"dimension {size} is not a power of d = {d}")
    return n


def contract_block(
    tensor: np.ndarray, op: np.ndarray, inputs: Sequence[int], outputs: Sequence[int], d: int
) -> np.ndarray:
    """Contract a ``d**k x d**y`` operator into ``y`` axes of a tensor of size-``d`` axes.

    ``op`` sums over the ``inputs`` axes; its ``k`` output axes land at the
    ``outputs`` positions of the result, and the other axes keep their order.
    """
    k, y = len(outputs), len(inputs)
    op = op.reshape((d,) * (k + y))
    moved = np.tensordot(op, tensor, axes=(list(range(k, k + y)), list(inputs)))
    return np.moveaxis(moved, list(range(k)), list(outputs))


def apply_unitary_vector(psi: np.ndarray, u: np.ndarray, axes: Sequence[int], d: int) -> np.ndarray:
    """Apply a block unitary to the given tensor axes of a state vector."""
    n = infer_site_count(psi.size, d)
    return contract_block(psi.reshape((d,) * n), u, axes, axes, d).reshape(-1)


def apply_unitary_density(rho: np.ndarray, u: np.ndarray, axes: Sequence[int], d: int) -> np.ndarray:
    """Conjugate a density matrix by a block unitary on the given sites."""
    n = infer_site_count(rho.shape[0], d)
    tensor = contract_block(rho.reshape((d,) * (2 * n)), u, axes, axes, d)
    columns = [n + a for a in axes]  # the column side, with the conjugate
    return contract_block(tensor, u.conj(), columns, columns, d).reshape(d**n, d**n)


class StateBackend:
    """A register of ``d``-level sites holding a pure or mixed dense state.

    The learner reaches the register only through ``n``, ``pure``, ``copy``,
    ``success_mass``, ``rdm``, ``compress`` and ``fidelity``; a register of
    another representation (a matrix product state, say) needs just these.
    ``apply_unitary`` and ``project_zero_and_drop`` are the reference path
    that ``compress`` fuses.
    """

    def __init__(self, state: np.ndarray, d: int, sites: Sequence[int] | None = None):
        state = np.asarray(state, dtype=complex)
        self.d = int(d)
        if state.ndim == 1:
            self.pure = True
            size = state.size
            if size > MAX_PURE_DIM:
                raise BackendTooLarge(f"vector dimension {size} exceeds cap {MAX_PURE_DIM}")
        elif state.ndim == 2:
            self.pure = False
            size = linalg.require_square(state)
            if size > MAX_MIXED_DIM:
                raise BackendTooLarge(f"density dimension {size} exceeds cap {MAX_MIXED_DIM}")
        else:
            raise DimensionMismatch(f"state must be a vector or matrix, got ndim {state.ndim}")
        n = infer_site_count(size, self.d)
        self.state = state.copy()
        self.sites = list(range(n)) if sites is None else list(sites)
        if len(self.sites) != n:
            raise DimensionMismatch(f"{len(self.sites)} site labels for {n} sites")

    @property
    def n(self) -> int:
        return len(self.sites)

    def copy(self) -> "StateBackend":
        return StateBackend(self.state, self.d, sites=list(self.sites))

    def positions(self, site_labels: Sequence[int]) -> list[int]:
        """Current axis positions of the given original site labels."""
        try:
            return [self.sites.index(s) for s in site_labels]
        except ValueError as exc:
            raise BlockOutOfRange(f"site not in register: {exc}") from exc

    def success_mass(self) -> float:
        if self.pure:
            return float(np.real(np.vdot(self.state, self.state)))
        return float(np.real(np.trace(self.state)))

    def fidelity(self, vector: np.ndarray) -> float:
        """``|<v|psi>|^2`` for a pure register, ``<v|rho|v>`` for a mixed one.

        ``vector`` lives on the held sites in ascending order, so it needs
        ``d**n`` entries for the current ``n``.
        """
        v = np.asarray(vector, dtype=complex)
        if v.shape != (self.d**self.n,):
            raise DimensionMismatch(
                f"vector of shape {v.shape} on a register of {self.n} sites of dimension {self.d}"
            )
        if self.pure:
            return float(abs(np.vdot(v, self.state)) ** 2)
        return float(np.real(v.conj() @ self.state @ v))

    def rdm(self, site_labels: Sequence[int]) -> np.ndarray:
        return mps.block_rdm(self.state, (self.d,) * self.n, self.positions(site_labels))

    def apply_unitary(self, u: np.ndarray, site_labels: Sequence[int]) -> None:
        pos = self.positions(site_labels)
        if self.pure:
            self.state = apply_unitary_vector(self.state, u, pos, self.d)
        else:
            self.state = apply_unitary_density(self.state, u, pos, self.d)

    def project_zero_and_drop(self, site_labels: Sequence[int]) -> None:
        """Project the sites onto |0>, discard them, keep the sub-normalized rest."""
        if not site_labels:
            return
        pos = sorted(self.positions(site_labels))
        sides = 1 if self.pure else 2
        index = tuple(0 if i in pos else slice(None) for i in range(self.n))
        tensor = self.state.reshape((self.d,) * (sides * self.n))[index * sides]
        self.sites = [s for i, s in enumerate(self.sites) if i not in pos]
        self.state = tensor.reshape((self.d**self.n,) * sides).copy()

    def compress(
        self, isometry: np.ndarray, site_labels: Sequence[int], dropped: Sequence[int]
    ) -> None:
        """Apply ``W^dagger`` to a block and drop its leading sites, in one contraction.

        ``dropped`` are the block's leading ``y - k`` sites, ``W`` is ``d**y x
        d**k``.  Equals :meth:`apply_unitary` of any ``U`` whose ``U^dagger``
        leads with ``W``, then :meth:`project_zero_and_drop` of ``dropped``.
        """
        labels, gone = list(site_labels), list(dropped)
        y, k = len(labels), len(labels) - len(gone)
        if labels[: len(gone)] != gone or isometry.shape != (self.d**y, self.d**k):
            raise DimensionMismatch(f"no {isometry.shape} isometry drops {gone} of {labels}")
        pos = self.positions(labels)
        sites = [s for s in self.sites if s not in gone]
        carried = [sites.index(s) for s in labels[len(gone) :]]
        sides, m = 1 if self.pure else 2, len(sites)
        tensor = self.state.reshape((self.d,) * (sides * self.n))
        tensor = contract_block(tensor, isometry.conj().T, pos, carried, self.d)
        if not self.pure:  # the column side, with the conjugate
            columns = ([m + i for i in pos], [m + i for i in carried])
            tensor = contract_block(tensor, isometry.T, *columns, self.d)
        self.state = tensor.reshape((self.d**m,) * sides)
        self.sites = sites
