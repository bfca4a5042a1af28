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


def apply_unitary_vector(psi: np.ndarray, u: np.ndarray, axes: Sequence[int], d: int) -> np.ndarray:
    """Apply a block unitary to the given tensor axes of a state vector."""
    n = infer_site_count(psi.size, d)
    axes = list(axes)
    y = len(axes)
    tensor = psi.reshape((d,) * n)
    op = u.reshape((d,) * (2 * y))
    moved = np.tensordot(op, tensor, axes=(list(range(y, 2 * y)), axes))
    return np.moveaxis(moved, list(range(y)), axes).reshape(-1)


def apply_unitary_density(rho: np.ndarray, u: np.ndarray, axes: Sequence[int], d: int) -> np.ndarray:
    """Conjugate a density matrix by a block unitary on the given sites."""
    n = infer_site_count(rho.shape[0], d)
    axes = list(axes)
    y = len(axes)
    tensor = rho.reshape((d,) * (2 * n))
    op = u.reshape((d,) * (2 * y))
    # Row side.
    moved = np.tensordot(op, tensor, axes=(list(range(y, 2 * y)), axes))
    tensor = np.moveaxis(moved, list(range(y)), axes)
    # Column side with the conjugate.
    col_axes = [n + a for a in axes]
    moved = np.tensordot(op.conj(), tensor, axes=(list(range(y, 2 * y)), col_axes))
    tensor = np.moveaxis(moved, list(range(y)), col_axes)
    return tensor.reshape(d**n, d**n)


class StateBackend:
    """A register of ``d``-level sites holding a pure or mixed dense state.

    The learner reaches the register only through ``n``, ``pure``, ``copy``,
    ``success_mass``, ``rdm``, ``apply_unitary``, ``project_zero_and_drop``
    and ``fidelity``; a register of another representation (a matrix product
    state, say) needs just these.
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
        n = self.n
        if self.pure:
            tensor = self.state.reshape((self.d,) * n)
            index = tuple(0 if i in pos else slice(None) for i in range(n))
            self.state = tensor[index].reshape(-1).copy()
        else:
            tensor = self.state.reshape((self.d,) * (2 * n))
            index = tuple(0 if i in pos else slice(None) for i in range(n))
            tensor = tensor[index + index]
            keep = n - len(pos)
            self.state = tensor.reshape(self.d**keep, self.d**keep).copy()
        self.sites = [s for i, s in enumerate(self.sites) if i not in pos]
