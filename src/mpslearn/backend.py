"""Registers the tree learner runs on: a dense one and a tensor-train one.

Which register ``learn`` uses follows from its input alone:

* an open-boundary :class:`~mpslearn.mps.MatrixProductState` goes to
  :class:`MPSBackend`, which keeps the site tensors and never forms a
  ``d**n`` object, so these runs have no dense cap: only each block's window
  (``d**y * D_l * D_r`` entries) and the closing tail are capped.  Its
  :meth:`MPSBackend.rdm_factor` gives a block marginal as ``F F^H`` for a thin
  ``d**y x (D_l * D_r)`` factor ``F``; the exact variant under the exact
  oracle builds its isometries from ``F`` and never forms the marginal;
* everything else goes to :class:`StateBackend`, the dense register:
  vectors, density matrices and periodic states (expanded).  Pure inputs stay
  vectors; mixed inputs are density matrices, capped at a much smaller
  register since they square the memory cost.

What stays capped: mixed and periodic inputs, ``reconstruct_state`` and the
audit's stage vectors and operators (all dense), and on every path a block
window or tail too wide to hold, such as the closest variant's 36-site blocks
at n = 64 and epsilon = 0.2.

No register writes a held array in place; every operation assigns new
arrays.  So the dense register holds its input as given, with no copy.

Both registers remember which chain sites they still hold (``0..n-1``, or
the labels given, such as the planner's ``1..n``), so callers address
operations by label while the held state shrinks.  A circuit is walked
forward by ``compress`` and backward by its mirror, ``uncompress``.  The dense
register contracts only in :meth:`StateBackend._contract`, the tensor train
only in :func:`mpslearn.mps.contract_window`.
"""
from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from . import linalg, mps
from .errors import BackendTooLarge, BadParameter, BlockOutOfRange, DimensionMismatch

MAX_PURE_DIM = linalg.MAX_VECTOR_DIM
MAX_MIXED_DIM = linalg.MAX_DENSITY_DIM
MAX_WALK_WINDOW = 2**24  # entries of a window that MPSBackend.uncompress grows
SVD_CUTOFF = 1e-12  # singular values below this share of the largest are numerical zeros


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


class StateBackend:
    """A register of ``d``-level sites holding a pure or mixed dense state.

    The learner reaches the register only through ``n``, ``pure``,
    ``success_mass``, ``rdm``, ``compress``, ``expand`` and ``fidelity`` (and
    ``copy`` for the audit's snapshots), and walks a circuit backward by
    ``uncompress``; :class:`MPSBackend` implements the same members.
    ``apply_unitary``, ``compress`` and ``uncompress`` all go through the one
    :meth:`_contract`.  ``project_zero_and_drop`` is the projection that
    ``compress`` fuses with a block's unitary, kept as its test reference.

    It holds the array it is given, with no copy, and no operation writes
    ``state`` in place (each assigns a new array), so a density input is read
    where it lies and never changed.  :meth:`copy` is a real copy, so a
    snapshot keeps its bytes whatever the caller later writes to its array.
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
        self.state = state
        self.sites = list(range(n)) if sites is None else list(sites)
        if len(self.sites) != n:
            raise DimensionMismatch(f"{len(self.sites)} site labels for {n} sites")

    @property
    def n(self) -> int:
        return len(self.sites)

    def copy(self) -> "StateBackend":
        return StateBackend(self.state.copy(), self.d, sites=list(self.sites))

    def expand(self) -> np.ndarray:
        """The held pure state as a vector on the held sites; a mixed register has none."""
        if not self.pure:
            raise BadParameter("a mixed register holds no state vector")
        return self.state

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
        self._contract(u, pos, pos, self.sites)

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
        self._contract(isometry.conj().T, pos, [sites.index(s) for s in labels[len(gone) :]], sites)

    def uncompress(
        self, isometry: np.ndarray, site_labels: Sequence[int], inserted: Sequence[int]
    ) -> None:
        """The mirror of :meth:`compress`: insert the block's leading sites at |0>, apply ``W``.

        ``inserted`` join the held sites in ascending label order.  :meth:`compress`
        then ``uncompress`` of a block applies its projector ``W W^dagger``.
        """
        labels, new = list(site_labels), list(inserted)
        y, k = len(labels), len(labels) - len(new)
        if labels[: len(new)] != new or isometry.shape != (self.d**y, self.d**k):
            raise DimensionMismatch(f"no {isometry.shape} isometry inserts {new} into {labels}")
        carried = self.positions(labels[len(new) :])
        if set(new) & set(self.sites):
            raise BlockOutOfRange(f"sites {new} are held already")
        sites = list(self.sites)
        for s in new:
            bisect.insort(sites, s)
        self._contract(isometry, carried, [sites.index(s) for s in labels], sites)

    def _contract(self, op: np.ndarray, inputs: list[int], outputs: list[int], sites: list[int]):
        """:func:`contract_block` of ``op``, and of its conjugate on a density's column side."""
        sides, m = 1 if self.pure else 2, len(sites)
        tensor = self.state.reshape((self.d,) * (sides * self.n))
        tensor = contract_block(tensor, op, inputs, outputs, self.d)
        if not self.pure:  # the column side, with the conjugate
            columns = ([m + i for i in inputs], [m + i for i in outputs])
            tensor = contract_block(tensor, op.conj(), *columns, self.d)
        self.state = tensor.reshape((self.d**m,) * sides)
        self.sites = sites


def tt_split(window: np.ndarray, d: int, count: int) -> list[np.ndarray]:
    """Split ``(D_l, d**count, D_r)`` into ``(D_l, d, D_r)`` site tensors by repeated SVD.

    Singular values below ``SVD_CUTOFF`` relative to the largest are
    numerical zeros and are pruned; no other truncation happens.
    """
    left, _, right = window.shape
    tensors: list[np.ndarray] = []
    carry = window.reshape(left, d**count * right)
    bond = left
    for k in range(count - 1):
        matrix = carry.reshape(bond * d, d ** (count - 1 - k) * right)
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        keep = int(np.count_nonzero(s > SVD_CUTOFF * s[0])) if s.size and s[0] > 0 else 1
        keep = max(keep, 1)
        tensors.append(u[:, :keep].reshape(bond, d, keep))
        carry = s[:keep, None] * vh[:keep]
        bond = keep
    tensors.append(carry.reshape(bond, d, right))
    return tensors


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """``G`` with ``G @ G^H == gram`` for a Gram matrix, from its eigendecomposition.

    Eigenvalues that rounding left negative are clipped to zero.
    """
    w, v = np.linalg.eigh(gram)
    return v * np.sqrt(np.clip(w, 0.0, None))


class MPSBackend:
    """A pure register held as open-boundary site tensors, never as a d**n vector.

    Each held site keeps a ``(D_l, d, D_r)`` tensor.  A block must be a run of
    consecutive held sites, and its window, the block's tensors contracted
    into ``(D_l, d**y, D_r)``, must have at most ``MAX_PURE_DIM`` entries; both
    are checked before anything is built (``BlockOutOfRange``,
    ``BackendTooLarge``).  :meth:`uncompress` grows a window instead, capped
    at ``MAX_WALK_WINDOW`` entries.  The left and right transfer environments,
    the Gram matrices of the held state on either side of each bond, are built
    in one sweep each and kept until the next change of the register, so a
    layer's marginals cost two sweeps however many blocks it has.
    """

    pure = True

    def __init__(self, state: mps.MatrixProductState, sites: Sequence[int] | None = None):
        if state.boundary != "open":
            raise DimensionMismatch("the tensor-train register needs an open-boundary state")
        self.d = state.d
        self.tensors = [
            np.ascontiguousarray(np.transpose(t, (1, 0, 2)), dtype=complex) for t in state.tensors
        ]
        self.sites = list(range(state.n)) if sites is None else list(sites)
        if len(self.sites) != state.n or self.sites != sorted(set(self.sites)):
            raise DimensionMismatch(f"site labels {self.sites} for {state.n} sites, not ascending")
        self._left: list[np.ndarray] | None = None
        self._right: list[np.ndarray] | None = None

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def state(self) -> mps.MatrixProductState:
        """The held state as an open-boundary tensor train on the held sites."""
        tensors = [t.transpose(1, 0, 2) for t in self.tensors]
        return mps.MatrixProductState(self.n, self.d, "open", tensors)

    def copy(self) -> "MPSBackend":
        """A register on the same tensors, which no operation writes in place."""
        return MPSBackend(self.state, self.sites)

    def _window(self, labels: list[int], cap: int = MAX_PURE_DIM, grow: int = 0) -> tuple[int, int]:
        """Positions ``lo:hi`` of a run of held sites.

        Every carry :func:`mpslearn.mps.contract_window` builds from their
        tensors, ``grow`` sites wider, must fit in ``cap`` entries.
        """
        lo = bisect.bisect_left(self.sites, labels[0]) if labels else 0
        hi = lo + len(labels)
        if not labels or self.sites[lo:hi] != labels:
            raise BlockOutOfRange(f"sites {labels} are not a run of consecutive held sites")
        width, entries = self.tensors[lo].shape[0] * self.d**grow, 0
        for t in self.tensors[lo:hi]:
            width *= self.d
            entries = max(entries, width * t.shape[2])
        if entries > cap:
            raise BackendTooLarge(
                f"the window of sites {labels[0]}..{labels[-1]} needs {entries} entries "
                f"> cap {cap}"
            )
        return lo, hi

    def _left_envs(self) -> list[np.ndarray]:
        """``L[k][a', a]``: the Gram matrix of the first ``k`` held sites, ``k = 0..n``."""
        if self._left is None:
            envs = [np.ones((1, 1), dtype=complex)]
            for t in self.tensors:
                a = t.reshape(-1, t.shape[2])
                envs.append(a.conj().T @ (envs[-1] @ t.reshape(t.shape[0], -1)).reshape(a.shape))
            self._left = envs
        return self._left

    def _right_envs(self) -> list[np.ndarray]:
        """``R[k][b, b']``: the Gram matrix of the held sites from ``k`` on, ``k = 0..n``."""
        if self._right is None:
            envs = [np.ones((1, 1), dtype=complex)]
            for t in reversed(self.tensors):
                a = t.reshape(t.shape[0], -1)
                envs.append((t.reshape(-1, t.shape[2]) @ envs[-1]).reshape(a.shape) @ a.conj().T)
            self._right = envs[::-1]
        return self._right

    def success_mass(self) -> float:
        return float(np.real(self._left_envs()[-1][0, 0]))

    def rdm(self, site_labels: Sequence[int]) -> np.ndarray:
        lo, hi = self._window(sorted(site_labels))
        left, right = self._left_envs()[lo], self._right_envs()[hi]
        window = mps.contract_window(self.tensors[lo:hi])
        dl, dim, dr = window.shape
        framed = (left @ window.reshape(dl, -1)).reshape(-1, dr) @ right
        rdm = np.tensordot(framed.reshape(dl, dim, dr), window.conj(), axes=([0, 2], [0, 2]))
        return (rdm + rdm.conj().T) / 2.0

    def rdm_factor(self, site_labels: Sequence[int]) -> np.ndarray:
        """A thin ``F``, ``d**y x (D_l * D_r)``, with ``F @ F^H == rdm(site_labels)``.

        ``F[x, (a, b)] = sum A[a, l] W[l, x, r] B[r, b]`` for the window ``W``,
        where ``A^H A = L`` and ``B B^H = R`` factor the two environments
        (:func:`_gram_root`).  The ``d**y x d**y`` marginal is never formed.
        """
        lo, hi = self._window(sorted(site_labels))
        a = _gram_root(self._left_envs()[lo]).conj().T
        b = _gram_root(self._right_envs()[hi])
        window = mps.contract_window(self.tensors[lo:hi])
        dl, dim, dr = window.shape
        framed = ((a @ window.reshape(dl, -1)).reshape(-1, dr) @ b).reshape(dl, dim, dr)
        return framed.transpose(1, 0, 2).reshape(dim, dl * dr)

    def compress(
        self, isometry: np.ndarray, site_labels: Sequence[int], dropped: Sequence[int]
    ) -> None:
        """:meth:`StateBackend.compress` on the block's window, re-split by :func:`tt_split`."""
        labels, gone = list(site_labels), list(dropped)
        y, k = len(labels), len(labels) - len(gone)
        if k < 1 or labels[: len(gone)] != gone or isometry.shape != (self.d**y, self.d**k):
            raise DimensionMismatch(f"no {isometry.shape} isometry drops {gone} of {labels}")
        lo, hi = self._window(labels)
        kept = isometry.conj().T @ mps.contract_window(self.tensors[lo:hi])
        self.tensors[lo:hi] = tt_split(kept, self.d, k)
        self.sites[lo:hi] = labels[len(gone) :]
        self._left = self._right = None

    def uncompress(
        self, isometry: np.ndarray, site_labels: Sequence[int], inserted: Sequence[int]
    ) -> None:
        """:meth:`StateBackend.uncompress`, capping the grown window before anything is read."""
        labels, new = list(site_labels), list(inserted)
        y, k = len(labels), len(labels) - len(new)
        if k < 1 or labels[: len(new)] != new:
            raise DimensionMismatch(f"no isometry inserts {new} into {labels}")
        lo, hi = self._window(labels[len(new) :], MAX_WALK_WINDOW, grow=len(new))
        sites = self.sites[:lo] + labels + self.sites[hi:]
        if any(a >= b for a, b in zip(sites, sites[1:])):
            raise BlockOutOfRange(f"sites {new} do not fit before the held run")
        if isometry.shape != (self.d**y, self.d**k):
            raise DimensionMismatch(f"no {isometry.shape} isometry inserts {new} into {labels}")
        grown = isometry @ mps.contract_window(self.tensors[lo:hi])
        self.tensors[lo:hi] = tt_split(grown, self.d, y)
        self.sites = sites
        self._left = self._right = None

    def expand(self) -> np.ndarray:
        """The held state as a dense vector on the held sites (capped by :func:`mps.expand`)."""
        return mps.expand(self.state)

    def fidelity(self, vector: np.ndarray) -> float:
        """``|<v|psi>|^2`` for ``v`` on the held sites in ascending order."""
        v = np.asarray(vector, dtype=complex)
        if v.shape != (self.d**self.n,):
            raise DimensionMismatch(
                f"vector of shape {v.shape} on a register of {self.n} sites of dimension {self.d}"
            )
        return float(abs(np.vdot(v, self.expand())) ** 2)
