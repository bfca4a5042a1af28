"""Registers the tree learner runs on: a dense one and a tensor-train one.

Which register ``learn`` uses follows from its input alone:

* a :class:`~mpslearn.mps.MatrixProductState` goes to :class:`MPSBackend`
  as its :func:`~mpslearn.mps.open_chain`, which keeps its tensors, each a
  run of sites, in mixed-canonical form and never forms a ``d**n`` object,
  so these runs have no dense cap: only the chain, each block's window
  (``d**y * D_l * D_r`` entries) and each marginal formed are capped.
  ``learn`` builds it from the windows of its first operation, layer 1's
  acted blocks: each that fits the cap is contracted from the site tensors
  into one tensor, and one QR sweep then takes one step per tensor, not per
  site.
  :meth:`MPSBackend.rdm_factor`, the window with the centre in it, is a thin
  ``d**y x (D_l * D_r)`` factor ``F`` of the marginal ``F F^H``; under the
  exact oracle either variant builds its isometries from ``F``.  Each
  window is kept as one tensor, so the centre crosses the register's
  tensors, not its sites, and a later window made of earlier ones is
  contracted with no cut;
* a vector or a density matrix goes to :class:`StateBackend`, the dense
  register.  Pure inputs stay vectors; mixed inputs are density matrices,
  capped at a much smaller register since they square the memory cost.

What stays capped: dense inputs, ``reconstruct_state`` and the audit's stage
vectors and operators (all dense), and on every path a block window too wide
to hold, such as the closest variant's 36-site blocks at n = 64 and epsilon =
0.2, and a marginal of side past ``linalg.MAX_DENSITY_DIM``, which both
registers' ``rdm`` refuse before forming it.

No register writes a held array in place; every operation assigns new
arrays.  So the dense register holds its input as given, with no copy.

Both registers remember which chain sites they still hold (``0..n-1``, or
ascending labels given, such as the planner's ``1..n``), so callers address
operations by label while the held state shrinks.  A circuit is walked
forward by ``compress`` and backward by its mirror, ``uncompress``.  The dense
register contracts only in :meth:`StateBackend._contract`, the tensor train
only in :func:`mpslearn.mps.contract_window`.
"""
from __future__ import annotations

import bisect
import copy
import math
from typing import Sequence

import numpy as np

from . import linalg, mps
from .errors import BackendTooLarge, BadParameter, BlockOutOfRange, DimensionMismatch, shown

SVD_CUTOFF = 1e-12  # singular values below this share of the largest are numerical zeros


def infer_site_count(size: int, d: int) -> int:
    n = round(math.log(size, d)) if size >= 1 and d >= 2 else 0  # then only size 1 passes
    if d**n != size:
        raise DimensionMismatch(f"dimension {size} is not a power of d = {shown(d)}")
    return n


def _held_sites(sites: Sequence[int] | None, n: int) -> list[int]:
    """The ``n`` labels a register holds: ``0..n-1``, or the given ones, strictly ascending."""
    labels = list(range(n)) if sites is None else list(sites)
    if len(labels) != n or any(a >= b for a, b in zip(labels, labels[1:])):
        raise DimensionMismatch(f"site labels {labels} for {n} sites, not ascending")
    return labels


def _check_marginal(d: int, labels: list[int]) -> None:
    """Refuse a marginal on ``labels`` of side past ``linalg.MAX_DENSITY_DIM``."""
    if d ** len(labels) > linalg.MAX_DENSITY_DIM:
        raise BackendTooLarge(
            f"the {len(labels)}-site marginal of sites {labels[0]}..{labels[-1]} needs a dense "
            f"operator of dimension {d ** len(labels)} > {linalg.MAX_DENSITY_DIM}"
        )


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
            size, cap = state.size, linalg.MAX_VECTOR_DIM
            if size > cap:
                raise BackendTooLarge(f"vector dimension {size} exceeds cap {cap}")
        elif state.ndim == 2:
            self.pure = False
            size, cap = linalg.require_square(state), linalg.MAX_DENSITY_DIM
            if size > cap:
                raise BackendTooLarge(f"density dimension {size} exceeds cap {cap}")
        else:
            raise DimensionMismatch(f"state must be a vector or matrix, got ndim {state.ndim}")
        n = infer_site_count(size, self.d)
        self.state = state
        self.sites = _held_sites(sites, n)

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
            return float(abs(np.vdot(v, self.expand())) ** 2)
        return float(np.real(v.conj() @ self.state @ v))

    def rdm(self, site_labels: Sequence[int]) -> np.ndarray:
        positions = self.positions(site_labels)
        _check_marginal(self.d, sorted(site_labels))
        return mps.block_rdm(self.state, (self.d,) * self.n, positions)

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


class MPSBackend:
    """A pure register held as an open-boundary tensor train, never as a d**n vector.

    Each tensor holds a run of ``w >= 1`` consecutive held sites as one
    ``(D_l, d**w, D_r)`` array, its first site the most significant digit;
    ``starts`` lists the label of each tensor's first site, so the tensor
    that holds a site is found by bisection.  The tensors are in
    mixed-canonical form: those left of the tensor ``centre`` are
    left-orthonormal and those right of it right-orthonormal, so the state's
    norm sits in the centre and a window that holds the centre is its block's
    marginal factor.  The centre moves one :func:`mpslearn.mps.qr_step` per
    bond between tensors, only as far as the next window needs.

    Every operation leaves its window, the block's tensors contracted by
    :func:`mpslearn.mps.contract_window`, as one tensor.  A tensor is cut
    only where a window's edge falls inside it, by one SVD in :meth:`_cut`
    with the centre in it, so each cut sees the held state's own Schmidt
    values.  A block must be a run of consecutive held sites, and every carry
    of its window must have at most ``linalg.MAX_VECTOR_DIM`` entries; both
    are checked before the window is contracted (``BlockOutOfRange``,
    ``BackendTooLarge``), and :meth:`rdm` checks the marginal next.  A grown
    window (:meth:`uncompress`) is capped at ``linalg.MAX_WALK_WINDOW``.

    The register starts from one tensor per site of ``state``, except on
    ``runs``: disjoint, ascending runs of consecutive sites, such as the
    first layer's windows.  Each run whose window fits the cap on the raw
    site tensors is contracted into one tensor; a wider one stays one tensor
    per site, since the sweep may narrow its bonds.  One left-to-right QR
    sweep then makes the train canonical, one step per tensor it holds.
    """

    pure = True

    def __init__(
        self,
        state: mps.MatrixProductState,
        sites: Sequence[int] | None = None,
        runs: Sequence[Sequence[int]] = (),
    ):
        if state.boundary != "open":
            raise DimensionMismatch("the tensor-train register needs an open chain, mps.open_chain")
        self.d = state.d
        # copies, so the register owns what it holds, even a tensor of left bond 1
        self.tensors = [np.array(t.transpose(1, 0, 2), complex, order="C") for t in state.tensors]
        self.sites = _held_sites(sites, state.n)
        self.starts = list(self.sites)
        self.centre = 0
        labels = [s for run in runs for s in run]
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise BlockOutOfRange(f"runs {[list(run) for run in runs]} overlap or descend")
        for run in runs:  # contracted from the site tensors, before any sweep
            try:
                lo, hi = self._window(list(run))
            except BackendTooLarge:
                continue  # left as sites: the sweep may narrow the bonds a later window sees
            self._store(lo, hi, mps.contract_window(self.tensors[lo:hi]), run[0])
        self._move_centre(len(self.tensors) - 1, len(self.tensors))  # one QR step per bond

    @classmethod
    def of_vector(cls, vector: np.ndarray, d: int, sites: Sequence[int]) -> "MPSBackend":
        """A register holding a copy of a state vector on ``sites`` as one tensor, its centre.

        The vector holds ``d**len(sites)`` entries on ascending labels, or
        ``DimensionMismatch`` is raised.
        """
        register = cls.__new__(cls)
        labels = _held_sites(sites, infer_site_count(vector.size, d))
        register.d, register.sites, register.starts = d, labels, labels[:1]
        register.tensors, register.centre = [vector.reshape(1, -1, 1).copy()], 0
        return register

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def state(self) -> mps.MatrixProductState:
        """The held state as an open-boundary train of one tensor per held site.

        A copy takes the centre to its last tensor and is cut before every
        site, right to left, each cut from the centre and keeping the centre
        on its left, so every bond sees the state's own Schmidt values.  A
        backward walk ends with the centre there, so no QR step crosses a
        window.
        """
        register = self.copy()
        register._move_centre(len(self.tensors) - 1, len(self.tensors))
        for label in reversed(self.sites):
            register._cut(label, left=True)
        tensors = [t.transpose(1, 0, 2) for t in register.tensors]
        return mps.MatrixProductState(self.n, self.d, "open", tensors)

    def copy(self) -> "MPSBackend":
        """A register on the same tensors and centre, which no operation writes in place."""
        clone = copy.copy(self)
        clone.tensors, clone.sites = list(self.tensors), list(self.sites)
        clone.starts = list(self.starts)
        return clone

    def _position(self, label: int) -> int:
        return bisect.bisect_left(self.sites, label)

    def _window(self, labels: list[int], grow: int = 0) -> tuple[int, int]:
        """Tensors ``lo:hi`` holding exactly a run of held sites, cut where its edges fall.

        Every carry :func:`mpslearn.mps.contract_window` builds from them,
        ``grow`` sites wider, must fit in ``linalg.MAX_VECTOR_DIM`` entries, or
        in ``linalg.MAX_WALK_WINDOW`` for a window that grows.
        """
        first = self._position(labels[0]) if labels else 0
        last = first + len(labels)
        if not labels or self.sites[first:last] != labels:
            raise BlockOutOfRange(f"sites {labels} are not a run of consecutive held sites")
        if last < self.n:
            self._cut(self.sites[last])
        lo, hi = self._cut(labels[0]), bisect.bisect_right(self.starts, labels[-1])
        entries = self.d**grow * mps.carry_entries(self.tensors[lo:hi])
        cap = linalg.MAX_WALK_WINDOW if grow else linalg.MAX_VECTOR_DIM
        if entries > cap:
            raise BackendTooLarge(
                f"the window of sites {labels[0]}..{labels[-1]} needs {entries} entries "
                f"> cap {cap}"
            )
        return lo, hi

    def _cut(self, label: int, left: bool = False) -> int:
        """The index of the tensor that starts at held site ``label``, cutting the one holding it.

        One SVD from the centre, pruned only below ``SVD_CUTOFF`` of the largest
        singular value; the norm stays right of the cut, or with ``left`` left of it.
        """
        k = bisect.bisect_right(self.starts, label) - 1
        if self.starts[k] == label:
            return k
        self._move_centre(k, k + 1)
        (a, _, b), m = self.tensors[k].shape, self._position(label) - self._position(self.starts[k])
        u, s, vh = np.linalg.svd(self.tensors[k].reshape(a * self.d**m, -1), full_matrices=False)
        keep = max(int(np.count_nonzero(s > SVD_CUTOFF * s[0])), 1)
        u, s, vh = u[:, :keep], s[:keep], vh[:keep]
        u, vh = (u * s, vh) if left else (u, s[:, None] * vh)
        self.tensors[k : k + 1] = [u.reshape(a, -1, keep), vh.reshape(keep, -1, b)]
        self.starts.insert(k + 1, label)
        self.centre = k if left else k + 1
        return k + 1

    def _move_centre(self, lo: int, hi: int) -> None:
        """Move the centre to the nearest of tensors ``lo:hi``, one QR step per bond."""
        while not lo <= self.centre < hi:
            step = 1 if self.centre < lo else -1
            k = min(self.centre, self.centre + step)
            self.tensors[k : k + 2] = mps.qr_step(*self.tensors[k : k + 2], rightward=step > 0)
            self.centre += step

    def _store(self, lo: int, hi: int, tensor: np.ndarray, start: int) -> None:
        """Hold ``tensor``, whose first site is ``start``, in place of tensors ``lo:hi``."""
        self.tensors[lo:hi], self.starts[lo:hi] = [tensor], [start]
        if self.centre >= lo:
            self.centre = max(lo, self.centre - (hi - lo - 1))

    def success_mass(self) -> float:
        return float(np.linalg.norm(self.tensors[self.centre]) ** 2)

    def rdm(self, site_labels: Sequence[int]) -> np.ndarray:
        labels = sorted(site_labels)
        self._window(labels)  # a window too wide to hold keeps its own error
        _check_marginal(self.d, labels)
        factor = self.rdm_factor(labels)
        rdm = factor @ factor.conj().T
        return (rdm + rdm.conj().T) / 2.0

    def rdm_factor(self, site_labels: Sequence[int]) -> np.ndarray:
        """A thin ``F``, ``d**y x (D_l * D_r)``, with ``F @ F^H == rdm(site_labels)``.

        ``F[x, (a, b)] = W[a, x, b]`` for the window ``W`` that holds the
        centre, which the register keeps as one tensor: the held state is
        ``L W R`` with orthonormal ``L`` and ``R``, so the marginal is
        ``F F^H``, which is never formed here.
        """
        lo, hi = self._window(sorted(site_labels))
        self._move_centre(lo, hi)
        window = mps.contract_window(self.tensors[lo:hi])
        self._store(lo, hi, window, self.starts[lo])
        dl, dim, dr = window.shape
        return window.transpose(1, 0, 2).reshape(dim, dl * dr)

    def compress(
        self, isometry: np.ndarray, site_labels: Sequence[int], dropped: Sequence[int]
    ) -> None:
        """:meth:`StateBackend.compress` on the block's window, kept as one tensor.

        The window holds the centre, so the centre ends on the kept tensor,
        whose norm is the success mass.
        """
        labels, gone = list(site_labels), list(dropped)
        y, k = len(labels), len(labels) - len(gone)
        if k < 1 or labels[: len(gone)] != gone or isometry.shape != (self.d**y, self.d**k):
            raise DimensionMismatch(f"no {isometry.shape} isometry drops {gone} of {labels}")
        lo, hi = self._window(labels)
        self._move_centre(lo, hi)
        kept = isometry.conj().T @ mps.contract_window(self.tensors[lo:hi])
        self._store(lo, hi, kept, labels[len(gone)])
        first = self._position(labels[0])
        self.sites[first : first + y] = labels[len(gone) :]

    def uncompress(
        self, isometry: np.ndarray, site_labels: Sequence[int], inserted: Sequence[int]
    ) -> None:
        """:meth:`StateBackend.uncompress`, capping the grown window before anything is read.

        An isometry keeps a tensor left- or right-orthonormal, so the window
        needs no centre; the grown window is kept as one tensor.
        """
        labels, new = list(site_labels), list(inserted)
        y, k = len(labels), len(labels) - len(new)
        if k < 1 or labels[: len(new)] != new:
            raise DimensionMismatch(f"no isometry inserts {new} into {labels}")
        lo, hi = self._window(labels[len(new) :], grow=len(new))
        first = self._position(labels[len(new)])
        # the held run is ascending, so only the block and its left neighbour need a look
        run = self.sites[first - 1 : first] + labels
        if any(a >= b for a, b in zip(run, run[1:])):
            raise BlockOutOfRange(f"sites {new} do not fit before the held run")
        if isometry.shape != (self.d**y, self.d**k):
            raise DimensionMismatch(f"no {isometry.shape} isometry inserts {new} into {labels}")
        self._store(lo, hi, isometry @ mps.contract_window(self.tensors[lo:hi]), labels[0])
        self.sites[first : first + k] = labels

    def expand(self) -> np.ndarray:
        """The held state as a dense vector on the held sites, capped like :func:`mps.expand`."""
        if self.d**self.n > linalg.MAX_VECTOR_DIM:
            raise BackendTooLarge(
                f"dense expansion of dimension {self.d}**{self.n} exceeds cap "
                f"{linalg.MAX_VECTOR_DIM}"
            )
        return mps.contract_window(self.tensors)[0, :, 0].copy()

    fidelity = StateBackend.fidelity
