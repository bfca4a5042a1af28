"""Matrix product states with open or periodic boundary, plus dense helpers.

A state on ``n`` qudits of local dimension ``d`` is stored as one rank-3
tensor per site with shape ``(d, D_left, D_right)``.  The amplitude of a basis
string is the (trace of the) product of the per-site matrices selected by the
string.  Open-boundary states have outer bond dimension 1; periodic states
close the ring with a trace.

Dense expansions use the big-endian convention: site 0 is the most significant
digit of the flat index.  Site indices are 0-based everywhere in this module.
"""
from __future__ import annotations

import base64
import dataclasses
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from . import linalg
from .errors import BadCut, DimensionMismatch, InvalidSpec, TooLarge

MPS_FORMAT_NAME = "mps-state"
MPS_FORMAT_VERSION = 2


@dataclasses.dataclass
class MatrixProductState:
    """Tensor-train representation of a pure multi-qudit state.

    Attributes
    ----------
    n : int
        Number of sites.
    d : int
        Local Hilbert space dimension, uniform across sites.
    boundary : str
        Either ``"open"`` or ``"periodic"``.
    tensors : list[np.ndarray]
        One tensor per site with shape ``(d, D_left, D_right)``.  Open
        boundary requires ``D_left = 1`` at site 0 and ``D_right = 1`` at the
        last site; periodic boundary requires the outer bonds to match so the
        ring closes.
    """

    n: int
    d: int
    boundary: str
    tensors: list[np.ndarray]

    def __post_init__(self) -> None:
        if self.boundary not in ("open", "periodic"):
            raise InvalidSpec(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        if self.n < 1 or self.d < 2:
            raise InvalidSpec(f"need n >= 1 and d >= 2, got n={self.n}, d={self.d}")
        if len(self.tensors) != self.n:
            raise DimensionMismatch(f"expected {self.n} site tensors, got {len(self.tensors)}")
        for k, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[0] != self.d:
                raise DimensionMismatch(
                    f"site {k} tensor has shape {t.shape}, expected (d={self.d}, D_l, D_r)"
                )
            if k > 0 and t.shape[1] != self.tensors[k - 1].shape[2]:
                raise DimensionMismatch(
                    f"bond mismatch between sites {k - 1} and {k}: "
                    f"{self.tensors[k - 1].shape[2]} vs {t.shape[1]}"
                )
        first, last = self.tensors[0], self.tensors[-1]
        if self.boundary == "open":
            if first.shape[1] != 1 or last.shape[2] != 1:
                raise DimensionMismatch("open boundary requires outer bond dimension 1")
        elif first.shape[1] != last.shape[2]:
            raise DimensionMismatch("periodic boundary requires matching outer bonds")

    def normalize(self) -> "MatrixProductState":
        """Rescale the tensors so the state has unit norm, without expanding it.

        The squared norm is contracted left to right through the transfer
        matrices, so the cost is linear in ``n`` and no dense vector is
        formed.  The environment is rescaled at each site by its largest
        entry ``s_k``, and site ``k``'s tensor by ``sqrt(s_k)``, so every
        prefix stays of order one; the closing trace ``c`` is then spread as
        ``c**(1 / 2n)`` over all tensors.  No single factor overflows or
        underflows, even where the norm itself would (n = 1024, say).
        """
        first = self.tensors[0].shape[1]
        # env[a, a', b, b']: ket and bra chains from the outer bonds (a, a')
        # to the current bonds (b, b'), starting from the identity.
        env = np.eye(first * first, dtype=complex).reshape((first,) * 4)
        scales = []
        for t in self.tensors:
            env = np.tensordot(env, t.conj(), axes=([3], [1]))  # (a, a', b, i, c')
            env = np.tensordot(env, t, axes=([2, 3], [1, 0]))  # (a, a', c', c)
            env = env.swapaxes(2, 3)
            scale = float(np.max(np.abs(env)))
            if not 0.0 < scale < math.inf:
                raise InvalidSpec("cannot normalize the zero state or a non-finite one")
            env /= scale
            scales.append(scale)
        closing = float(np.real(np.einsum("abab->", env)))
        if not closing > 0.0:
            raise InvalidSpec("cannot normalize the zero state")
        spread = closing ** (0.5 / self.n)
        self.tensors = [t / (math.sqrt(s) * spread) for t, s in zip(self.tensors, scales)]
        return self


@dataclasses.dataclass(frozen=True)
class StateSpec:
    """Recipe for generating a test state."""

    n: int
    d: int
    D: int
    boundary: str = "open"
    seed: int = 0
    kind: str = "random"

    def __post_init__(self) -> None:
        integers = all(is_integer(x) for x in (self.n, self.d, self.D, self.seed))
        if not (integers and self.n >= 1 and self.d >= 2 and self.D >= 1 and self.seed >= 0):
            raise InvalidSpec(f"need integers n >= 1, d >= 2, D >= 1 and seed >= 0, got {self}")
        if self.boundary not in ("open", "periodic"):
            raise InvalidSpec(f"unknown boundary {self.boundary!r}")
        if self.kind not in ("random", "ghz", "product", "w-state"):
            raise InvalidSpec(f"unknown state kind {self.kind!r}")
        if self.kind == "ghz" and self.D != self.d:
            raise InvalidSpec(f"ghz needs D = d, got D={self.D}, d={self.d}")
        if self.kind == "w-state" and self.D != 2:
            raise InvalidSpec(f"w-state needs D = 2, got D={self.D}")
        if self.kind == "product" and self.D != 1:
            raise InvalidSpec(f"product needs D = 1, got D={self.D}")


def _open_bond_profile(n: int, d: int, D: int) -> list[int]:
    """Maximal open-boundary bond dimensions capped at D."""
    return [min(D, d**k, d ** (n - k)) for k in range(n + 1)]


def random_mps(spec: StateSpec) -> MatrixProductState:
    """Generate a normalized state from a :class:`StateSpec`.

    ``random`` draws iid complex Gaussian tensor entries at the maximal bond
    profile capped by ``D`` (open) or at uniform bond ``D`` (periodic), so the
    realized bond dimension is exactly ``min(D, maximal achievable)`` at every
    cut.  ``ghz``, ``w-state`` and ``product`` build the standard closed
    forms; ``product`` uses a seeded random unit vector on each site.
    """
    rng = np.random.default_rng(spec.seed)
    n, d, D = spec.n, spec.d, spec.D

    if spec.kind == "ghz":
        return _ghz_mps(n, d, spec.boundary)
    if spec.kind == "w-state":
        return _w_mps(n, d, spec.boundary)

    if spec.kind == "product":
        bonds = [1] * (n + 1)
    elif spec.boundary == "open":
        bonds = _open_bond_profile(n, d, D)
    else:
        bonds = [D] * (n + 1)

    tensors = []
    for k in range(n):
        shape = (d, bonds[k], bonds[k + 1])
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensors.append(t)
    mps = MatrixProductState(n=n, d=d, boundary=spec.boundary, tensors=tensors)
    return mps.normalize()


def _ghz_mps(n: int, d: int, boundary: str) -> MatrixProductState:
    if n < 2:
        raise InvalidSpec("ghz needs n >= 2")
    diag = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        diag[i, i, i] = 1.0
    if boundary == "periodic":
        tensors = [diag.copy() for _ in range(n)]
    else:
        first = np.zeros((d, 1, d), dtype=complex)
        last = np.zeros((d, d, 1), dtype=complex)
        for i in range(d):
            first[i, 0, i] = 1.0
            last[i, i, 0] = 1.0
        tensors = [first] + [diag.copy() for _ in range(n - 2)] + [last]
    tensors[0] = tensors[0] / math.sqrt(d)
    return MatrixProductState(n=n, d=d, boundary=boundary, tensors=tensors)


def _w_mps(n: int, d: int, boundary: str) -> MatrixProductState:
    if n < 2:
        raise InvalidSpec("w-state needs n >= 2")
    # Two bond states: "no excitation yet" and "one excitation placed".
    a0 = np.eye(2, dtype=complex)
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    mid = np.zeros((d, 2, 2), dtype=complex)
    mid[0], mid[1] = a0, a1
    first = np.zeros((d, 1, 2), dtype=complex)
    first[0, 0], first[1, 0] = a0[0], a1[0]
    last = np.zeros((d, 2, 1), dtype=complex)
    last[0, :, 0], last[1, :, 0] = a0[:, 1], a1[:, 1]
    if boundary == "periodic":
        # Close the ring through the boundary transfer |0><1|.
        hop = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        closing = np.zeros((d, 2, 2), dtype=complex)
        closing[0] = a0 @ hop
        closing[1] = a1 @ hop
        tensors = [mid.copy() for _ in range(n - 1)] + [closing]
    else:
        tensors = [first] + [mid.copy() for _ in range(n - 2)] + [last]
    tensors[0] = tensors[0] / math.sqrt(n)
    return MatrixProductState(n=n, d=d, boundary=boundary, tensors=tensors)


def contract_window(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Contract consecutive ``(D_l, d, D_r)`` site tensors into one ``(D_l, d**w, D_r)``.

    One matrix product per site, ``(l x, a) @ (a, i b)``, appends digit ``i``
    as the least significant one: the first site is the most significant digit.
    """
    window = tensors[0]
    for t in tensors[1:]:
        step = t.reshape(t.shape[0], -1)
        window = (window.reshape(-1, t.shape[0]) @ step).reshape(window.shape[0], -1, t.shape[2])
    return window


def expand(mps: MatrixProductState) -> np.ndarray:
    """Contract the tensor train into a dense state vector of length d**n.

    :func:`contract_window` of the whole chain, closed by the outer bonds:
    their ``[0, :, 0]`` entry on an open chain, their trace on a ring.
    """
    total = mps.d**mps.n
    if total > linalg.MAX_VECTOR_DIM:
        raise TooLarge(f"dense expansion of dimension {total} exceeds cap {linalg.MAX_VECTOR_DIM}")
    carry = contract_window([np.asarray(t, dtype=complex).transpose(1, 0, 2) for t in mps.tensors])
    if mps.boundary == "open":
        return carry[0, :, 0].copy()
    return np.trace(carry, axis1=0, axis2=2).copy()


def block_rdm(state: np.ndarray, dims: Sequence[int], block: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a site block.

    Parameters
    ----------
    state : np.ndarray
        Either a (possibly sub-normalized) state vector or a density matrix
        on the full register.
    dims : sequence of int
        Per-site dimensions.
    block : sequence of int
        0-based sites to keep, ascending in the output ordering.

    Returns
    -------
    np.ndarray
        Hermitian PSD matrix with the same trace as the input state.
    """
    dims = tuple(int(x) for x in dims)
    block = sorted(int(b) for b in block)
    n = len(dims)
    if not block or block[0] < 0 or block[-1] >= n:
        raise DimensionMismatch(f"block {block} outside register of {n} sites")
    state = np.asarray(state, dtype=complex)
    if state.ndim == 2:
        return linalg.partial_trace(state, dims, block)
    if state.ndim != 1 or state.shape[0] != math.prod(dims):
        raise DimensionMismatch(
            f"state has shape {state.shape}, expected ({math.prod(dims)},) or a square matrix"
        )
    tensor = state.reshape(dims)
    rest = [i for i in range(n) if i not in block]
    x = np.transpose(tensor, block + rest).reshape(
        math.prod(dims[b] for b in block), -1
    )
    rdm = x @ x.conj().T
    return (rdm + rdm.conj().T) / 2.0


def schmidt_rank(state, cut: int, tol: float = 1e-10, dims: Sequence[int] | None = None) -> int:
    """Rank of the reduced state across the cut ``(first cut sites | rest)``.

    ``state`` may be a :class:`MatrixProductState` or a dense vector (in which
    case ``dims`` is required).  ``cut`` counts sites on the left, so valid
    values are ``1 .. n-1``.  The rank is the number of squared singular
    values of the reshaped vector exceeding ``tol``, which equals the number
    of eigenvalues of the left block's reduced density matrix above ``tol``.
    """
    if isinstance(state, MatrixProductState):
        if not 1 <= cut <= state.n - 1:
            raise BadCut(f"cut must be in 1..{state.n - 1}, got {cut}")
        return schmidt_profile(state, tol)[cut - 1]
    if dims is None:
        raise DimensionMismatch("dims is required when passing a dense vector")
    dims = tuple(int(x) for x in dims)
    vector = np.asarray(state, dtype=complex).reshape(-1)
    if vector.shape[0] != math.prod(dims):
        raise DimensionMismatch(
            f"vector length {vector.shape[0]} does not match prod(dims) = {math.prod(dims)}"
        )
    n = len(dims)
    if not 1 <= cut <= n - 1:
        raise BadCut(f"cut must be in 1..{n - 1}, got {cut}")
    left = math.prod(dims[:cut])
    s = np.linalg.svd(vector.reshape(left, -1), compute_uv=False)
    return int(np.count_nonzero(s**2 > tol))


def schmidt_profile(state: MatrixProductState, tol: float = 1e-10) -> list[int]:
    """The Schmidt rank at every cut ``1 .. n-1``, counted as :func:`schmidt_rank` does.

    An open-boundary state is made left-canonical by a QR sweep; a
    right-to-left SVD sweep then reads each cut's singular values off one bond
    matrix, so no d**n vector is formed and any ``n`` works.  A periodic state
    is expanded, under :func:`expand`'s cap.
    """
    n, d = state.n, state.d
    if state.boundary == "periodic":
        vector = expand(state)
        return [schmidt_rank(vector, cut, tol, dims=(d,) * n) for cut in range(1, n)]
    tensors = [np.transpose(t, (1, 0, 2)) for t in state.tensors]  # (D_l, d, D_r)
    carry = np.ones((1, 1), dtype=complex)
    for k, t in enumerate(tensors):
        merged = (carry @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
        if k == n - 1:
            tensors[k] = merged.reshape(-1, d, 1)
        else:
            q, carry = np.linalg.qr(merged)
            tensors[k] = q.reshape(-1, d, q.shape[1])
    ranks = []
    carry = np.ones((1, 1), dtype=complex)
    for t in tensors[:0:-1]:
        merged = (t.reshape(-1, t.shape[2]) @ carry).reshape(t.shape[0], -1)
        u, s, _ = np.linalg.svd(merged, full_matrices=False)
        ranks.append(int(np.count_nonzero(s**2 > tol)))
        carry = u * s
    return ranks[::-1]


def is_integer(value) -> bool:
    """Whether a value is a Python or NumPy integer; ``True``/``False`` is not.

    ``bool`` is a subclass of ``int``, so a plain ``isinstance`` check would
    let a JSON ``true`` or ``false`` stand for 1 or 0.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a value is a Python or NumPy real number; ``True``/``False`` is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def canonical_json(doc) -> str:
    """``doc`` as JSON with sorted keys and no spaces, so equal documents give equal text."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as :func:`canonical_json` and a newline: the one writer of every JSON file."""
    Path(path).write_text(canonical_json(doc) + "\n")


def read_json(path: str | Path, name: str, error: type[Exception]):
    """Parse the JSON file at ``path``; failing to read or parse it raises ``error``."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise error(f"{name} file not found: {path}") from None
    except OSError as exc:  # a directory, or a file without read permission
        raise error(f"cannot read the {name} file {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8 or an integer of over 4300 digits
        raise error(f"{path} is not valid JSON: {exc}") from None


def read_document(
    path: str | Path, name: str, version: int, keys: Sequence[str], error: type[Exception]
) -> dict:
    """Parse a versioned JSON document and check its format, version and keys.

    Every defect raises ``error``, the caller's typed error, so a bad file
    never surfaces as a ``KeyError`` or a JSON parser error.
    """
    doc = read_json(path, name, error)
    if not isinstance(doc, dict) or doc.get("format") != name:
        found = doc.get("format") if isinstance(doc, dict) else None
        raise error(f"not a {name} file: format = {found!r}")
    if doc.get("version") != version:
        raise error(f"unsupported {name} format version {doc.get('version')!r}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise error(f"{name} file lacks the keys {', '.join(missing)}")
    return doc


def complex_entries(arrays: Sequence[np.ndarray]) -> str:
    """The arrays' entries in C order, as one base64 string for JSON.

    The bytes are the entries as little-endian IEEE-754 complex128 (``"<c16"``),
    encoded with the standard base64 alphabet and padding, so every bit of
    every entry is kept, signed zeros included.
    """
    raw = b"".join(np.asarray(a, dtype="<c16").tobytes() for a in arrays)
    return base64.b64encode(raw).decode("ascii")


def complex_arrays(
    entries, shapes: Sequence[Sequence[int]], error: type[Exception]
) -> list[np.ndarray]:
    """Inverse of :func:`complex_entries`: one array per shape.

    Raises ``error`` unless the entries are valid base64 whose bytes exactly
    fill the shapes with finite complex numbers.  The messages name no shape,
    because a stored dimension can have more digits than Python will format.
    """
    try:
        raw = base64.b64decode(entries, validate=True)
        shapes = [tuple(shape) for shape in shapes]
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise error(f"stored entries or shapes are malformed: {exc}") from None
    if not all(is_integer(k) for shape in shapes for k in shape):
        raise error("stored shapes must be lists of integers")
    sizes = [math.prod(shape) for shape in shapes]
    if any(k < 0 for shape in shapes for k in shape) or len(raw) != 16 * sum(sizes):
        raise error(f"{len(raw)} stored bytes do not fill the expected shapes with complex128")
    values = np.frombuffer(raw, dtype="<c16").astype(complex)
    if not np.isfinite(values).all():
        raise error("stored entries are not all finite")
    bounds = np.cumsum([0] + sizes)
    try:
        return [values[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
    except ValueError as exc:  # an empty shape with a dimension numpy cannot index
        raise error(f"expected shapes exceed numpy's limits: {exc}") from None


def save_mps(mps: MatrixProductState, path: str | Path) -> None:
    """Write a versioned JSON description of the state.

    The tensor entries are stored bit for bit by :func:`complex_entries`, so
    save/load is an exact round trip and repeated saves of the same state are
    byte-identical.
    """
    doc = {
        "format": MPS_FORMAT_NAME,
        "version": MPS_FORMAT_VERSION,
        "n": mps.n,
        "d": mps.d,
        "boundary": mps.boundary,
        "shapes": [list(t.shape) for t in mps.tensors],
        "entries": complex_entries(mps.tensors),
    }
    write_json(path, doc)


def load_mps(path: str | Path) -> MatrixProductState:
    """Load a state written by :func:`save_mps`; a bad file raises ``InvalidSpec``."""
    keys = ("n", "d", "boundary", "shapes", "entries")
    doc = read_document(path, MPS_FORMAT_NAME, MPS_FORMAT_VERSION, keys, InvalidSpec)
    if not (is_integer(doc["n"]) and is_integer(doc["d"])):
        raise InvalidSpec(f"need integers n and d, got n={doc['n']!r}, d={doc['d']!r}")
    tensors = complex_arrays(doc["entries"], doc["shapes"], InvalidSpec)
    try:
        return MatrixProductState(n=doc["n"], d=doc["d"], boundary=doc["boundary"], tensors=tensors)
    except (DimensionMismatch, TypeError) as exc:
        raise InvalidSpec(f"stored tensors do not form a chain: {exc}") from None
