"""Matrix-product-state construction, expansion and reduction tests."""

import base64
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpslearn import errors, linalg, mps


def expand_by_matrix_products(state):
    """Independent expansion: amplitude = trace of the per-site matrix chain."""
    n, d = state.n, state.d
    out = np.zeros(d**n, dtype=complex)
    for flat in range(d**n):
        digits = np.unravel_index(flat, (d,) * n)
        chain = state.tensors[0][digits[0]]
        for k in range(1, n):
            chain = chain @ state.tensors[k][digits[k]]
        out[flat] = np.trace(chain)
    return out


def expand_by_einsum(state):
    """Chain contraction by einsum, one site at a time (the earlier expand)."""
    carry = np.asarray(state.tensors[0], dtype=complex).copy()
    outer = carry.shape[1]
    for a in state.tensors[1:]:
        carry = np.einsum("xab,ibc->xiac", carry, a)
        carry = carry.reshape(carry.shape[0] * state.d, outer, a.shape[2])
    if state.boundary == "open":
        return carry[:, 0, 0].copy()
    return np.trace(carry, axis1=1, axis2=2).copy()


def transfer_log_norm(state):
    """Log of the norm by transfer matrices, renormalized at every site."""
    outer = state.tensors[0].shape[1]
    env = np.einsum("ab,ef->aebf", np.eye(outer), np.eye(outer))
    log_norm2 = 0.0
    for t in state.tensors:
        env = np.einsum("aebf,ibc,ifg->aecg", env, t, t.conj())
        peak = np.max(np.abs(env))
        env, log_norm2 = env / peak, log_norm2 + math.log(peak)
    return 0.5 * (log_norm2 + math.log(np.real(np.einsum("abab->", env))))


def raw_chain(n, d, bonds, boundary, rng):
    """Unnormalized complex Gaussian tensors on the given bonds."""
    tensors = [
        rng.standard_normal((d, bonds[k], bonds[k + 1]))
        + 1j * rng.standard_normal((d, bonds[k], bonds[k + 1]))
        for k in range(n)
    ]
    return mps.MatrixProductState(n=n, d=d, boundary=boundary, tensors=tensors)


def rdm_by_amplitude_sums(psi, dims, block):
    """Independent block RDM: contract the environment legs directly."""
    n = len(dims)
    tensor = psi.reshape(dims)
    order = list(block) + [k for k in range(n) if k not in block]
    moved = np.transpose(tensor, order)
    block_dim = int(np.prod([dims[k] for k in block]))
    mat = moved.reshape(block_dim, -1)
    return mat @ mat.conj().T


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_expand_matches_matrix_product_oracle(boundary):
    rng = np.random.default_rng(0)
    for trial in range(8):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 4))
        state = mps.random_mps(
            mps.StateSpec(n=n, d=d, D=2, boundary=boundary, seed=trial)
        )
        np.testing.assert_allclose(
            mps.expand(state), expand_by_matrix_products(state), atol=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.sampled_from([2, 3]),
    D=st.integers(1, 3),
    boundary=st.sampled_from(["open", "periodic"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_expand_matches_the_entrywise_matrix_products(n, d, D, boundary, seed):
    rng = np.random.default_rng(seed)
    bonds = [int(b) for b in rng.integers(1, D + 1, size=n + 1)]
    if boundary == "open":
        bonds[0] = bonds[-1] = 1
    else:
        bonds[-1] = bonds[0]
    state = raw_chain(n, d, bonds, boundary, rng)
    reference = expand_by_matrix_products(state)
    psi = mps.expand(state)
    assert psi.shape == (d**n,) and psi.flags.c_contiguous
    assert np.linalg.norm(psi - reference) <= 1e-13 * np.linalg.norm(reference)


@settings(max_examples=60, deadline=None)
@given(
    bonds=st.lists(st.integers(1, 4), min_size=2, max_size=7),
    d=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_contract_window_matches_an_einsum_chain(bonds, d, seed):
    # a run of (D_l, d, D_r) tensors on uneven bonds, outer ones included, given as the
    # transposed (d, D_l, D_r) views that expand passes
    rng = np.random.default_rng(seed)
    tensors = [
        (rng.standard_normal((d, l, r)) + 1j * rng.standard_normal((d, l, r))).transpose(1, 0, 2)
        for l, r in zip(bonds, bonds[1:])
    ]
    reference = tensors[0]
    for t in tensors[1:]:
        reference = np.einsum("lxa,aib->lxib", reference, t).reshape(bonds[0], -1, t.shape[2])
    window = mps.contract_window(tensors)
    assert window.shape == (bonds[0], d ** len(tensors), bonds[-1])
    assert np.max(np.abs(window - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_normalize_matches_the_normalized_expansion(boundary):
    rng = np.random.default_rng(41)
    for n in range(1, 13):
        for d in (2, 3):
            if d**n > linalg.MAX_VECTOR_DIM:
                continue
            if boundary == "open":
                bonds = [min(3, d**k, d ** (n - k)) for k in range(n + 1)]
            else:
                bonds = [2] * (n + 1)
            state = raw_chain(n, d, bonds, boundary, rng)
            reference = expand_by_einsum(state)
            reference /= np.linalg.norm(reference)
            psi = mps.expand(state.normalize())
            assert np.max(np.abs(psi - reference)) <= 1e-12


@pytest.mark.parametrize("n", [17, 1024])
def test_random_mps_past_the_dense_cap_is_normalized(n):
    for boundary in ("open", "periodic"):
        state = mps.random_mps(mps.StateSpec(n=n, d=2, D=2, boundary=boundary, seed=n))
        for t in state.tensors:
            peak = np.max(np.abs(t))
            assert np.isfinite(t).all() and 1e-3 < peak < 1e3  # the scale is spread
        assert abs(transfer_log_norm(state)) <= 1e-12
    with pytest.raises(errors.TooLarge):
        mps.expand(state)


def test_normalize_rejects_the_zero_state():
    tensors = [np.ones((2, 1, 1), dtype=complex), np.zeros((2, 1, 1), dtype=complex)]
    with pytest.raises(errors.InvalidSpec, match="zero state"):
        mps.MatrixProductState(n=2, d=2, boundary="open", tensors=tensors).normalize()
    # a one-site ring of nilpotent matrices: nonzero tensors, every amplitude
    # trace(X) = 0, so only the closing trace finds the zero state
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ring = mps.MatrixProductState(
        n=1, d=2, boundary="periodic", tensors=[np.stack([nilpotent, nilpotent])]
    )
    with pytest.raises(errors.InvalidSpec, match="zero state"):
        ring.normalize()


def test_expand_is_big_endian():
    # |0 0 1> must land at flat index 1 (site 1 is the most significant digit).
    tensors = [np.zeros((2, 1, 1), dtype=complex) for _ in range(3)]
    tensors[0][0] = 1.0
    tensors[1][0] = 1.0
    tensors[2][1] = 1.0
    state = mps.MatrixProductState(n=3, d=2, boundary="open", tensors=tensors)
    psi = mps.expand(state)
    assert psi[1] == 1.0
    assert np.count_nonzero(psi) == 1


def test_random_mps_is_normalized_with_capped_bonds():
    for boundary in ("open", "periodic"):
        spec = mps.StateSpec(n=7, d=2, D=3, boundary=boundary, seed=5)
        state = mps.random_mps(spec)
        assert abs(np.linalg.norm(mps.expand(state)) - 1.0) < 1e-12
        for t in state.tensors:
            assert t.shape[0] == 2
            assert t.shape[1] <= 3 if boundary == "open" else t.shape[1] == 3


def test_ghz_expansion():
    state = mps.random_mps(mps.StateSpec(n=4, d=2, D=2, kind="ghz"))
    psi = mps.expand(state)
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[-1] = 1 / np.sqrt(2)
    np.testing.assert_allclose(psi, expected, atol=1e-12)

    qutrit = mps.random_mps(mps.StateSpec(n=3, d=3, D=3, kind="ghz"))
    psi3 = mps.expand(qutrit)
    expected3 = np.zeros(27, dtype=complex)
    for i in range(3):
        expected3[i * 9 + i * 3 + i] = 1 / np.sqrt(3)
    np.testing.assert_allclose(psi3, expected3, atol=1e-12)


def test_w_state_expansion():
    state = mps.random_mps(mps.StateSpec(n=4, d=2, D=2, kind="w-state"))
    psi = mps.expand(state)
    expected = np.zeros(16, dtype=complex)
    for k in range(4):
        expected[2 ** (3 - k)] = 0.5
    np.testing.assert_allclose(psi, expected, atol=1e-12)


def test_product_state_has_unit_bonds_and_factorizes():
    state = mps.random_mps(mps.StateSpec(n=5, d=2, D=1, kind="product", seed=9))
    psi = mps.expand(state)
    assert all(t.shape[1] == t.shape[2] == 1 for t in state.tensors)
    for cut in range(1, 5):
        assert mps.schmidt_rank(psi, cut, dims=(2,) * 5) == 1


def test_block_rdm_matches_amplitude_oracle():
    rng = np.random.default_rng(21)
    for boundary in ("open", "periodic"):
        for trial in range(5):
            n = int(rng.integers(3, 7))
            state = mps.random_mps(
                mps.StateSpec(n=n, d=2, D=2, boundary=boundary, seed=100 + trial)
            )
            psi = mps.expand(state)
            dims = (2,) * n
            start = int(rng.integers(0, n - 1))
            stop = int(rng.integers(start + 1, n))
            block = list(range(start, stop + 1))
            got = mps.block_rdm(psi, dims, block)
            np.testing.assert_allclose(
                got, rdm_by_amplitude_sums(psi, dims, block), atol=1e-12
            )


def test_block_rdm_accepts_density_input():
    state = mps.random_mps(mps.StateSpec(n=4, d=2, D=2, seed=2))
    psi = mps.expand(state)
    rho = np.outer(psi, psi.conj())
    dims = (2,) * 4
    np.testing.assert_allclose(
        mps.block_rdm(rho, dims, [1, 2]),
        mps.block_rdm(psi, dims, [1, 2]),
        atol=1e-12,
    )


def test_block_rdm_handles_gapped_blocks_like_partial_trace():
    state = mps.random_mps(mps.StateSpec(n=4, d=2, D=2, seed=6))
    psi = mps.expand(state)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(
        mps.block_rdm(psi, (2,) * 4, [0, 2]),
        linalg.partial_trace(rho, (2,) * 4, [0, 2]),
        atol=1e-12,
    )


def test_schmidt_rank_tracks_bond_profile():
    state = mps.random_mps(mps.StateSpec(n=6, d=2, D=3, boundary="open", seed=4))
    psi = mps.expand(state)
    for cut in range(1, 6):
        expected = min(3, 2**cut, 2 ** (6 - cut))
        assert mps.schmidt_rank(psi, cut, dims=(2,) * 6) == expected


@pytest.mark.parametrize(
    "kind, D", [("random", 1), ("random", 2), ("random", 3), ("ghz", 2), ("product", 1), ("w-state", 2)]
)
def test_schmidt_profile_matches_the_dense_ranks(kind, D):
    # open states by the SVD sweep, periodic ones expanded: the same ranks either way
    for n in range(2, 13):
        for boundary in ("open", "periodic"):
            state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, boundary=boundary, kind=kind, seed=n))
            psi = mps.expand(state)
            dense = [mps.schmidt_rank(psi, cut, dims=(2,) * n) for cut in range(1, n)]
            assert mps.schmidt_profile(state) == dense, (n, boundary)


def test_schmidt_profile_of_an_open_state_runs_past_the_dense_cap():
    state = mps.random_mps(mps.StateSpec(n=40, d=3, D=4, seed=47))
    assert mps.schmidt_profile(state) == [min(4, 3**c, 3 ** (40 - c)) for c in range(1, 40)]
    assert mps.schmidt_rank(state, 20) == 4
    ring = mps.random_mps(mps.StateSpec(n=17, d=2, D=2, boundary="periodic", seed=47))
    with pytest.raises(errors.TooLarge):
        mps.schmidt_profile(ring)


def test_periodic_schmidt_rank_bounded_by_bond_squared():
    state = mps.random_mps(mps.StateSpec(n=6, d=2, D=2, boundary="periodic", seed=8))
    psi = mps.expand(state)
    for cut in range(1, 6):
        assert mps.schmidt_rank(psi, cut, dims=(2,) * 6) <= 4


def test_contiguous_block_rank_capped_by_bond_squared():
    rng = np.random.default_rng(33)
    for boundary in ("open", "periodic"):
        for trial in range(4):
            D = int(rng.integers(2, 4))
            state = mps.random_mps(
                mps.StateSpec(n=8, d=2, D=D, boundary=boundary, seed=200 + trial)
            )
            psi = mps.expand(state)
            dims = (2,) * 8
            for start in range(8):
                for stop in range(start, 8):
                    rdm = mps.block_rdm(psi, dims, range(start, stop + 1))
                    assert linalg.numerical_rank(rdm, tol=1e-10) <= D * D


def test_save_load_round_trip(tmp_path):
    state = mps.random_mps(mps.StateSpec(n=5, d=2, D=2, seed=12))
    path = tmp_path / "state.json"
    mps.save_mps(state, path)
    loaded = mps.load_mps(path)
    assert loaded.n == state.n and loaded.d == state.d
    for a, b in zip(loaded.tensors, state.tensors):
        np.testing.assert_array_equal(a, b)
    first = path.read_bytes()
    mps.save_mps(loaded, path)
    assert path.read_bytes() == first


def test_load_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(errors.InvalidSpec):
        mps.load_mps(path)


def test_spec_validation():
    with pytest.raises(errors.InvalidSpec):
        mps.StateSpec(n=0, d=2, D=2)
    with pytest.raises(errors.InvalidSpec):
        mps.StateSpec(n=3, d=2, D=2, boundary="twisted")
    with pytest.raises(errors.InvalidSpec):
        mps.StateSpec(n=3, d=2, D=3, kind="ghz")


def _edit_entries(text, edit):
    """Apply ``edit`` to the stored entries, decoded as complex128, and re-encode."""
    doc = json.loads(text)
    values = np.frombuffer(base64.b64decode(doc["entries"]), dtype="<c16")
    doc["entries"] = base64.b64encode(edit(values).astype("<c16").tobytes()).decode("ascii")
    return json.dumps(doc)


def _one_site(text, n, shape):
    """The document as a one-site state |0> with the given ``n`` and tensor shape."""
    entries = mps.complex_entries([np.array([1.0, 0.0])])
    return json.dumps({**json.loads(text), "n": n, "shapes": [shape], "entries": entries})


def test_one_site_document_loads(tmp_path):
    # the undamaged counterpart of the bool-n, bool-shape and float-shape cases
    path = tmp_path / "state.json"
    mps.save_mps(mps.random_mps(mps.StateSpec(n=5, d=2, D=2, seed=12)), path)
    path.write_text(_one_site(path.read_text(), n=1, shape=[2, 1, 1]))
    state = mps.load_mps(path)
    assert state.n == 1 and state.tensors[0].shape == (2, 1, 1)


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"n":5,', ""),
        lambda text: _edit_entries(text, lambda v: np.append(v, 1.0)),
        lambda text: _edit_entries(text, lambda v: np.append(complex(math.nan, 0.0), v[1:])),
        # more digits than Python's JSON parser converts to an int
        lambda text: text.replace('"n":5,', '"n":' + "9" * 5000 + ","),
        # no entries to store, but a dimension numpy cannot index
        lambda text: json.dumps({**json.loads(text), "shapes": [[0, 10**30, 1]], "entries": ""}),
        None,  # a directory in place of the file
        # JSON true where an integer is expected, in a file that loads with 1
        lambda text: _one_site(text, n=True, shape=[2, 1, 1]),
        lambda text: _one_site(text, n=1, shape=[2, True, True]),
        lambda text: _one_site(text, n=1, shape=[2.0, 1, 1]),
    ],
    ids=["truncated", "missing-n", "extra-entry", "nan-entry", "huge-int", "huge-empty-shape",
         "directory", "bool-n", "bool-shape", "float-shape"],
)
def test_load_rejects_damaged_files(tmp_path, damage):
    path = tmp_path / "state.json"
    mps.save_mps(mps.random_mps(mps.StateSpec(n=5, d=2, D=2, seed=12)), path)
    if damage is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_text(damage(path.read_text()))
    with pytest.raises(errors.InvalidSpec):
        mps.load_mps(path)


def test_load_refuses_version_1_files(tmp_path):
    # version 1 stored the entries as a JSON list of interleaved floats
    path = tmp_path / "state.json"
    mps.save_mps(mps.random_mps(mps.StateSpec(n=5, d=2, D=2, seed=13)), path)
    doc = json.loads(path.read_text())
    floats = np.frombuffer(base64.b64decode(doc["entries"]), dtype="<f8")
    doc.update(version=1, entries=floats.tolist())
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(errors.InvalidSpec, match="version 1"):
        mps.load_mps(path)


def test_complex_codec_matches_entrywise_reference():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a[0, 0] = complex(-0.0, 0.0)
    a[0, 1] = complex(5e-324, -0.0)
    b = rng.standard_normal(3) + 0j
    c = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))).astype(">c16")
    reference = b"".join(
        struct.pack("<dd", float(z.real), float(z.imag)) for x in (a, b, c) for z in x.reshape(-1)
    )
    entries = mps.complex_entries([a, b, c])
    assert entries == base64.b64encode(reference).decode("ascii")
    shapes = [a.shape, b.shape, c.shape]
    for back, x in zip(mps.complex_arrays(entries, shapes, errors.InvalidSpec), (a, b, c)):
        assert back.dtype == complex and back.tobytes() == x.astype(complex).tobytes()
    short = base64.b64encode(reference[:-16]).decode("ascii")
    for bad in (short, entries[:-4], "-" + entries[1:], [0.0, 1.0]):
        with pytest.raises(errors.InvalidSpec):
            mps.complex_arrays(bad, shapes, errors.InvalidSpec)
