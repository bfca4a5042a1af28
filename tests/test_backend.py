"""Register tests: the dense register, and the tensor-train register against it."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpslearn import errors, mps
from mpslearn.backend import MPSBackend, StateBackend, apply_unitary_vector
from mpslearn.disentangler import build_rank_capped_from_factor, unitary_from_isometry


def random_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return v / np.linalg.norm(v)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_apply_unitary_vector_matches_full_matrix():
    psi = random_state(3, 2, 0)
    u = random_unitary(4, 1)
    full = np.kron(np.kron(np.eye(2), u).reshape(8, 8), np.eye(1))
    # act on middle and last site
    got = apply_unitary_vector(psi, u, [1, 2], 2)
    np.testing.assert_allclose(got, np.kron(np.eye(2), u) @ psi, atol=1e-12)
    del full


def test_apply_unitary_vector_respects_axis_order():
    psi = random_state(2, 2, 2)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    swapped = apply_unitary_vector(psi, swap, [0, 1], 2)
    reversed_axes = apply_unitary_vector(psi, swap, [1, 0], 2)
    np.testing.assert_allclose(
        swapped, psi.reshape(2, 2).T.reshape(-1), atol=1e-12
    )
    # acting on the reversed axis list conjugates by the same swap
    np.testing.assert_allclose(reversed_axes, swapped, atol=1e-12)


def test_apply_unitary_density_consistent_with_vector():
    psi = random_state(3, 2, 3)
    rho = np.outer(psi, psi.conj())
    u = random_unitary(4, 4)
    evolved_vec = apply_unitary_vector(psi, u, [0, 1], 2)
    register = StateBackend(rho, 2)
    register.apply_unitary(u, [0, 1])
    np.testing.assert_allclose(
        register.state, np.outer(evolved_vec, evolved_vec.conj()), atol=1e-12
    )


@pytest.mark.parametrize("pure", [True, False], ids=["vector", "density"])
def test_the_dense_register_holds_its_input_and_never_writes_it(pure):
    # no copy on entry, so every operation must assign a new array; copy()
    # is the one real copy
    psi = random_state(3, 2, 51)
    state = psi if pure else np.outer(psi, psi.conj())
    before = state.copy()
    register = StateBackend(state, 2)
    assert register.state is state
    snapshot = register.copy()
    assert not np.shares_memory(snapshot.state, state)
    register.apply_unitary(random_unitary(4, 52), [0, 1])
    register.compress(random_unitary(4, 53)[:, :2], [1, 2], [1])
    register.uncompress(random_unitary(4, 54)[:, :2], [1, 2], [1])
    register.project_zero_and_drop([0])
    assert state.tobytes() == before.tobytes()
    state[...] = 0.0
    assert snapshot.state.tobytes() == before.tobytes()


def test_backend_projection_keeps_subnormalized_rest():
    backend = StateBackend(random_state(4, 2, 5), 2)
    backend.apply_unitary(random_unitary(4, 6), [0, 1])
    mass_before = backend.success_mass()
    backend.project_zero_and_drop([0])
    assert backend.sites == [1, 2, 3]
    assert backend.success_mass() <= mass_before + 1e-12
    assert backend.state.size == 8


def test_backend_projection_matches_manual_slice():
    psi = random_state(3, 2, 7)
    backend = StateBackend(psi, 2)
    backend.project_zero_and_drop([1])
    expected = psi.reshape(2, 2, 2)[:, 0, :].reshape(-1)
    np.testing.assert_allclose(backend.state, expected, atol=1e-12)


def test_backend_positions_track_dropped_sites():
    backend = StateBackend(random_state(4, 2, 8), 2)
    backend.project_zero_and_drop([0, 2])
    assert backend.sites == [1, 3]
    assert backend.positions([3]) == [1]
    with pytest.raises(errors.BlockOutOfRange):
        backend.positions([0])


def test_backend_rdm_uses_current_positions():
    psi = random_state(3, 2, 9)
    backend = StateBackend(psi, 2)
    backend.project_zero_and_drop([0])
    direct = StateBackend(backend.state, 2)
    np.testing.assert_allclose(
        backend.rdm([1, 2]), direct.rdm([0, 1]), atol=1e-12
    )


def test_backend_mixed_state_projection():
    psi = random_state(3, 2, 10)
    rho = np.outer(psi, psi.conj())
    vec_backend = StateBackend(psi, 2)
    mix_backend = StateBackend(rho, 2)
    vec_backend.project_zero_and_drop([0])
    mix_backend.project_zero_and_drop([0])
    np.testing.assert_allclose(
        mix_backend.state,
        np.outer(vec_backend.state, vec_backend.state.conj()),
        atol=1e-12,
    )
    assert abs(mix_backend.success_mass() - vec_backend.success_mass()) < 1e-12


def test_backend_size_caps():
    with pytest.raises(errors.BackendTooLarge):
        StateBackend(np.zeros(2**20), 2)
    with pytest.raises(errors.DimensionMismatch):
        StateBackend(np.zeros(12), 2)


def test_backend_fidelity_reads_the_held_sites():
    psi = random_state(4, 2, seed=40)
    witness = random_state(2, 2, seed=41)
    pure = StateBackend(psi, 2)
    mixed = StateBackend(np.outer(psi, psi.conj()), 2)
    for register in (pure, mixed):
        register.project_zero_and_drop([0, 2])
    held = psi.reshape(2, 2, 2, 2)[0, :, 0, :].reshape(-1)  # sites 1 and 3 survive
    expected = abs(np.vdot(witness, held)) ** 2
    assert abs(pure.fidelity(witness) - expected) <= 1e-15
    assert abs(mixed.fidelity(witness) - expected) <= 1e-15
    for register in (pure, mixed):
        with pytest.raises(errors.DimensionMismatch):
            register.fidelity(random_state(3, 2, seed=42))


@st.composite
def compress_cases(draw):
    """(d, n, pure, block sites, dropped leading sites, seed), blocks of side <= 81."""
    d = draw(st.sampled_from([2, 3]))
    pure = draw(st.booleans())
    n = draw(st.integers(1, 8 if pure or d == 2 else 6))  # a density operator of side <= 729
    y = draw(st.integers(1, min(n, 6 if d == 2 else 4)))
    support = tuple(sorted(draw(st.permutations(range(n)))[:y]))
    return d, n, pure, support, draw(st.integers(0, y)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=compress_cases())
@example(case=(2, 8, False, (2, 3, 6, 7), 2, 0))  # two separated halves, as in a later layer
@example(case=(2, 16, True, (4, 5, 6, 7, 12, 13, 14, 15), 4, 1))  # n = 16, p = 4, layer 2
def test_compress_matches_the_unitary_then_the_projection(case):
    d, n, pure, support, dropped, seed = case
    rng = np.random.default_rng(seed)
    y, k = len(support), len(support) - dropped
    g = rng.standard_normal((d**y, d**k)) + 1j * rng.standard_normal((d**y, d**k))
    w, _ = np.linalg.qr(g)
    u = unitary_from_isometry(w)
    assert np.max(np.abs(u.conj().T @ u - np.eye(d**y))) <= 1e-12
    assert u.conj().T[:, : d**k].tobytes() == w.tobytes()
    psi = random_state(n, d, seed % 1000)
    labels = [3 * s + 1 for s in support]  # labels are not positions
    register = StateBackend(psi if pure else np.outer(psi, psi.conj()), d, sites=range(1, 3 * n, 3))
    reference = register.copy()
    register.compress(w, labels, labels[:dropped])
    reference.apply_unitary(u, labels)
    reference.project_zero_and_drop(labels[:dropped])
    assert register.sites == reference.sites
    assert register.state.shape == reference.state.shape
    assert np.max(np.abs(register.state - reference.state)) <= 1e-12


def test_compress_refuses_a_mismatched_isometry():
    register = StateBackend(random_state(3, 2, seed=43), 2)
    w = np.eye(4, 2, dtype=complex)
    with pytest.raises(errors.DimensionMismatch):
        register.compress(w, [0, 1], [1])  # drops a trailing site
    with pytest.raises(errors.DimensionMismatch):
        register.compress(w, [0, 1], [])  # keeps two sites, w maps onto one
    with pytest.raises(errors.BlockOutOfRange):
        register.compress(w, [0, 5], [0])


def test_uncompress_refuses_what_no_compress_could_undo():
    dense = StateBackend(random_state(3, 2, seed=47), 2, sites=[0, 2, 3])
    train = MPSBackend(mps.random_mps(mps.StateSpec(n=3, d=2, D=2, seed=47)), sites=[0, 2, 3])
    w = np.eye(4, 2, dtype=complex)
    for register in (dense, train):
        with pytest.raises(errors.DimensionMismatch):
            register.uncompress(w, [1, 2], [2])  # inserts a trailing site
        with pytest.raises(errors.DimensionMismatch):
            register.uncompress(np.eye(8, 2, dtype=complex), [1, 2], [1])  # w maps from one site
        with pytest.raises(errors.BlockOutOfRange):
            register.uncompress(w, [0, 2], [0])  # site 0 is held already
        with pytest.raises(errors.BlockOutOfRange):
            register.uncompress(w, [1, 5], [1])  # site 5 is not held
    with pytest.raises(errors.BlockOutOfRange):
        train.uncompress(w, [4, 2], [4])  # a tensor train keeps its sites in order
    with pytest.raises(errors.DimensionMismatch):
        MPSBackend(mps.random_mps(mps.StateSpec(n=2, d=2, D=2, seed=48)), sites=[3, 1])
    # a grown window of 2**25 entries, over the walk's cap of 2**24, before w is read
    wide = MPSBackend(mps.random_mps(mps.StateSpec(n=1, d=2, D=1, kind="product", seed=49)), [24])
    with pytest.raises(errors.BackendTooLarge, match="window"):
        wide.uncompress(None, list(range(25)), list(range(24)))
    dense.uncompress(w, [1, 2], [1])
    assert dense.sites == [0, 1, 2, 3]


@st.composite
def register_walks(draw, sizes=(8, 6)):
    """(d, n, D, seed, steps): compressions of runs of consecutive held sites.

    Each step is ``(lo, y, dropped, undo)``: compress the ``y`` held sites
    from position ``lo`` on, dropping the leading ``dropped``, and with
    ``undo`` uncompress the block again at once.  ``sizes`` caps the chain
    length for d = 2 and d = 3.
    """
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, sizes[0] if d == 2 else sizes[1]))
    steps, held = [], n
    for _ in range(draw(st.integers(0, 3))):
        y = draw(st.integers(1, min(held, 4 if d == 2 else 3)))
        lo = draw(st.integers(0, held - y))
        dropped = draw(st.integers(0, y - 1))
        undo = draw(st.booleans())
        steps.append((lo, y, dropped, undo))
        held -= 0 if undo else dropped
    return d, n, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)), steps


def walk_isometry(rng, d, y, dropped):
    g = rng.standard_normal((d**y, d ** (y - dropped)))
    return np.linalg.qr(g + 1j * rng.standard_normal(g.shape))[0]


@settings(max_examples=60, deadline=None)
@given(walk=register_walks())
@example(walk=(2, 8, 2, 0, [(0, 4, 2, False), (2, 4, 2, False), (0, 4, 2, False)]))  # n = 8, p = 2
@example(walk=(3, 6, 3, 1, [(1, 3, 2, True), (2, 3, 1, False), (0, 3, 2, True)]))
def test_the_tensor_train_register_matches_the_dense_register(walk):
    # compress forward, then uncompress back to the full chain; a mixed dense
    # register walks along, and each undone step leaves the projector W W^H
    d, n, D, seed, steps = walk
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    psi = mps.expand(state)
    train, dense = MPSBackend(state), StateBackend(psi, d)
    mixed = StateBackend(np.outer(psi, psi.conj()), d)

    def agree():
        assert train.sites == dense.sites == mixed.sites
        assert abs(train.success_mass() - dense.success_mass()) <= 1e-12
        for lo in range(train.n):
            for hi in range(lo + 1, min(lo + 3, train.n) + 1):
                block = train.sites[lo:hi]
                assert np.max(np.abs(train.rdm(block) - dense.rdm(block))) <= 1e-12
        assert np.max(np.abs(train.expand() - dense.state)) <= 1e-12
        assert np.max(np.abs(mixed.state - np.outer(dense.state, dense.state.conj()))) <= 1e-12
        witness = random_state(train.n, d, seed % 997)
        assert abs(train.fidelity(witness) - dense.fidelity(witness)) <= 1e-12

    agree()
    walked = []
    for lo, y, dropped, undo in steps:
        labels = train.sites[lo : lo + y]
        w = walk_isometry(rng, d, y, dropped)
        before = dense.state
        for register in (train, dense, mixed):
            register.compress(w, labels, labels[:dropped])
        agree()
        if undo:
            for register in (train, dense, mixed):
                register.uncompress(w, labels, labels[:dropped])
            agree()
            projected = apply_unitary_vector(before, w @ w.conj().T, dense.positions(labels), d)
            assert np.max(np.abs(dense.state - projected)) <= 1e-12
        else:
            walked.append((w, labels, labels[:dropped]))
    for step in reversed(walked):
        for register in (train, dense, mixed):
            register.uncompress(*step)
        agree()
    assert train.sites == list(range(n))


@settings(max_examples=60, deadline=None)
@given(walk=register_walks(sizes=(12, 12)), widths=st.tuples(st.integers(1, 4), st.integers(0, 4)))
@example(walk=(2, 8, 2, 0, []), widths=(4, 3))  # k = D_l * D_r <= 4 columns for d**p = 8
@example(walk=(3, 12, 3, 1, [(0, 3, 2, False), (4, 3, 1, False)]), widths=(3, 2))
def test_the_marginal_factor_builds_the_top_eigenspace_isometry(walk, widths):
    # the factor path against the register's dense marginal, on every block
    d, n, D, seed, steps = walk
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    train = MPSBackend(state)

    def agree():
        y = min(widths[0], train.n, 4 if d == 2 else 3)
        p = min(widths[1], y)
        for lo in range(train.n - y + 1):
            block = train.sites[lo : lo + y]
            factor, sigma = train.rdm_factor(block), train.rdm(block)
            assert np.max(np.abs(factor @ factor.conj().T - sigma)) <= 1e-12
            assert abs(np.linalg.norm(factor) ** 2 - np.trace(sigma).real) <= 1e-12
            w = build_rank_capped_from_factor(factor, d, 1, p).isometry
            assert w.shape == (d**y, d**p)
            assert np.max(np.abs(w.conj().T @ w - np.eye(d**p))) <= 1e-12
            kept = np.trace(w.conj().T @ sigma @ w).real
            top = np.sum(np.linalg.eigvalsh(sigma)[::-1][: d**p])
            assert abs(kept - top) <= 1e-12 * max(1.0, np.linalg.norm(sigma))

    agree()
    for lo, y, dropped, undo in steps:
        labels = train.sites[lo : lo + y]
        w = walk_isometry(rng, d, y, dropped)
        train.compress(w, labels, labels[:dropped])
        if undo:
            train.uncompress(w, labels, labels[:dropped])
        agree()


def test_the_tensor_train_register_refuses_gaps_and_wide_windows():
    state = mps.random_mps(mps.StateSpec(n=6, d=2, D=2, seed=44))
    register = MPSBackend(state)
    w = np.eye(4, 2, dtype=complex)
    register.compress(w, [2, 3], [2])
    assert register.rdm([1, 3]).shape == (4, 4)  # consecutive once site 2 is gone
    for block in ([0, 3], [2], [5, 6]):  # a gap, a dropped site, off the end
        with pytest.raises(errors.BlockOutOfRange):
            register.rdm(block)
        with pytest.raises(errors.BlockOutOfRange):
            register.rdm_factor(block)
    with pytest.raises(errors.BlockOutOfRange):
        register.compress(w, [4, 3], [4])  # held sites out of order
    with pytest.raises(errors.DimensionMismatch):
        register.compress(np.eye(4, 1, dtype=complex), [0, 1], [0, 1])  # keeps no site
    wide = MPSBackend(mps.random_mps(mps.StateSpec(n=18, d=2, D=1, kind="product", seed=45)))
    with pytest.raises(errors.BackendTooLarge):
        wide.rdm(range(17))  # a window of 2**17 entries, over the cap of 2**16
    ring = mps.random_mps(mps.StateSpec(n=4, d=2, D=2, boundary="periodic", seed=46))
    with pytest.raises(errors.DimensionMismatch):
        MPSBackend(ring)
