"""Dense register simulation tests."""

import numpy as np
import pytest

from mpslearn import errors
from mpslearn.backend import StateBackend, apply_unitary_density, apply_unitary_vector


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
    evolved_rho = apply_unitary_density(rho, u, [0, 1], 2)
    np.testing.assert_allclose(
        evolved_rho, np.outer(evolved_vec, evolved_vec.conj()), atol=1e-12
    )


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
