"""Disentangling-unitary construction tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpslearn import disentangler, errors, linalg


def random_low_rank_density(dim, rank, rng):
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def perturb_trace_norm(sigma, eta, rng):
    """Traceless Hermitian perturbation with trace norm exactly eta."""
    dim = sigma.shape[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    delta = (g + g.conj().T) / 2
    delta -= np.trace(delta) / dim * np.eye(dim)
    delta *= eta / linalg.trace_norm(delta)
    return sigma + delta


def test_rank_capped_unitarity_and_selection():
    rng = np.random.default_rng(0)
    for trial in range(10):
        sigma = random_low_rank_density(16, 4, rng)
        dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
        u = dz.unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10
        assert dz.kept_qudits == 2 and dz.kept_dim == 4
        assert dz.selected.shape == (16, 4)
        # selected columns span the top eigenspace of the estimate
        values, vectors = linalg.hermitian_eig(sigma)
        np.testing.assert_allclose(dz.selected, vectors[:, :4], atol=1e-12)


def test_rank_capped_rotates_selection_into_kept_sector():
    rng = np.random.default_rng(1)
    sigma = random_low_rank_density(16, 3, rng)
    dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
    rotated = dz.unitary @ dz.selected
    # kept sector = leading qudits read zero = first kept_dim coordinates
    assert np.max(np.abs(rotated[dz.kept_dim :, :])) < 1e-10


def test_kept_sector_contains_selected_subspace():
    rng = np.random.default_rng(2)
    sigma = random_low_rank_density(16, 4, rng)
    dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
    pi_selected = dz.selected @ dz.selected.conj().T
    kept_rows = np.zeros((16, 16))
    kept_rows[: dz.kept_dim, : dz.kept_dim] = np.eye(dz.kept_dim)
    pi_kept = dz.unitary.conj().T @ kept_rows @ dz.unitary
    np.testing.assert_allclose(pi_kept @ pi_selected, pi_selected, atol=1e-10)


def test_rank_cap_must_fit_kept_dimension():
    rng = np.random.default_rng(3)
    sigma = random_low_rank_density(16, 4, rng)
    with pytest.raises(errors.RankCapExceedsDim):
        disentangler.build_rank_capped(sigma, 2, 5, 2)


def test_rank_capped_projection_error_bound():
    # keeping the top eigenvectors of an eta-close estimate loses at most
    # 2 * eta of the true state's mass
    rng = np.random.default_rng(4)
    for eta in (1e-1, 1e-2, 1e-3):
        for trial in range(20):
            sigma = random_low_rank_density(16, 4, rng)
            sigma_hat = perturb_trace_norm(sigma, eta, rng)
            dz = disentangler.build_rank_capped(sigma_hat, 2, 4, 2)
            pi = dz.selected @ dz.selected.conj().T
            lost = float(np.real(np.trace((np.eye(16) - pi) @ sigma)))
            assert lost <= 2 * eta + 1e-12


def test_threshold_counts_strictly_above_eta():
    spectrum = np.diag([0.6, 0.3, 0.08, 0.02])
    low = disentangler.build_threshold(spectrum, 2, 0.05)
    assert low.selected.shape[1] == 3
    assert low.kept_qudits == 2
    high = disentangler.build_threshold(spectrum, 2, 0.1)
    assert high.selected.shape[1] == 2
    assert high.kept_qudits == 1


def test_threshold_snaps_near_ties_downward():
    # an eigenvalue within 1e-12 of eta counts as below it
    sigma = np.diag([0.9, 0.1 + 5e-13, 0.0, 0.0])
    dz = disentangler.build_threshold(sigma, 2, 0.1)
    assert dz.selected.shape[1] == 1
    assert dz.kept_qudits == 0


def test_threshold_empty_selection_keeps_pipeline_total():
    dz = disentangler.build_threshold(np.eye(16) / 16.0, 2, 0.1)
    assert dz.selected.shape[1] == 0
    assert dz.kept_qudits == 0 and dz.kept_dim == 1
    u = dz.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10


def test_threshold_single_selection_needs_no_qudits():
    sigma = np.diag([0.97, 0.01, 0.01, 0.01])
    dz = disentangler.build_threshold(sigma, 2, 0.5)
    assert dz.selected.shape[1] == 1
    assert dz.kept_qudits == 0


def test_threshold_kept_count_beats_inverse_eta():
    rng = np.random.default_rng(5)
    for trial in range(100):
        dim = int(rng.choice([4, 8, 16]))
        sigma = random_low_rank_density(dim, dim, rng)
        for eta in (0.3, 0.1, 0.03):
            dz = disentangler.build_threshold(sigma, 2, eta)
            assert dz.selected.shape[1] < 1.0 / eta


def test_threshold_projection_operator_norm_bound():
    rng = np.random.default_rng(6)
    for eta in (1e-1, 1e-2):
        for trial in range(20):
            sigma = random_low_rank_density(16, 4, rng)
            sigma_hat = perturb_trace_norm(sigma, eta, rng)
            dz = disentangler.build_threshold(sigma_hat, 2, eta)
            pi = dz.selected @ dz.selected.conj().T
            rejected = (np.eye(16) - pi) @ sigma @ (np.eye(16) - pi)
            assert linalg.operator_norm(rejected) <= 2 * eta + 1e-12


def test_threshold_validates_input():
    with pytest.raises(errors.BadParameter):
        disentangler.build_threshold(np.eye(4) / 4, 2, 0.0)
    with pytest.raises(errors.BadParameter):
        disentangler.build_threshold(np.eye(4), 2, 0.1)  # trace 4 > 1
    with pytest.raises(errors.NonHermitian):
        disentangler.build_threshold(np.array([[0.5, 1.0], [0.0, 0.5]]), 2, 0.1)


def test_sorted_diagonal_estimate_gives_identity_unitary():
    sigma = np.diag([0.6, 0.3, 0.08, 0.02]).astype(complex)
    dz = disentangler.build_threshold(sigma, 2, 0.1)
    np.testing.assert_allclose(dz.unitary, np.eye(4), atol=1e-12)


def test_construction_is_deterministic():
    rng = np.random.default_rng(7)
    sigma = random_low_rank_density(16, 4, rng)
    a = disentangler.build_rank_capped(sigma, 2, 4, 2)
    b = disentangler.build_rank_capped(sigma.copy(), 2, 4, 2)
    np.testing.assert_array_equal(a.unitary, b.unitary)
    np.testing.assert_array_equal(a.selected, b.selected)


def test_threshold_rejects_non_finite_estimate():
    sigma = np.diag([0.5, 0.5, 0.0, np.nan]).astype(complex)
    with pytest.raises(errors.NonHermitian):
        disentangler.build_threshold(sigma, 2, 0.1)


def gapped_density(dim, rank, seed):
    """Trace-one density matrix of the given rank, eigenvalues within a factor 2."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    values = rng.uniform(0.5, 1.0, rank)
    return (q[:, :rank] * (values / values.sum())) @ q[:, :rank].conj().T


@settings(max_examples=30, deadline=None)
@given(
    y=st.integers(6, 8),  # sides 64 to 256, all at least LOW_RANK_MIN_SIDE
    p_drop=st.integers(0, 4),
    rank_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_capped_low_rank_path_keeps_the_estimate(y, p_drop, rank_frac, seed):
    p = y - 1 - p_drop
    m = 2**p
    rank = max(1, round(rank_frac * m))
    sigma = gapped_density(2**y, rank, seed)
    assert linalg.top_eigenpairs(sigma, m) is not None  # the path under test
    dz = disentangler.build_rank_capped(sigma, 2, rank, p)
    u = dz.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**y))) <= 1e-12
    rotated = u @ sigma @ u.conj().T
    assert float(np.real(np.trace(rotated[m:, m:]))) <= 1e-12
    if rank == m:  # gapped: the kept sector is the top-m eigenspace
        vectors = np.linalg.eigh(sigma)[1][:, -m:]
        kept = u[:m].conj().T
        assert np.linalg.norm(kept @ kept.conj().T - vectors @ vectors.conj().T) <= 1e-10
    again = disentangler.build_rank_capped(sigma.copy(), 2, rank, p)
    assert again.unitary.tobytes() == u.tobytes()
    assert again.selected.tobytes() == dz.selected.tobytes()


def test_rank_capped_needs_no_full_eigensolver(monkeypatch):
    eigh = np.linalg.eigh

    def small_only(a):
        if a.shape[0] >= 256:
            raise AssertionError("a full 256 x 256 eigensolve is not needed")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", small_only)
    sigma = gapped_density(256, 16, seed=8)
    dz = disentangler.build_rank_capped(sigma, 2, 16, 4)
    u = dz.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(256))) <= 1e-12
    assert float(np.real(np.trace((u @ sigma @ u.conj().T)[16:, 16:]))) <= 1e-12
    with pytest.raises(AssertionError, match="not needed"):
        linalg.hermitian_eig(sigma)


def test_rank_capped_falls_back_to_the_full_eigenbasis(monkeypatch):
    rng = np.random.default_rng(9)
    full_rank = perturb_trace_norm(gapped_density(64, 8, seed=10), 1e-3, rng)
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    negative = (q * np.r_[0.6, 0.5, -0.1, np.zeros(61)]) @ q.conj().T
    for sigma in (full_rank, negative):
        assert linalg.top_eigenpairs(sigma, 8) is None
        dz = disentangler.build_rank_capped(sigma, 2, 4, 3)
        assert dz.unitary.tobytes() == linalg.hermitian_eig(sigma)[1].conj().T.tobytes()

    def refuse(*args):
        raise AssertionError("blocks below LOW_RANK_MIN_SIDE take the full eigenbasis")

    monkeypatch.setattr(linalg, "_top_eigenpairs", refuse)
    sigma = gapped_density(32, 4, seed=11)
    dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
    assert dz.unitary.tobytes() == linalg.hermitian_eig(sigma)[1].conj().T.tobytes()


@pytest.mark.parametrize(
    "sigma, p",
    [
        (gapped_density(256, 16, seed=12), 4),  # low-rank path
        (perturb_trace_norm(gapped_density(64, 8, seed=13), 1e-3, np.random.default_rng(14)), 3),
        (gapped_density(32, 4, seed=15), 2),  # below LOW_RANK_MIN_SIDE
    ],
    ids=["low-rank", "fallback", "small"],
)
def test_rank_capped_validates_its_estimate_once(monkeypatch, sigma, p):
    calls = []
    require_hermitian = linalg.require_hermitian
    monkeypatch.setattr(
        linalg, "require_hermitian", lambda *a, **k: calls.append(1) or require_hermitian(*a, **k)
    )
    disentangler.build_rank_capped(sigma, 2, 4, p)
    assert len(calls) == 1
