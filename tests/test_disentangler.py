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
        u = disentangler.unitary_from_isometry(dz.isometry)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10
        assert dz.isometry.shape == (16, 4)
        assert dz.selected.shape == (16, 4)
        assert np.shares_memory(dz.selected, dz.isometry)  # a view, never a second copy
        # selected columns span the top eigenspace of the estimate
        values, vectors = linalg.hermitian_eig(sigma)
        np.testing.assert_allclose(dz.selected, vectors[:, :4], atol=1e-12)


def test_rank_capped_rotates_selection_into_kept_sector():
    rng = np.random.default_rng(1)
    sigma = random_low_rank_density(16, 3, rng)
    dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
    rotated = disentangler.unitary_from_isometry(dz.isometry) @ dz.selected
    # kept sector = leading qudits read zero = the first d**p coordinates
    assert np.max(np.abs(rotated[dz.isometry.shape[1] :, :])) < 1e-10


def test_kept_sector_contains_selected_subspace():
    rng = np.random.default_rng(2)
    sigma = random_low_rank_density(16, 4, rng)
    dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
    pi_selected = dz.selected @ dz.selected.conj().T
    kept_rows = np.zeros((16, 16))
    kept = dz.isometry.shape[1]
    kept_rows[:kept, :kept] = np.eye(kept)
    u = disentangler.unitary_from_isometry(dz.isometry)
    pi_kept = u.conj().T @ kept_rows @ u
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
    assert low.isometry.shape == (4, 4)
    high = disentangler.build_threshold(spectrum, 2, 0.1)
    assert high.selected.shape[1] == 2
    assert high.isometry.shape == (4, 2)


def test_threshold_snaps_near_ties_downward():
    # an eigenvalue within 1e-12 of eta counts as below it
    sigma = np.diag([0.9, 0.1 + 5e-13, 0.0, 0.0])
    dz = disentangler.build_threshold(sigma, 2, 0.1)
    assert dz.selected.shape[1] == 1
    assert dz.isometry.shape == (4, 1)


def test_threshold_empty_selection_keeps_pipeline_total():
    dz = disentangler.build_threshold(np.eye(16) / 16.0, 2, 0.1)
    assert dz.selected.shape[1] == 0
    assert dz.isometry.shape == (16, 1)
    u = disentangler.unitary_from_isometry(dz.isometry)
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10


def test_threshold_single_selection_needs_no_qudits():
    sigma = np.diag([0.97, 0.01, 0.01, 0.01])
    dz = disentangler.build_threshold(sigma, 2, 0.5)
    assert dz.selected.shape[1] == 1
    assert dz.isometry.shape == (4, 1)


def test_threshold_isometry_spans_the_fewest_qudits_that_hold_its_selection():
    rng = np.random.default_rng(16)
    sigma = random_low_rank_density(16, 16, rng)
    dz = disentangler.build_threshold(sigma, 2, 0.1)
    m = dz.selected.shape[1]
    assert m >= 1 and dz.isometry.shape == (16, 2 ** (m - 1).bit_length())


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
            assert np.linalg.norm(rejected, 2) <= 2 * eta + 1e-12


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
    np.testing.assert_allclose(
        disentangler.unitary_from_isometry(dz.isometry), np.eye(4), atol=1e-12
    )


def test_construction_is_deterministic():
    rng = np.random.default_rng(7)
    sigma = random_low_rank_density(16, 4, rng)
    a = disentangler.build_rank_capped(sigma, 2, 4, 2)
    b = disentangler.build_rank_capped(sigma.copy(), 2, 4, 2)
    np.testing.assert_array_equal(
        disentangler.unitary_from_isometry(a.isometry),
        disentangler.unitary_from_isometry(b.isometry),
    )
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
    y=st.integers(6, 8),  # sides 64 to 256
    p_drop=st.integers(0, 4),
    rank_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_capped_low_rank_path_keeps_the_estimate(y, p_drop, rank_frac, seed):
    p = y - 1 - p_drop
    m = 2**p
    rank = max(1, round(rank_frac * m))
    sigma = gapped_density(2**y, rank, seed)
    dz = disentangler.build_rank_capped(sigma, 2, rank, p)
    u = disentangler.unitary_from_isometry(dz.isometry)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**y))) <= 1e-12
    rotated = u @ sigma @ u.conj().T
    assert float(np.real(np.trace(rotated[m:, m:]))) <= 1e-12
    if rank == m:  # gapped: the kept sector is the top-m eigenspace
        vectors = np.linalg.eigh(sigma)[1][:, -m:]
        kept = u[:m].conj().T
        assert np.linalg.norm(kept @ kept.conj().T - vectors @ vectors.conj().T) <= 1e-10
    again = disentangler.build_rank_capped(sigma.copy(), 2, rank, p)
    assert disentangler.unitary_from_isometry(again.isometry).tobytes() == u.tobytes()
    assert again.selected.tobytes() == dz.selected.tobytes()


def test_rank_capped_falls_back_to_the_full_eigenbasis():
    # full-rank, signed and small estimates alike: hermitian_eig's leading columns
    rng = np.random.default_rng(9)
    full_rank = perturb_trace_norm(gapped_density(64, 8, seed=10), 1e-3, rng)
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    negative = (q * np.r_[0.6, 0.5, -0.1, np.zeros(61)]) @ q.conj().T
    for sigma in (full_rank, negative):
        dz = disentangler.build_rank_capped(sigma, 2, 4, 3)
        assert dz.isometry.tobytes() == linalg.hermitian_eig(sigma)[1][:, :8].tobytes()
    sigma = gapped_density(32, 4, seed=11)
    dz = disentangler.build_rank_capped(sigma, 2, 4, 2)
    assert dz.isometry.tobytes() == linalg.hermitian_eig(sigma)[1][:, :4].tobytes()


@pytest.mark.parametrize(
    "sigma, p",
    [
        (gapped_density(256, 16, seed=12), 4),  # of rank 16 = d**p
        # of full rank
        (perturb_trace_norm(gapped_density(64, 8, seed=13), 1e-3, np.random.default_rng(14)), 3),
        (gapped_density(32, 4, seed=15), 2),  # a small side
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


def test_the_factor_builder_completes_a_rank_deficient_factor(monkeypatch):
    # k = 2 columns for a kept dimension of 8: two singular vectors, and six
    # completed from the null space of a 2 x 8 matrix, on the first 8 rows,
    # with no seeded draw, no QR and no hermiticity check
    rng = np.random.default_rng(16)
    factor = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("the factor builder draws nothing, takes no QR, checks no Gram matrix")

    for module, name in ((np.random, "default_rng"), (np.linalg, "qr"), (linalg, "require_hermitian")):
        monkeypatch.setattr(module, name, refuse)
    dz = disentangler.build_rank_capped_from_factor(factor, 2, 4, 3)
    w = dz.isometry
    assert w.shape == (16, 8) and dz.selected.shape == (16, 4)
    assert not np.any(w[8:, 2:])
    assert np.max(np.abs(w.conj().T @ w - np.eye(8))) <= 1e-12
    range_projector = w[:, :2] @ w[:, :2].conj().T
    assert np.max(np.abs(range_projector @ factor - factor)) <= 1e-12
    sigma = factor @ factor.conj().T
    assert np.max(np.abs(w @ (w.conj().T @ sigma) - sigma)) <= 1e-12
    again = disentangler.build_rank_capped_from_factor(factor.copy(), 2, 4, 3)
    assert again.isometry.tobytes() == w.tobytes()
    with pytest.raises(errors.RankCapExceedsDim):
        disentangler.build_rank_capped_from_factor(factor, 2, 9, 3)


def test_the_factor_builder_draws_each_completion_shape_once(monkeypatch):
    # the completion depends on the factor alone: no build of any shape draws
    # a random matrix, and the first one is the null space of U[:16]^H itself
    rng = np.random.default_rng(17)
    factor = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("the factor builder draws a completion")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    dz = disentangler.build_rank_capped_from_factor(factor, 2, 4, 4)
    u = np.linalg.svd(factor, full_matrices=False)[0]
    w = np.zeros((64, 16), dtype=complex)
    w[:, :4] = u
    w[:16, 4:] = np.linalg.svd(u[:16].conj().T)[2][4:].conj().T
    assert dz.isometry.tobytes() == linalg._fix_phases(w).tobytes()
    again = disentangler.build_rank_capped_from_factor(factor.copy() * 2.0, 2, 4, 4)
    assert again.isometry.shape == (64, 16)


@st.composite
def _factors(draw):
    """``(factor, d, p)``: ``k`` in 0..d**p columns of rank up to ``k``, on all or some rows."""
    d = draw(st.sampled_from([2, 3]))
    y = draw(st.integers(1, 5 if d == 2 else 3))
    p = draw(st.integers(0, y))
    k = draw(st.integers(0, d**p))
    rank = draw(st.integers(0, k))
    rows = draw(st.sampled_from(["all", "past the kept rows", "kept rows only"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((d**y, rank)) + 1j * rng.standard_normal((d**y, rank))
    factor = a @ (rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k)))
    if rows == "past the kept rows":
        factor[: d**p] = 0.0
    elif rows == "kept rows only":
        factor[d**p :] = 0.0
    return factor, d, p


@settings(max_examples=200, deadline=None)
@given(case=_factors())
def test_the_factor_builder_keeps_the_range_and_completes_it_orthogonally(case):
    factor, d, p = case
    k, m = factor.shape[1], d**p
    dz = disentangler.build_rank_capped_from_factor(factor, d, 1, p)
    w = dz.isometry
    scale = max(1.0, np.max(np.abs(factor), initial=0.0))
    assert w.shape == (factor.shape[0], m)
    assert np.max(np.abs(w.conj().T @ w - np.eye(m))) <= 1e-12
    head = w[:, :k]
    assert np.max(np.abs(head @ (head.conj().T @ factor) - factor), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(w[:, k:].conj().T @ factor), initial=0.0) <= 1e-12 * scale
    again = disentangler.build_rank_capped_from_factor(factor.copy(), d, 1, p)
    assert again.isometry.tobytes() == w.tobytes()
    assert again.selected.tobytes() == dz.selected.tobytes()
