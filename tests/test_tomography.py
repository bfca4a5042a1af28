"""Tomography oracle and copy-budget tests."""

import math

import numpy as np
import pytest

from mpslearn import errors, linalg, mps, tomography


def random_pure(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return v / np.linalg.norm(v)


def rdm_by_amplitude_sums(psi, dims, block):
    n = len(dims)
    tensor = psi.reshape(dims)
    order = list(block) + [k for k in range(n) if k not in block]
    moved = np.transpose(tensor, order)
    block_dim = int(np.prod([dims[k] for k in block]))
    mat = moved.reshape(block_dim, -1)
    return mat @ mat.conj().T


def marginal(psi, n, d, block):
    return mps.block_rdm(psi, (d,) * n, block)


def test_exact_mode_returns_true_rdm():
    psi = random_pure(4, 2, 0)
    out = tomography.estimate_block(marginal(psi, 4, 2, [1, 2]), 2, tomography.ExactMode())
    np.testing.assert_allclose(
        out.estimate, rdm_by_amplitude_sums(psi, (2,) * 4, [1, 2]), atol=1e-12
    )
    assert abs(out.success_mass - 1.0) < 1e-12


def test_exact_mode_tracks_subnormalized_mass():
    psi = random_pure(3, 2, 1) * 0.5
    out = tomography.estimate_block(marginal(psi, 3, 2, [0, 1]), 2, tomography.ExactMode())
    assert abs(out.success_mass - 0.25) < 1e-12
    assert abs(np.trace(out.estimate).real - 0.25) < 1e-12


def test_bounded_noise_has_exact_trace_norm_budget():
    psi = random_pure(4, 2, 3)
    truth = rdm_by_amplitude_sums(psi, (2,) * 4, [0, 1])
    for eta in (1e-1, 1e-3, 1e-6):
        mode = tomography.BoundedNoiseMode(eta=eta, seed=7)
        out = tomography.estimate_block(marginal(psi, 4, 2, [0, 1]), 2, mode)
        dist = linalg.trace_norm(out.estimate - truth)
        assert abs(dist - eta) < 1e-12 * max(1.0, eta)
        np.testing.assert_allclose(out.estimate, out.estimate.conj().T, atol=1e-12)


def test_bounded_noise_psd_projection_stays_within_budget():
    psi = random_pure(3, 2, 4)
    truth = rdm_by_amplitude_sums(psi, (2,) * 3, [0, 1, 2])
    eta = 0.05
    mode = tomography.BoundedNoiseMode(eta=eta, seed=11, project_psd=True)
    out = tomography.estimate_block(marginal(psi, 3, 2, [0, 1, 2]), 2, mode)
    assert linalg.trace_norm(out.estimate - truth) <= eta + 1e-12
    assert np.linalg.eigvalsh(out.estimate).min() >= -1e-10


def test_bounded_noise_requires_budget():
    psi = random_pure(3, 2, 5)
    with pytest.raises(errors.BadParameter):
        tomography.estimate_block(marginal(psi, 3, 2, [0]), 2, tomography.BoundedNoiseMode())


def test_bounded_noise_is_seed_deterministic():
    sigma = marginal(random_pure(3, 2, 6), 3, 2, [0, 1])
    a = tomography.estimate_block(sigma, 2, tomography.BoundedNoiseMode(eta=0.01, seed=3))
    b = tomography.estimate_block(sigma, 2, tomography.BoundedNoiseMode(eta=0.01, seed=3))
    c = tomography.estimate_block(sigma, 2, tomography.BoundedNoiseMode(eta=0.01, seed=4))
    np.testing.assert_array_equal(a.estimate, b.estimate)
    assert not np.array_equal(a.estimate, c.estimate)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_finite_sample_estimate_converges(d):
    state = mps.random_mps(mps.StateSpec(n=3, d=d, D=2, seed=17))
    psi = mps.expand(state)
    truth = rdm_by_amplitude_sums(psi, (d,) * 3, [0, 1])
    errors_seen = []
    for copies in (2_000, 20_000, 200_000):
        mode = tomography.FiniteSampleMode(copies=copies, seed=23)
        out = tomography.estimate_block(marginal(psi, 3, d, [0, 1]), d, mode)
        # linear inversion output: Hermitian with the right trace, but small
        # negative eigenvalues are expected at finite sample size
        np.testing.assert_allclose(out.estimate, out.estimate.conj().T, atol=1e-12)
        assert abs(np.trace(out.estimate).real - 1.0) < 1e-9
        errors_seen.append(linalg.trace_norm(out.estimate - truth))
    # one decade of copies should buy roughly sqrt(10) of accuracy
    assert errors_seen[2] < errors_seen[0] / 2.0
    assert errors_seen[2] < 0.02 * d * d


def test_finite_sample_is_seed_deterministic():
    sigma = marginal(random_pure(3, 2, 19), 3, 2, [0, 1])
    a = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(5000, seed=1))
    b = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(5000, seed=1))
    np.testing.assert_array_equal(a.estimate, b.estimate)


def test_finite_sample_respects_dimension_cap():
    sigma = marginal(random_pure(10, 2, 20), 10, 2, list(range(10)))
    with pytest.raises(errors.TooLarge):
        tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(100, seed=0))


def test_budget_rank_constrained_formula():
    mu, D, d, r, eta, delta = 0.7, 2, 2, 3, 0.01, 1e-3
    expected = math.ceil(mu * D**2 * d**r * math.log(1 / delta) / eta**2)
    assert tomography.budget_rank_constrained(mu, D, d, r, eta, delta) == expected
    doubled = tomography.budget_rank_constrained(mu, D, d, r, eta, delta, multiplier=2.0)
    assert doubled == math.ceil(2.0 * mu * D**2 * d**r * math.log(1 / delta) / eta**2)


def test_budget_general_formula():
    mu, d, r, eta, delta = 1.0, 2, 2, 0.05, 1e-2
    expected = math.ceil(mu * d ** (2 * r) * math.log(1 / delta) / eta**2)
    assert tomography.budget_general(mu, d, r, eta, delta) == expected
    # the general budget dominates the rank-constrained one once d**r > D**2
    assert tomography.budget_general(1.0, 2, 6, 0.01, 1e-3) > (
        tomography.budget_rank_constrained(1.0, 2, 2, 6, 0.01, 1e-3)
    )


def test_budget_validation():
    with pytest.raises(errors.BadParameter):
        tomography.budget_general(1.5, 2, 2, 0.01, 1e-3)
    with pytest.raises(errors.BadParameter):
        tomography.budget_general(1.0, 2, 2, -0.01, 1e-3)
    with pytest.raises(errors.BadParameter):
        tomography.budget_general(1.0, 2, 2, 0.01, 1.5)
    with pytest.raises(errors.BadParameter):
        tomography.budget_rank_constrained(1.0, 0, 2, 2, 0.01, 1e-3)

