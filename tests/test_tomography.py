"""Tomography oracle and copy-budget tests."""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpslearn import disentangler, errors, linalg, mps, tomography


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


@pytest.mark.parametrize("copies", [2.5, True, np.float64(1000.0)])
def test_finite_sample_copies_must_be_an_integer(copies):
    # a float or a bool would be truncated by the survivors' binomial draw
    with pytest.raises(errors.BadParameter, match="integer"):
        tomography.FiniteSampleMode(copies)


def test_finite_sample_is_seed_deterministic():
    sigma = marginal(random_pure(3, 2, 19), 3, 2, [0, 1])
    a = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(5000, seed=1))
    b = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(5000, seed=1))
    np.testing.assert_array_equal(a.estimate, b.estimate)


def test_finite_sample_respects_dimension_cap():
    sigma = marginal(random_pure(10, 2, 20), 10, 2, list(range(10)))
    with pytest.raises(errors.TooLarge):
        tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(100, seed=0))


def test_finite_sample_estimate_is_pinned():
    # the draws and the inversion at a fixed seed; rounding keeps the pin off the last bits
    sigma = marginal(random_pure(3, 2, 19), 3, 2, [0, 1])
    out = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(5000, seed=1))
    digest = hashlib.sha256((np.round(out.estimate, 10) + 0.0).tobytes()).hexdigest()
    assert digest == "ba1efa03e20665b7f1dd9dd30eecee62020b09c616d05d5253a28432a561f6f8"


def test_an_eight_qubit_block_converges_with_copies():
    psi = mps.expand(mps.random_mps(mps.StateSpec(n=8, d=2, D=2, seed=41)))
    sigma = np.outer(psi, psi.conj())
    errors_seen = []
    for copies in (10**4, 10**6):
        out = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(copies, seed=5))
        np.testing.assert_allclose(out.estimate, out.estimate.conj().T, atol=1e-12)
        assert abs(np.trace(out.estimate).real - 1.0) < 1e-9
        errors_seen.append(out.error)
    # two decades of copies should buy about a decade of accuracy
    assert errors_seen[1] < errors_seen[0] / 5.0


def test_a_setting_without_shots_reads_as_uniform_outcomes():
    # one survivor for 9 settings of |00>: it lands in (Z, Z) with outcome 00, and the
    # other 8 settings read 1/4 per outcome, so each single-site Z is seen once in 3
    sigma = np.zeros((4, 4), dtype=complex)
    sigma[0, 0] = 1.0
    out = tomography.estimate_block(sigma, 2, tomography.FiniteSampleMode(1, seed=0))
    z, one = np.diag([1.0, -1.0]), np.eye(2)
    expected = (np.kron(one, one) + np.kron(z, one) / 3 + np.kron(one, z) / 3 + np.kron(z, z)) / 4
    assert np.max(np.abs(out.estimate - expected)) <= 1e-12


def stacked_least_squares(freqs, d, sites):
    """The design of every setting's Kronecker basis, and its stacked real least-squares solve."""
    bases = tomography._single_site_bases(d)
    rows = []
    for choice in np.ndindex(*(len(bases),) * sites):
        basis = functools.reduce(np.kron, (bases[c] for c in choice))
        rows.extend(np.outer(v.conj(), v).reshape(-1) for v in basis.T)
    a = np.asarray(rows)
    b = freqs.reshape(-1)
    stacked = np.block([[a.real, -a.imag], [a.imag, a.real]])
    solution = np.linalg.lstsq(stacked, np.concatenate([b, np.zeros_like(b)]), rcond=None)[0]
    half = a.shape[1]
    dim = d**sites
    return a, (solution[:half] + 1j * solution[half:]).reshape(dim, dim)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), sites=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(d=4, sites=2, seed=0)
def test_the_per_site_inversion_is_the_stacked_least_squares_solve(d, sites, seed):
    sites = min(sites, 3 if d == 2 else 2)
    rng = np.random.default_rng(seed)
    rows, inverse = tomography._design(d)
    freqs = rng.random((len(tomography._single_site_bases(d)) ** sites, d**sites))
    freqs /= freqs.sum(axis=1, keepdims=True)
    design, reference = stacked_least_squares(freqs, d, sites)
    assert np.max(np.abs(tomography._per_site(inverse, freqs, sites, d) - reference)) <= 1e-12
    # the same design maps a state to every setting's outcome probabilities
    rho = marginal(random_pure(sites + 1, d, seed), sites + 1, d, list(range(sites)))
    probs = tomography._per_site(rows, rho, sites, d)
    assert np.max(np.abs(probs.reshape(-1) - design @ rho.reshape(-1))) <= 1e-12


@st.composite
def oracle_calls(draw):
    """(sigma, d, mode): a sub-normalized marginal of 1 to 4 sites and an oracle mode."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if d == 2 else 3))
    seed = draw(st.integers(0, 2**32 - 1))
    y = draw(st.integers(1, n))
    mass = draw(st.floats(0.0, 1.0))
    sigma = mass * marginal(random_pure(n, d, seed), n, d, list(range(y)))
    kind = draw(st.sampled_from(["exact", "bounded", "bounded-psd", "finite"]))
    if kind == "exact":
        return sigma, d, tomography.ExactMode()
    if kind == "finite":
        return sigma, d, tomography.FiniteSampleMode(draw(st.integers(1, 10**6)), seed=seed)
    eta = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 1.0, 2.0]))
    return sigma, d, tomography.BoundedNoiseMode(eta, seed, project_psd=kind == "bounded-psd")


@settings(max_examples=80, deadline=None)
@given(call=oracle_calls())
@example(  # the projected estimate lands beyond eta and is pulled back to it
    call=(
        marginal(random_pure(3, 2, 6), 3, 2, [0, 1]),  # rank 2 of 4
        2,
        tomography.BoundedNoiseMode(1e-3, seed=6, project_psd=True),
    )
)
def test_the_oracle_reports_the_trace_norm_error_of_its_estimate(call):
    sigma, d, mode = call
    outcome = tomography.estimate_block(sigma, d, mode)
    assert abs(outcome.error - linalg.trace_norm(outcome.estimate - sigma)) <= 1e-12
    if isinstance(mode, tomography.BoundedNoiseMode):
        assert outcome.error <= mode.eta * (1.0 + 1e-12)


def test_budget_rank_constrained_formula():
    mu, D, d, r, eta, delta = 0.7, 2, 2, 3, 0.01, 1e-3
    expected = math.ceil(mu * D**2 * d**r * math.log(1 / delta) / eta**2)
    assert tomography.budget_rank_constrained(mu, D, d, r, eta, delta) == expected


def test_budget_general_formula():
    mu, d, r, eta, delta = 1.0, 2, 2, 0.05, 1e-2
    expected = math.ceil(mu * d ** (2 * r) * math.log(1 / delta) / eta**2)
    assert tomography.budget_general(mu, d, r, eta, delta) == expected
    # the general budget dominates the rank-constrained one once d**r > D**2
    assert tomography.budget_general(1.0, 2, 6, 0.01, 1e-3) > (
        tomography.budget_rank_constrained(1.0, 2, 2, 6, 0.01, 1e-3)
    )


@pytest.mark.parametrize("eta", [True, np.True_, float("nan"), -0.1, 2.5])
def test_bounded_noise_eta_is_a_number_in_0_to_2(eta):
    # 0 <= True <= 2 holds, so a range check alone passes a bool
    with pytest.raises(errors.BadParameter):
        tomography.BoundedNoiseMode(eta=eta)


def test_budget_validation():
    with pytest.raises(errors.BadParameter):
        tomography.budget_general(1.5, 2, 2, 0.01, 1e-3)
    with pytest.raises(errors.BadParameter):
        tomography.budget_general(1.0, 2, 2, -0.01, 1e-3)
    with pytest.raises(errors.BadParameter):
        tomography.budget_general(1.0, 2, 2, 0.01, 1.5)
    with pytest.raises(errors.BadParameter):
        tomography.budget_rank_constrained(1.0, 0, 2, 2, 0.01, 1e-3)
    for eta in (float("nan"), float("inf")):
        with pytest.raises(errors.BadParameter):
            tomography.budget_general(1.0, 2, 2, eta, 1e-3)
        with pytest.raises(errors.BadParameter):
            tomography.budget_rank_constrained(1.0, 2, 2, 2, eta, 1e-3)



def _near_hermitian_densities(k, side, skew, rng):
    """``k`` density matrices of one side, each entry moved off Hermitian by up to ``skew``."""
    a = rng.standard_normal((k, side, side)) + 1j * rng.standard_normal((k, side, side))
    rho = a @ a.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    return rho + skew * rng.uniform(-1.0, 1.0, rho.shape)


def _same_bits(stacked, members):
    return np.asarray(stacked).tobytes() == np.asarray(members).tobytes()


def _same_outcomes(stacked, members):
    fields = ("estimate", "success_mass", "error")
    return all(
        _same_bits(getattr(stacked, f), [getattr(m, f) for m in members]) for f in fields
    )


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 6),
    side=st.integers(2, 130),
    skew=st.sampled_from([0.0, 1e-12, 4e-11]),
    eta=st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
    sites=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(k=3, side=129, skew=4e-11, eta=2.0, sites=3, seed=1)
@example(k=1, side=130, skew=1e-12, eta=0.5, sites=1, seed=2)
def test_a_stack_gives_each_members_bits(k, side, skew, eta, sites, seed):
    # sides past 128 cross the hermiticity check's tile; a side-d estimate is
    # one site of dimension d = side, so the builder keeps all d**1 columns
    rng = np.random.default_rng(seed)
    stack = _near_hermitian_densities(k, side, skew, rng)
    members = list(stack)
    assert _same_bits(linalg.require_hermitian(stack), [linalg.require_hermitian(m) for m in members])
    assert _same_bits(linalg.trace_norm(stack), [linalg.trace_norm(m) for m in members])
    rank = int(rng.integers(1, side + 1))
    built = disentangler.build_rank_capped(stack, side, rank, 1)
    alone = [disentangler.build_rank_capped(m, side, rank, 1) for m in members]
    assert _same_bits(built.isometry, [dz.isometry for dz in alone])
    assert _same_bits(built.selected, [dz.selected for dz in alone])

    noisy = [
        [tomography.BoundedNoiseMode(eta=eta, seed=seed + i, project_psd=psd) for i in range(k)]
        for psd in (False, True)
    ]
    for modes in [[tomography.ExactMode()] * k, *noisy]:
        outcome = tomography.estimate_block(stack, side, modes)
        each = [tomography.estimate_block(m, side, mode) for m, mode in zip(members, modes)]
        assert _same_outcomes(outcome, each)
    sampled = _near_hermitian_densities(k, 2**sites, 0.0, rng)
    modes = [tomography.FiniteSampleMode(copies=10**4, seed=seed + i) for i in range(k)]
    outcome = tomography.estimate_block(sampled, 2, modes)
    each = [tomography.estimate_block(m, 2, mode) for m, mode in zip(sampled, modes)]
    assert _same_outcomes(outcome, each)
