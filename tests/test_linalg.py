"""Dense linear-algebra helper tests."""

import numpy as np
import pytest

from mpslearn import errors, linalg


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unit_vector(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_hermitian_eig_reconstructs_and_sorts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 12))
        h = random_hermitian(dim, rng)
        values, vectors = linalg.hermitian_eig(h)
        assert np.all(np.diff(values) <= 1e-12)
        rebuilt = (vectors * values) @ vectors.conj().T
        np.testing.assert_allclose(rebuilt, h, atol=1e-10)
        np.testing.assert_allclose(
            vectors.conj().T @ vectors, np.eye(dim), atol=1e-12
        )


def test_hermitian_eig_is_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian(9, rng)
    v1, u1 = linalg.hermitian_eig(h)
    v2, u2 = linalg.hermitian_eig(h.copy())
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(u1, u2)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(errors.NonSquare):
        linalg.hermitian_eig(np.ones((2, 3)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(errors.NonHermitian):
        linalg.hermitian_eig(skew)


def test_fix_phase_pins_leading_entry():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = random_unit_vector(int(rng.integers(2, 16)), rng)
        fixed = linalg.fix_phase(v)
        lead = fixed[np.argmax(np.abs(fixed))]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0
        # same ray, same output
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        np.testing.assert_allclose(linalg.fix_phase(phase * v), fixed, atol=1e-12)


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        expected = np.linalg.svd(a, compute_uv=False).sum()
        assert abs(linalg.trace_norm(a) - expected) < 1e-10


def test_operator_norm_matches_top_singular_value():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    expected = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(linalg.operator_norm(a) - expected) < 1e-10


def test_partial_trace_product_state():
    rng = np.random.default_rng(13)
    dims = (2, 3, 2)
    factors = [random_density(d, rng) for d in dims]
    rho = np.kron(np.kron(factors[0], factors[1]), factors[2])
    for keep in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
        reduced = linalg.partial_trace(rho, dims, keep)
        expected = factors[keep[0]]
        for k in keep[1:]:
            expected = np.kron(expected, factors[k])
        np.testing.assert_allclose(reduced, expected, atol=1e-12)
        assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_partial_trace_preserves_trace_and_rejects_bad_dims():
    rng = np.random.default_rng(17)
    rho = random_density(12, rng)
    reduced = linalg.partial_trace(rho, (3, 4), (0,))
    assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12
    with pytest.raises(errors.DimensionMismatch):
        linalg.partial_trace(rho, (3, 5), (0,))


def test_gram_schmidt_extend_completes_unitary():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(3, 12))
        k = int(rng.integers(1, dim))
        raw = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, _ = np.linalg.qr(raw)
        cols = [q[:, i] for i in range(k)]
        u = linalg.gram_schmidt_extend(cols, dim)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(u[:, :k], q[:, :k], atol=1e-12)


def test_gram_schmidt_extend_rejects_dependent_input():
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(errors.NotOrthonormal):
        linalg.gram_schmidt_extend([v, v], 3)


def test_numerical_rank_detects_constructed_rank():
    rng = np.random.default_rng(29)
    for _ in range(10):
        dim = int(rng.integers(4, 16))
        rank = int(rng.integers(1, dim))
        rho = random_density(dim, rng, rank=rank)
        noise = random_hermitian(dim, rng) * 1e-14
        assert linalg.numerical_rank(rho + noise, tol=1e-10) == rank


def test_project_psd_clips_negative_part():
    rng = np.random.default_rng(31)
    h = random_hermitian(6, rng)
    psd = linalg.project_psd(h)
    values = np.linalg.eigvalsh(psd)
    assert values.min() >= -1e-12
    already = random_density(6, rng)
    np.testing.assert_allclose(linalg.project_psd(already), already, atol=1e-12)


def test_non_finite_matrices_are_rejected():
    bad = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(errors.NonHermitian):
        linalg.require_hermitian(bad)
    with pytest.raises(errors.NonHermitian):
        linalg.hermitian_eig(bad)
    with pytest.raises(errors.NonHermitian):
        linalg.hermitian_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))
