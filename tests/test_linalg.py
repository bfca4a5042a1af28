"""Dense linear-algebra helper tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_require_hermitian_matches_two_transpose_expression():
    # signed zeros and a real input pin the sign of every zero, which a
    # mirrored conj(upper triangle) would flip; a Fortran-ordered input gives
    # the same bytes, and every result is C-contiguous
    rng = np.random.default_rng(13)
    for dim in (1, 2, 5, 16, 33, 63, 64, 65, 130, 200):
        h = random_hermitian(dim, rng)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = h + 1e-12 * noise
        zeros = rng.random((dim, dim)) < 0.1
        zeros |= zeros.T
        a[zeros] = rng.choice([0.0, -0.0], zeros.sum()) + 1j * rng.choice([0.0, -0.0], zeros.sum())
        old = (a + a.conj().T) / 2.0
        for tol in (linalg.HERMITIAN_TOL, np.inf):
            for given in (a, np.asfortranarray(a)):
                out = linalg.require_hermitian(given, tol=tol)
                assert out.flags.c_contiguous and out.tobytes() == old.tobytes()
        real = rng.standard_normal((dim, dim))
        real = real + real.T
        expected = ((real + real.T) / 2.0).astype(complex)
        assert linalg.require_hermitian(real).tobytes() == expected.tobytes()
        for i, j in {(0, 0), (dim - 1, dim - 1), (0, dim - 1), (dim - 1, 0), (dim // 2, dim // 3)}:
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
                b = a.copy()
                b[i, j] = bad
                for tol in (linalg.HERMITIAN_TOL, np.inf):
                    with pytest.raises(errors.NonHermitian, match="non-finite"):
                        linalg.require_hermitian(b, tol=tol)
    skew = random_hermitian(130, rng)
    skew[3, 100] += 1e-9
    with pytest.raises(errors.NonHermitian, match="deviates"):
        linalg.require_hermitian(skew)
    assert linalg.require_hermitian(skew, tol=np.inf).tobytes() == ((skew + skew.conj().T) / 2.0).tobytes()
    # finite entries whose difference overflows: an infinite defect, not a non-finite entry
    big = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(errors.NonHermitian, match="deviates"):
            linalg.require_hermitian(big)
        assert linalg.require_hermitian(big, tol=np.inf).tobytes() == np.zeros((2, 2), complex).tobytes()


TILE = linalg._TILE


@settings(max_examples=80, deadline=None)
@given(
    # whole, split and one-entry trailing tiles at both tile edges
    dim=st.sampled_from([1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE - 1, 2 * TILE, 2 * TILE + 1]),
    level=st.sampled_from([2**-0.5, 0.7, 1.0]),
    spread=st.floats(0.999, 1.001),
    background=st.sampled_from([0.0, 0.3, 0.69]),
    tol=st.sampled_from([linalg.HERMITIAN_TOL, 7e-11]),
    seed=st.integers(0, 2**32 - 1),
)
def test_require_hermitian_accepts_exactly_within_tol(dim, level, spread, background, tol, seed):
    # one defect about tol / sqrt(2), 0.7 tol or tol, on a background of
    # small defects: the componentwise bound passes a tile only where the
    # exact largest |a - a^H| entry is within tol, and a rejection reports it
    rng = np.random.default_rng(seed)
    a = random_hermitian(dim, rng)
    noise = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    a += 0.5 * background * tol * noise
    i, j = rng.integers(0, dim, 2)
    a[i, j] += level * spread * tol * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    reference = np.max(np.abs(a - a.conj().T))
    if reference <= tol:
        assert linalg.require_hermitian(a, tol).tobytes() == ((a + a.conj().T) / 2.0).tobytes()
    else:
        with pytest.raises(errors.NonHermitian, match=f"by {reference:.3e} > "):
            linalg.require_hermitian(a, tol)


def test_require_hermitian_finds_non_finite_entries_at_tile_edges():
    rng = np.random.default_rng(29)
    a = random_hermitian(2 * TILE + 1, rng)
    edges = (0, TILE - 1, TILE, 2 * TILE - 1, 2 * TILE)
    for i, j in [(i, j) for i in edges for j in edges]:
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)):
            b = a.copy()
            b[i, j] = bad
            for tol in (linalg.HERMITIAN_TOL, 0.0, np.inf):
                with pytest.raises(errors.NonHermitian, match="non-finite"):
                    linalg.require_hermitian(b, tol=tol)


def test_hermitian_check_makes_no_full_size_temporary():
    # one 128 x 128 scratch tile is 256 KiB of a 16 MiB input
    a = _top_case(1024, "rank1-floor", 31)
    tracemalloc.start()
    try:
        linalg._hermitian_input(a, linalg.HERMITIAN_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def _top_case(dim, kind, seed):
    """A Hermitian test matrix: random, tied-top, rank-1 plus floor or frobenius-edge."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_hermitian(dim, rng)
    if kind == "tied-top":
        q, _ = np.linalg.qr(random_hermitian(dim, rng))
        values = np.sort(rng.uniform(-2.0, 1.0, dim))[::-1]
        values[: min(dim, int(rng.integers(2, 4)))] = 1.5
        return (q * values) @ q.conj().T
    if kind == "frobenius-edge":
        # top eigenvalue 1 and the rest of the spectrum with a squared sum
        # within 1e-3 of 1, so top^2 is about half the squared Frobenius norm
        q, _ = np.linalg.qr(random_hermitian(dim, rng))
        rest = rng.uniform(-1.0, 1.0, dim - 1)
        rest *= np.sqrt(rng.uniform(0.999, 1.001)) / max(np.linalg.norm(rest), 1e-300)
        return (q * np.r_[1.0, rest]) @ q.conj().T
    u = random_unit_vector(dim, rng)
    return 0.8 * np.outer(u, u.conj()) + 0.2 * np.eye(dim) / dim


@settings(max_examples=60, deadline=None)
@given(
    # dims above the Lanczos step cap: random Hermitian matrices of dim 130
    # still certify, those of dim 200 run out of steps and fall back
    dim=st.sampled_from([1, 2, 4, 16, 64, 130, 200]),
    kind=st.sampled_from(["random", "tied-top", "rank1-floor", "frobenius-edge"]),
    seed=st.integers(0, 2**32 - 1),
    skew=st.booleans(),
)
def test_top_eigenvector_is_the_top_eigenvector(dim, kind, seed, skew):
    a = _top_case(dim, kind, seed)
    if skew:
        # H + E with E anti-Hermitian, |a - a^H| = 2|E| still within
        # HERMITIAN_TOL: the answer is the top of the Hermitian part H
        rng = np.random.default_rng(seed + 1)
        e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        e -= e.conj().T
        a = a + 0.4 * linalg.HERMITIAN_TOL * e / np.max(np.abs(e))
    v = linalg.top_eigenvector(a)
    h = linalg.require_hermitian(a)
    values, vectors = linalg.hermitian_eig(h)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    k = int(np.argmax(np.abs(v)))
    assert abs(v[k].imag) <= 1e-15 and v[k].real > 0.0
    rayleigh = float(np.real(np.vdot(v, h @ v)))
    assert values[0] - rayleigh <= 1e-10 * scale
    assert np.linalg.norm(h @ v - rayleigh * v) <= 1e-9 * scale
    if dim == 1 or values[0] - values[1] > 1e-6 * scale:
        assert abs(np.vdot(vectors[:, 0], v)) ** 2 >= 1.0 - 1e-10
    assert linalg.top_eigenvector(a.copy()).tobytes() == v.tobytes()


def _missed_top(dim, seed):
    """Top eigenvalue 1 whose eigenvector has a 1e-14 share of top_eigenvector's start vector.

    The rest of the spectrum is 0 and -0.5, so the Krylov space of the start
    vector is numerically two-dimensional and Lanczos settles on the 0.
    """
    start = np.random.default_rng(0)  # the fixed seeded start vector b
    b = start.standard_normal(dim) + 1j * start.standard_normal(dim)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z[:, 0] = b
    q, _ = np.linalg.qr(z)
    z = np.column_stack([q[:, 1] + 1e-14 * q[:, 0], q[:, [0, *range(2, dim)]]])
    q, _ = np.linalg.qr(z)
    values = np.r_[1.0, np.zeros(dim // 2), np.full(dim - 1 - dim // 2, -0.5)]
    return (q * values) @ q.conj().T, q[:, 0]


def test_top_eigenvector_fast_path_needs_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(19)
    phi = random_unit_vector(256, rng)
    rho = 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(256) / 256

    def refuse(*args):
        raise AssertionError("the certified path must not need the fallback")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(linalg, "require_hermitian", refuse)
    v = linalg.top_eigenvector(rho)
    assert abs(np.vdot(phi, v)) ** 2 >= 1.0 - 1e-12
    assert np.max(np.abs(v)) == v[np.argmax(np.abs(v))].real


def test_top_eigenvector_certifies_by_cholesky_when_the_top_is_not_dominant(monkeypatch):
    # 2 * 0.4**2 < 0.4**2 + 0.35**2 + 0.25**2, so the Frobenius certificate
    # fails; the Cholesky factorization of sigma I - A still certifies the top
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(random_hermitian(64, rng))
    a = (q * np.r_[0.4, 0.35, 0.25, np.zeros(61)]) @ q.conj().T
    calls = []
    cholesky = np.linalg.cholesky

    def refuse(*args):
        raise AssertionError("the Cholesky certificate must not need the fallback")

    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    v = linalg.top_eigenvector(a)
    assert len(calls) == 1
    assert abs(np.vdot(q[:, 0], v)) ** 2 >= 1.0 - 1e-12


def test_top_eigenvector_falls_back_when_the_certificate_fails(monkeypatch):
    # dim above the Lanczos step cap; Lanczos returns a converged Ritz pair of
    # the eigenvalue 0, the Cholesky certificate of sigma I - A then fails,
    # and inverse iteration recovers the top from its 1e-14 share of b
    a, top = _missed_top(96, seed=1)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    v = linalg.top_eigenvector(a)
    assert len(calls) == 1
    assert abs(np.vdot(top, v)) ** 2 >= 1.0 - 1e-10


def test_top_eigenvector_fallback_makes_one_dense_matrix(monkeypatch):
    # Lanczos runs out of steps on a random dim-512 matrix, so the fallback
    # goes straight to eigvalsh; sigma I - H is written into one fresh array,
    # with no full-size temporaries of a + a^H
    a = _top_case(512, "random", 3)
    calls = []
    for name in ("cholesky", "eigvalsh"):
        wrapped = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, f=wrapped, k=name: calls.append(k) or f(m))
    tracemalloc.start()
    try:
        v = linalg.top_eigenvector(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == ["eigvalsh"]
    assert abs(np.vdot(np.linalg.eigh(a)[1][:, -1], v)) ** 2 >= 1.0 - 1e-10
    assert peak < 1.25 * a.nbytes


def test_top_eigenvector_of_a_tied_top_projects_the_start_vector():
    # the tied answer is a property of the eigenspace, not of the basis the
    # eigensolver happens to return for it; rebuilding the matrix from another
    # basis splits the tie by rounding (~1e-16 against the 1e-10 shift), which
    # moves the answer by about 1e-6 in norm
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(random_hermitian(8, rng))
    values = np.array([2.0, 2.0, 2.0, 0.5, 0.1, -0.3, -1.0, -1.5])
    a = (q * values) @ q.conj().T
    rotated = q.copy()
    mix, _ = np.linalg.qr(random_hermitian(3, rng))
    rotated[:, :3] = q[:, :3] @ mix
    b = (rotated * values) @ rotated.conj().T
    v = linalg.top_eigenvector(a)
    top = q[:, :3]
    assert np.linalg.norm(top @ (top.conj().T @ v) - v) <= 1e-12
    assert abs(np.vdot(linalg.top_eigenvector(b), v)) ** 2 >= 1.0 - 1e-10


def test_top_eigenvector_makes_no_dense_copy():
    # the check, Lanczos and the Frobenius certificate of a 16 MiB input
    # stay below a quarter of it: no symmetrized copy, no full-size temporary
    a = _top_case(1024, "rank1-floor", 31)
    tracemalloc.start()
    try:
        linalg.top_eigenvector(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4


def test_top_eigenvector_reads_the_input_once_per_lanczos_step(monkeypatch):
    # a rank-one-plus-floor input has a two-dimensional Krylov space: two
    # Lanczos steps, and the Ritz residual is taken from their kept products
    a = _top_case(1024, "rank1-floor", 31)
    calls = []
    times = linalg._hermitian_part_times
    monkeypatch.setattr(linalg, "_hermitian_part_times", lambda m, x: calls.append(1) or times(m, x))
    linalg.top_eigenvector(a)
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 4, 16, 64, 130, 200]),
    kind=st.sampled_from(["random", "tied-top", "rank1-floor", "frobenius-edge"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lanczos_kept_products_are_the_explicit_product(dim, kind, seed):
    # the certificates rest on H v combined from the products Lanczos kept;
    # it must be what an explicit H-apply of the returned v gives
    a = _top_case(dim, kind, seed)
    start = np.random.default_rng(0)
    b = start.standard_normal(dim) + 1j * start.standard_normal(dim)
    v, hv, scale = linalg._lanczos_top(a, b)
    assert np.linalg.norm(hv - linalg._hermitian_part_times(a, v)) <= 1e-13 * scale


def test_top_eigenvector_never_writes_its_argument(monkeypatch):
    # one input per path: the Frobenius certificate, the Cholesky certificate
    # and the eigvalsh fallback; a view of any layout gives the bits of its
    # contiguous copy
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(random_hermitian(64, rng))
    cases = {
        (): _top_case(64, "rank1-floor", 29),
        ("cholesky",): (q * np.r_[0.4, 0.35, 0.25, np.zeros(61)]) @ q.conj().T,
        ("eigvalsh",): _missed_top(96, seed=1)[0],
    }
    calls = []
    for name in ("cholesky", "eigvalsh"):
        wrapped = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, f=wrapped, k=name: calls.append(k) or f(m))
    for path, a in cases.items():
        assert a.dtype == np.complex128 and a.flags.c_contiguous
        before = a.copy()
        calls.clear()
        linalg.top_eigenvector(a)
        assert tuple(calls[-1:]) == path
        assert a.tobytes() == before.tobytes()
        for view in (a.T, np.asfortranarray(a), a[::-1, ::-1]):
            contiguous = np.ascontiguousarray(view)
            assert linalg.top_eigenvector(view).tobytes() == linalg.top_eigenvector(contiguous).tobytes()


def test_top_eigenvector_rejects_bad_input():
    with pytest.raises(errors.NonSquare):
        linalg.top_eigenvector(np.ones((2, 3)))
    with pytest.raises(errors.NonHermitian):
        linalg.top_eigenvector(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(errors.NonHermitian):
        linalg.top_eigenvector(np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(errors.NonHermitian):
        linalg.top_eigenvector(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(errors.BadParameter):
        linalg.top_eigenvector(np.zeros((0, 0)))


def test_hermitian_eig_phase_fix_matches_the_per_column_loop():
    # the reference is fix_phase applied column by column; tied, zero and
    # real inputs pin the columns whose pivot is tiny or already real
    rng = np.random.default_rng(29)
    cases = [np.zeros((0, 0)), np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0, -0.0])]
    for dim in (1, 2, 7, 16, 64, 65):
        cases.append(random_hermitian(dim, rng))
        cases.append(random_density(dim, rng, rank=max(1, dim // 4)))
        real = rng.standard_normal((dim, dim))
        cases.append(real + real.T)
    for a in cases:
        w, v = np.linalg.eigh(linalg.require_hermitian(a))
        order = np.argsort(-w, kind="stable")
        reference = v[:, order]
        for i in range(reference.shape[1]):
            reference[:, i] = linalg.fix_phase(reference[:, i])
        values, vectors = linalg.hermitian_eig(a)
        assert values.tobytes() == w[order].tobytes()
        assert vectors.tobytes() == reference.tobytes()


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


def test_numerical_rank_detects_constructed_rank():
    rng = np.random.default_rng(29)
    for _ in range(10):
        dim = int(rng.integers(4, 16))
        rank = int(rng.integers(1, dim))
        rho = random_density(dim, rng, rank=rank)
        noise = random_hermitian(dim, rng) * 1e-14
        assert linalg.numerical_rank(rho + noise, tol=1e-10) == rank


def test_tolerances_must_be_non_negative_numbers():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for tol in (np.nan, -1.0):
        for m in (np.eye(4), skew):
            with pytest.raises(errors.BadParameter):
                linalg.require_hermitian(m, tol=tol)
        with pytest.raises(errors.BadParameter):
            linalg.numerical_rank(np.eye(4), tol)
    assert linalg.require_hermitian(skew, tol=np.inf).tobytes() == np.zeros((2, 2), complex).tobytes()
    assert linalg.numerical_rank(np.eye(4), np.inf) == 0


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
