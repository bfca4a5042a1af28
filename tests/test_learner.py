"""End-to-end learner tests: both variants, audit invariants, serialization."""

import base64
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpslearn import (
    backend,
    complexity,
    disentangler,
    errors,
    learner,
    linalg,
    mps,
    planner,
    tomography,
    verify,
)


def random_mps_vector(n, seed, D=2, boundary="open"):
    state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, boundary=boundary, seed=seed))
    return mps.expand(state)


def zero_sector_embedding(circuit):
    """The fully transformed frame: |0> on every projected site, residual on the rest."""
    n, d = circuit.n, circuit.d
    tensor = np.zeros((d,) * n, dtype=complex)
    index = [0] * n
    for s in circuit.residual_sites:
        index[s - 1] = slice(None)
    tensor[tuple(index)] = circuit.residual.reshape((d,) * len(circuit.residual_sites))
    return tensor.reshape(-1)


def test_exact_variant_recovers_random_mps():
    psi = random_mps_vector(12, seed=0)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01, seed=0)
    assert report.final_fidelity >= 1.0 - 1e-9
    assert report.variant == "exact"
    assert report.p == 2
    assert report.M == 3
    assert report.copies_used > 0
    assert len(report.per_layer) == 3
    assert circuit.num_layers == 3
    assert abs(np.linalg.norm(learner.reconstruct_state(circuit)) - 1.0) < 1e-9


def test_exact_variant_accepts_mps_input_directly():
    state = mps.random_mps(mps.StateSpec(n=10, d=2, D=2, seed=3))
    circuit, report = learner.learn(state, 2, 2, 0.2, 0.01)
    assert report.final_fidelity >= 1.0 - 1e-9
    fid = abs(np.vdot(learner.reconstruct_state(circuit), mps.expand(state))) ** 2
    assert fid >= 1.0 - 1e-9


def test_report_eta_matches_schedule_formula():
    psi = random_mps_vector(12, seed=1)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01)
    assert abs(report.eta - planner.eta_exact(0.2, report.M)) < 1e-18
    assert abs(report.tau - 0.2 / 4) < 1e-15


def test_s1_amendment_is_reported():
    psi = random_mps_vector(12, seed=2)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01)
    assert any("s1-amended" in note for note in report.deviations)


def test_audit_trail_exact_run_invariants():
    psi = random_mps_vector(10, seed=4)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    assert trail is not None
    masses = [trail.success_mass(j) for j in range(trail.M + 1)]
    assert abs(masses[0] - 1.0) < 1e-12
    for before, after in zip(masses, masses[1:]):
        assert after <= before + 1e-12
    # an exact-oracle run keeps the full mass and never sinks a stage
    assert masses[-1] >= 1.0 - 1e-9
    for j in range(1, trail.M + 1):
        assert trail.monotonicity_margin(j) >= -1e-10
    # the input is stage 0
    assert abs(trail.fidelity_against(psi, 0) - 1.0) < 1e-12


def test_stepwise_overlap_identity_forward_vs_backward():
    # <phi|rho_j|phi> evaluated by undoing the circuit must equal the
    # residual-projection form evaluated in the collapsed frame
    psi = random_mps_vector(8, seed=5)
    rng = np.random.default_rng(6)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    phi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    phi /= np.linalg.norm(phi)
    for j in range(trail.M + 1):
        backward = abs(np.vdot(trail.stepwise_vector(j), phi)) ** 2
        forward = trail.fidelity_against(phi, j)
        assert abs(backward - forward) < 1e-10
        chi = learner.residual_projection(circuit, phi, j)
        snap = trail.snapshots[j]
        assert abs(forward - abs(np.vdot(snap.state, chi)) ** 2) < 1e-10


def test_stepwise_state_matches_vector_outer_product():
    psi = random_mps_vector(8, seed=7)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    for j in (0, trail.M):
        w = trail.stepwise_vector(j)
        np.testing.assert_allclose(
            trail.stepwise_state(j), np.outer(w, w.conj()), atol=1e-12
        )
    np.testing.assert_allclose(
        trail.stepwise_state(0), np.outer(psi, psi.conj()), atol=1e-10
    )


def test_bounded_noise_run_respects_layer_bounds():
    psi = random_mps_vector(12, seed=9)
    mode = tomography.BoundedNoiseMode()  # learner supplies its own budget
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01, mode=mode, seed=9, audit=True)
    assert report.final_fidelity >= 0.8
    trail = report.audit
    phi = psi
    overlaps = [trail.fidelity_against(phi, j) for j in range(trail.M + 1)]
    for j, stats in enumerate(report.per_layer, start=1):
        drop = abs(overlaps[j - 1] - overlaps[j])
        assert drop <= stats.drop_bound + 1e-12
    # the documented bound for layer j of the exact variant
    for stats in report.per_layer:
        expected = 2.0 * np.sqrt(2.0 * report.eta * 2.0 ** (report.M - stats.layer))
        assert abs(stats.drop_bound - expected) < 1e-15


def test_noise_runs_differ_by_seed_but_reproduce_exactly():
    psi = random_mps_vector(10, seed=10)
    mode = tomography.BoundedNoiseMode()
    _, r1 = learner.learn(psi, 2, 2, 0.2, 0.01, mode=mode, seed=1)
    _, r2 = learner.learn(psi, 2, 2, 0.2, 0.01, mode=mode, seed=1)
    _, r3 = learner.learn(psi, 2, 2, 0.2, 0.01, mode=mode, seed=2)
    assert r1.final_fidelity == r2.final_fidelity
    assert r1.final_fidelity != r3.final_fidelity


def test_finite_sample_mode_end_to_end():
    psi = random_mps_vector(6, seed=11)
    mode = tomography.FiniteSampleMode(copies=200_000, seed=0)
    circuit, report = learner.learn(psi, 2, 2, 0.5, 0.05, mode=mode, seed=11)
    assert report.oracle == "finite_sample"
    assert report.copies_used > 0
    assert report.final_fidelity >= 0.7
    assert abs(np.linalg.norm(learner.reconstruct_state(circuit)) - 1.0) < 1e-9


def test_forward_transform_recovers_zero_sector():
    psi = random_mps_vector(8, seed=12)
    circuit, _ = learner.learn(psi, 2, 2, 0.2, 0.01)
    forwarded = learner.forward_transform(circuit, learner.reconstruct_state(circuit))
    np.testing.assert_allclose(
        forwarded, zero_sector_embedding(circuit), atol=1e-10
    )


def test_trivial_register_short_circuit():
    # n <= 2p has no layers to run; the whole register is one tomography call
    psi = random_mps_vector(4, seed=14)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01)
    assert report.M == 0
    assert any("trivial" in note for note in report.deviations)
    assert circuit.num_layers == 0
    # the trivial path is the zero-layer plan, and its tail is the whole chain
    assert circuit.plan.M == 0
    assert circuit.plan.layers == ()
    assert circuit.plan.final_carried == tuple(range(1, 4 + 1))
    assert report.final_fidelity >= 1.0 - 1e-9
    fid = abs(np.vdot(learner.reconstruct_state(circuit), psi)) ** 2
    assert fid >= 1.0 - 1e-9


def test_closest_variant_routes_through_block_solver():
    psi = random_mps_vector(8, seed=15)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01, variant="closest")
    # desk-scale parameters give a block size covering the whole register
    assert report.p >= 8 // 2
    assert report.M == 0
    assert report.final_fidelity >= 1.0 - 1e-9


def test_closest_variant_on_global_depolarized_state():
    phi = random_mps_vector(8, seed=16)
    lam = 0.1
    rho = (1 - lam) * np.outer(phi, phi.conj()) + lam * np.eye(256) / 256.0
    circuit, report = learner.learn(rho, 2, 2, 0.2, 0.01, variant="closest")
    phi_hat = learner.reconstruct_state(circuit)
    witness = float(np.real(phi_hat.conj() @ rho @ phi_hat))
    best = (1 - lam) + lam / 256.0
    m, eps_prime = planner.select_epsilon(8, 2, 2, 0.2)
    assert witness >= best - eps_prime
    assert report.effective_epsilon <= 0.2


def test_closest_layered_schedule_obeys_own_bounds():
    # force the layered path with an explicit schedule to exercise the
    # threshold builders and the closest-variant drop bounds
    psi = random_mps_vector(10, seed=17)
    plan = planner.plan_layers(10, 2, 2)
    eta = planner.eta_closest(0.5, 2, 2, 10)
    schedule = learner.LearnSchedule(p=2, eta=eta)
    mode = tomography.BoundedNoiseMode()
    circuit, report = learner.learn(
        psi, 2, 2, 0.5, 0.01, variant="closest", mode=mode, seed=17,
        audit=True, schedule=schedule,
    )
    assert report.M == plan.M
    trail = report.audit
    overlaps = [trail.fidelity_against(psi, j) for j in range(trail.M + 1)]
    for j, stats in enumerate(report.per_layer, start=1):
        expected = 2.0 * np.sqrt(2.0 * eta * 4.0 * 2.0 ** (report.M - j))
        assert abs(stats.drop_bound - expected) < 1e-15
        assert abs(overlaps[j - 1] - overlaps[j]) <= stats.drop_bound + 1e-12
    assert report.final_fidelity >= 0.5


def _depolarized_n6():
    phi = random_mps_vector(6, seed=23)
    return 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(64) / 64.0


@pytest.mark.parametrize(
    "make_input, kwargs, layered",
    [
        (_depolarized_n6, dict(variant="closest"), False),
        (
            lambda: random_mps_vector(10, seed=24),
            dict(mode=tomography.BoundedNoiseMode(), seed=24),
            True,
        ),
    ],
    ids=["trivial-closest-density", "layered-bounded-noise"],
)
def test_closing_call_matches_full_eigensolve(monkeypatch, tmp_path, make_input, kwargs, layered):
    # the residual from top_eigenvector against column 0 of hermitian_eig,
    # the closing call it replaced: the same learning up to the low bits
    state = make_input()
    circuit, report = learner.learn(state, 2, 2, 0.2, 0.01, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(linalg, "top_eigenvector", lambda a: linalg.hermitian_eig(a)[1][:, 0].copy())
        old_circuit, old_report = learner.learn(state, 2, 2, 0.2, 0.01, **kwargs)
    assert (report.M > 0) == layered
    assert report.copies_used == old_report.copies_used
    assert len(circuit.unitaries) == len(old_circuit.unitaries)
    for u, old_u in zip(circuit.unitaries, old_circuit.unitaries):
        assert u.matrix.tobytes() == old_u.matrix.tobytes()
    assert abs(np.vdot(old_circuit.residual, circuit.residual)) ** 2 >= 1.0 - 1e-12
    assert abs(report.final_fidelity - old_report.final_fidelity) <= 1e-12
    rerun, _ = learner.learn(state, 2, 2, 0.2, 0.01, **kwargs)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    learner.save_circuit(circuit, pa)
    learner.save_circuit(rerun, pb)
    assert pa.read_bytes() == pb.read_bytes()


_ORACLES = {
    "exact": lambda: tomography.ExactMode(),
    "bounded-noise": lambda: tomography.BoundedNoiseMode(seed=31),
    "finite-sample": lambda: tomography.FiniteSampleMode(copies=200_000, seed=31),
}


@pytest.mark.parametrize("path", ["trivial", "layered"])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
@pytest.mark.parametrize("variant", ["exact", "closest"])
def test_final_fidelity_matches_the_dense_reconstruction(monkeypatch, variant, oracle, kind, path):
    # the fidelity read off the closing register against the overlap of the
    # input with the dense reconstruction, which learn no longer builds
    n = 4 if path == "trivial" else 8  # p = 2: n <= 2p takes the trivial path
    phi = random_mps_vector(n, seed=32 + n)
    state = phi if kind == "pure" else 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(2**n) / 2**n
    kwargs = dict(variant=variant, mode=_ORACLES[oracle](), seed=33)
    if variant == "closest" and path == "layered":
        kwargs["schedule"] = learner.LearnSchedule(2, planner.eta_closest(0.5, 2, 2, n))
    reconstruct_state = learner.reconstruct_state

    def refuse(circuit):
        raise AssertionError("learn rebuilt the dense output state")

    monkeypatch.setattr(learner, "reconstruct_state", refuse)
    circuit, report = learner.learn(state, 2, 2, 0.5, 0.01, **kwargs)
    assert (report.M > 0) == (path == "layered")
    out = reconstruct_state(circuit)
    if kind == "pure":
        reference = abs(np.vdot(state, out)) ** 2
    else:
        reference = float(np.real(out.conj() @ state @ out))
    assert abs(report.final_fidelity - reference) <= 1e-12


def test_theta_is_recorded_but_inert():
    psi = random_mps_vector(8, seed=18)
    circuit_a, report_a = learner.learn(psi, 2, 2, 0.2, 0.01, theta=0.9)
    circuit_b, report_b = learner.learn(psi, 2, 2, 0.2, 0.01)
    assert report_a.theta == 0.9
    assert report_b.theta is None
    np.testing.assert_array_equal(
        learner.reconstruct_state(circuit_a), learner.reconstruct_state(circuit_b)
    )


def test_learn_validates_arguments():
    psi = random_mps_vector(6, seed=19)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, 0.2, 0.01, variant="fastest")
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, 0.0, 0.01)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, 0.2, 1.0)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 0, 0.2, 0.01)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi * 2.0, 2, 2, 0.2, 0.01)
    with pytest.raises(errors.BadParameter, match="mass nan"):
        learner.learn(psi * np.nan, 2, 2, 0.2, 0.01)
    with pytest.raises(errors.BadParameter, match="unknown oracle mode"):
        learner.learn(psi, 2, 2, 0.2, 0.01, mode=object())
    # d, D and seed are integers; a bool is not one
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2.0, 2, 0.2, 0.01)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2.5, 0.2, 0.01)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, True, 0.2, 0.01)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, 0.2, 0.01, seed=1.5)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, 0.2, 0.01, seed=True)
    # 0 < True <= 1 and math.isfinite(False) hold, so a range check alone passes a bool
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, True, 0.01)
    with pytest.raises(errors.BadParameter):
        learner.learn(psi, 2, 2, 0.2, 0.01, theta=False)
    # delta is a real number; theta must fit in a float
    with pytest.raises(errors.BadParameter, match="delta"):
        learner.learn(psi, 2, 2, 0.2, "0.01")
    with pytest.raises(errors.BadParameter, match="theta"):
        learner.learn(psi, 2, 2, 0.2, 0.01, theta=10**400)


@pytest.mark.parametrize(
    "p, eta",
    [
        (2.5, 0.1), (0, 0.1), (True, 0.1), (2, float("nan")), (2, float("inf")), (2, 0.0),
        (2, 2.5), (2, True),
    ],
    ids=[
        "p-float", "p-zero", "p-bool", "eta-nan", "eta-infinity", "eta-zero", "eta-above-2",
        "eta-bool",
    ],
)
def test_a_schedule_takes_an_integer_p_and_an_eta_in_0_to_2(p, eta):
    with pytest.raises(errors.BadParameter):
        learner.LearnSchedule(p=p, eta=eta)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: tomography.BoundedNoiseMode(seed=1.5), errors.BadParameter),
        (lambda: tomography.BoundedNoiseMode(seed=True), errors.BadParameter),
        (lambda: tomography.FiniteSampleMode(copies=100, seed=1.5), errors.BadParameter),
        (lambda: verify.run_suites(["plan"], seed=1.5), errors.BadParameter),
        (lambda: mps.StateSpec(n=4.0, d=2, D=2), errors.InvalidSpec),
        (lambda: mps.StateSpec(n=4, d=2.0, D=2), errors.InvalidSpec),
        (lambda: mps.StateSpec(n=4, d=2, D=True), errors.InvalidSpec),
        (lambda: mps.StateSpec(n=4, d=2, D=2, seed=1.5), errors.InvalidSpec),
    ],
    ids=[
        "noise-seed-float", "noise-seed-bool", "sample-seed-float", "suite-seed-float",
        "spec-n-float", "spec-d-float", "spec-D-bool", "spec-seed-float",
    ],
)
def test_integer_parameters_refuse_floats_and_bools(make, error):
    with pytest.raises(error):
        make()


def test_finite_sample_learns_blocks_of_eight_qubits():
    # D = 4 gives p = 4, so every block estimate is a 256 x 256 marginal
    state = mps.random_mps(mps.StateSpec(n=12, d=2, D=4, seed=3))
    mode = tomography.FiniteSampleMode(copies=10**8, seed=1)
    _, report = learner.learn(state, 2, 4, 0.2, 0.01, mode=mode)
    assert report.M > 0 and report.final_fidelity >= 0.99


def test_noisy_learn_takes_one_marginal_per_oracle_call(monkeypatch):
    # one marginal per call, and the estimate error comes from the oracle's
    # own trace norm of its noise, so each call takes one trace norm
    calls, norms = [], []
    block_rdm, trace_norm = mps.block_rdm, linalg.trace_norm
    monkeypatch.setattr(mps, "block_rdm", lambda *args: calls.append(1) or block_rdm(*args))
    monkeypatch.setattr(linalg, "trace_norm", lambda a: norms.append(1) or trace_norm(a))
    mode = tomography.BoundedNoiseMode(seed=28)
    _, report = learner.learn(random_mps_vector(16, seed=28), 2, 2, 0.2, 0.01, mode=mode)
    acted = sum(len(layer.blocks) for layer in report.per_layer)
    assert (acted, len(calls), len(norms)) == (7, 8, 8)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 14),
    d=st.sampled_from([2, 3]),
    D=st.integers(1, 3),
    variant=st.sampled_from(["exact", "closest"]),
    boundary=st.sampled_from(["open", "periodic"]),
    seed=st.integers(0, 2**16),
)
@example(n=10, d=2, D=2, variant="exact", boundary="open", seed=20)
@example(n=14, d=2, D=3, variant="exact", boundary="periodic", seed=21)
@example(n=9, d=3, D=2, variant="exact", boundary="open", seed=22)
@example(n=6, d=3, D=3, variant="closest", boundary="periodic", seed=23)
def test_circuit_save_load_round_trip(tmp_path_factory, n, d, D, variant, boundary, seed):
    # both paths: exact runs are layered once n > 2p, closest runs are trivial
    n = min(n, 10) if d == 3 else n  # a periodic input is expanded to d**n entries
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, boundary=boundary, seed=seed))
    circuit, _ = learner.learn(state, d, D, 0.2, 0.01, variant=variant, seed=seed)
    path = tmp_path_factory.mktemp("circuit") / "circuit.json"
    learner.save_circuit(circuit, path)
    first = path.read_bytes()
    loaded = learner.load_circuit(path)
    learner.save_circuit(loaded, path)
    assert path.read_bytes() == first
    assert (loaded.n, loaded.d, loaded.p, loaded.plan) == (n, d, circuit.p, circuit.plan)
    assert [(u.layer, u.index, u.support) for u in loaded.unitaries] == [
        (u.layer, u.index, u.support) for u in circuit.unitaries
    ]
    for u, back in zip(circuit.unitaries, loaded.unitaries):
        assert (back.matrix.shape, back.matrix.tobytes()) == (u.matrix.shape, u.matrix.tobytes())
    assert loaded.residual.tobytes() == circuit.residual.tobytes()
    assert loaded.residual_sites == circuit.residual_sites
    assert loaded.projected_by_layer == circuit.projected_by_layer


def test_load_circuit_rejects_tampering(tmp_path):
    psi = random_mps_vector(8, seed=21)
    circuit, _ = learner.learn(psi, 2, 2, 0.2, 0.01, seed=21)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)

    doc = json.loads(path.read_text())
    doc["format"] = "other-format"
    bad = tmp_path / "bad_format.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(errors.MalformedCircuit):
        learner.load_circuit(bad)

    doc = json.loads(path.read_text())
    entries = _decode(doc["isometries"])
    entries[0] += 0.5
    doc["isometries"] = _encode(entries)
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(doc))
    with pytest.raises(errors.MalformedCircuit):
        learner.load_circuit(bent)


@pytest.mark.parametrize("n", [4, 10], ids=["trivial", "layered"])
def test_circuit_metadata_is_read_off_the_report(tmp_path, n):
    mode = tomography.BoundedNoiseMode(eta=0.01, seed=3)
    psi = random_mps_vector(n, seed=31)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01, mode=mode, theta=0.5)
    assert (report.M == 0) == (n == 4)
    keys = ["variant", "epsilon", "effective_epsilon", "delta", "eta", "tau", "seed", "oracle", "theta"]
    expected = {key: getattr(report, key) for key in keys}
    expected.update(
        oracle_params=dataclasses.asdict(mode),
        deviations=report.deviations,
        trivial_path=report.M == 0,
    )
    assert circuit.metadata == expected
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    assert learner.load_circuit(path).metadata == expected


def test_exact_run_is_seed_stable_bytes(tmp_path):
    psi = random_mps_vector(10, seed=22)
    circuit_a, _ = learner.learn(psi, 2, 2, 0.2, 0.01, seed=5)
    circuit_b, _ = learner.learn(psi, 2, 2, 0.2, 0.01, seed=5)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    learner.save_circuit(circuit_a, pa)
    learner.save_circuit(circuit_b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_audit_trail_density_run_stages():
    # a mixed input on the layered exact path reaches the density branches
    phi = random_mps_vector(8, seed=23)
    rho = 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(256) / 256.0
    _, report = learner.learn(rho, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    assert trail.M == report.M > 0
    np.testing.assert_allclose(trail.stepwise_state(0), rho, atol=1e-14)
    for j in range(trail.M + 1):
        stage = trail.stepwise_state(j)
        expected = float(np.real(phi.conj() @ stage @ phi))
        assert abs(trail.fidelity_against(phi, j) - expected) < 1e-10
        assert abs(np.real(np.trace(stage)) - trail.success_mass(j)) < 1e-10
    for j in range(1, trail.M + 1):
        assert trail.monotonicity_margin(j) >= -1e-10
    with pytest.raises(errors.BadParameter):
        trail.stepwise_vector(0)


def test_trivial_register_audit_trail():
    psi = random_mps_vector(4, seed=24)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    assert trail.M == 0
    assert abs(trail.success_mass(0) - 1.0) < 1e-12
    np.testing.assert_array_equal(trail.stepwise_vector(0), psi)
    assert abs(trail.fidelity_against(psi, 0) - 1.0) < 1e-12
    with pytest.raises(errors.BadParameter):
        trail.stepwise_state(1)
    with pytest.raises(errors.BadParameter):
        trail.monotonicity_margin(1)


def _decode(entries):
    return np.frombuffer(base64.b64decode(entries), dtype="<c16").copy()


def _encode(values):
    return base64.b64encode(values.astype("<c16").tobytes()).decode("ascii")


def _drop_n(doc):
    del doc["n"]


def _truncate_residual(doc):
    doc["residual"] = _encode(_decode(doc["residual"])[:-1])


def _truncate_isometries(doc):
    doc["isometries"] = _encode(_decode(doc["isometries"])[:-1])


def _nan_in_unitary(doc):
    entries = _decode(doc["isometries"])
    entries[0] = complex(np.nan, 0.0)
    doc["isometries"] = _encode(entries)


def _first_isometry(doc):
    # n = 8, p = 2: the first block acts on sites 1..4, a 16 x 4 isometry
    return _decode(doc["isometries"])[:64].reshape(16, 4)


def _isometry_of_the_wrong_width(doc):
    narrow = _first_isometry(doc)[:, :-1].ravel()
    doc["isometries"] = _encode(np.concatenate([narrow, _decode(doc["isometries"])[64:]]))


def _isometry_with_a_repeated_column(doc):
    entries, w = _decode(doc["isometries"]), _first_isometry(doc)
    w[:, 1] = w[:, 0]
    doc["isometries"] = _encode(np.concatenate([w.ravel(), entries[64:]]))


def _unitary_on_trivial_path(doc):
    # with n <= 2p there are no layers, so no isometry has a block to act on
    doc["p"] = doc["n"]


def _p_zero(doc):
    doc["p"] = 0


def _p_is_a_flag(doc):
    doc["p"] = True


def _huge_register(doc):
    # d**n with n = 10**6 has too many digits for Python to format
    doc["n"] = 10**6


def _huger_register(doc):
    doc["n"] = 10**18


def _huge_residual(doc):
    # the trivial path of 20000 sites: the residual's 2**20000 entries have
    # too many digits for Python to format
    doc.update(n=20000, p=20000, isometries="")


def _huge_json_integer(doc):
    # more digits than Python's JSON parser converts to an int
    return json.dumps(doc).replace('"n": 8', '"n": ' + "9" * 5000)


@pytest.mark.parametrize(
    "tamper",
    [_drop_n, _truncate_residual, _truncate_isometries, _nan_in_unitary, _unitary_on_trivial_path,
     _p_zero, _p_is_a_flag, _huge_register, _huger_register, _huge_residual, _huge_json_integer,
     None,
     _isometry_of_the_wrong_width, _isometry_with_a_repeated_column],
    ids=lambda tamper: "_directory" if tamper is None else tamper.__name__,
)
def test_load_circuit_raises_malformed_circuit(monkeypatch, tmp_path, tamper):
    circuit, _ = learner.learn(random_mps_vector(8, seed=26), 2, 2, 0.2, 0.01)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    plan_layers = learner.plan_layers

    def plan_a_stored_register(n, d, p):
        # each site costs a stored entry: a huge n is refused before it is planned
        assert n <= 8, "plan_layers was called on a register the file cannot hold"
        return plan_layers(n, d, p)

    monkeypatch.setattr(learner, "plan_layers", plan_a_stored_register)
    if tamper is None:  # a directory in place of the file
        path.unlink()
        path.mkdir()
    else:
        path.write_text(tamper(doc) or json.dumps(doc))
    with pytest.raises(errors.MalformedCircuit):
        learner.load_circuit(path)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    D=st.integers(1, 3),
    oracle=st.sampled_from(sorted(_ORACLES)),
    seed=st.integers(0, 2**16),
)
@example(n=8, D=2, oracle="exact", seed=13)
@example(n=12, D=3, oracle="bounded-noise", seed=14)
@example(n=3, D=2, oracle="finite-sample", seed=15)  # the trivial path
def test_extract_mps_matches_reconstruction(n, D, oracle, seed):
    # the backward walk on the tensor train against the walk on the dense register
    state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, seed=seed))
    mode = _ORACLES[oracle]()
    if not isinstance(mode, tomography.ExactMode):
        mode = dataclasses.replace(mode, seed=seed)
    circuit, _ = learner.learn(state, 2, D, 0.2, 0.01, mode=mode, seed=seed)
    extracted = learner.extract_mps(circuit)
    assert (extracted.n, extracted.boundary) == (n, "open")
    for k, t in enumerate(extracted.tensors):  # no bond beyond the cut's dimension
        assert t.shape[2] <= 2 ** min(k + 1, n - k - 1)
    reconstructed = learner.reconstruct_state(circuit)
    assert np.max(np.abs(mps.expand(extracted) - reconstructed)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 12),
    D=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    oracle=st.sampled_from(sorted(_ORACLES)),
)
@example(d=2, n=12, D=2, seed=1, oracle="exact")
@example(d=2, n=12, D=2, seed=2, oracle="finite-sample")
@example(d=2, n=12, D=3, seed=3, oracle="bounded-noise")
@example(d=3, n=10, D=3, seed=4, oracle="exact")
@example(d=3, n=8, D=2, seed=5, oracle="finite-sample")  # blocks of 81 x 81
def test_the_tensor_train_register_learns_what_the_dense_register_learns(d, n, D, seed, oracle):
    n = min(n, 10) if d == 3 else n  # the dense register holds at most 2**16 entries
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, seed=seed))
    mode = _ORACLES[oracle]()
    if not isinstance(mode, tomography.ExactMode):
        mode = dataclasses.replace(mode, seed=seed)
    _, train = learner.learn(state, d, D, 0.2, 0.01, mode=mode, seed=seed)  # the tensor train
    _, dense = learner.learn(mps.expand(state), d, D, 0.2, 0.01, mode=mode, seed=seed)
    assert (train.M, train.copies_used) == (dense.M, dense.copies_used)
    assert abs(train.final_fidelity - dense.final_fidelity) <= 1e-10
    for layer, reference in zip(train.per_layer, dense.per_layer, strict=True):
        assert abs(layer.success_mass - reference.success_mass) <= 1e-10
        for block, ref in zip(layer.blocks, reference.blocks, strict=True):
            assert abs(block.success_mass - ref.success_mass) <= 1e-10
            assert abs(block.estimate_error - ref.estimate_error) <= 1e-10


def test_audited_learn_of_an_open_mps_runs_past_the_dense_cap():
    # the audit copies the tensor-train register; only its dense stages are capped
    state = mps.random_mps(mps.StateSpec(n=64, d=2, D=2, seed=34))
    _, report = learner.learn(state, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    assert (report.M, len(trail.snapshots)) == (5, 6)
    assert abs(trail.success_mass(0) - 1.0) <= 1e-12
    assert [trail.success_mass(j) for j in range(1, trail.M + 1)] == [
        layer.success_mass for layer in report.per_layer
    ]
    with pytest.raises(errors.TooLarge):
        trail.stepwise_vector(report.M)
    # a periodic input is expanded onto the dense register, capped at d**n <= 2**16
    ring = mps.random_mps(mps.StateSpec(n=17, d=2, D=2, boundary="periodic", seed=34))
    with pytest.raises(errors.TooLarge):
        learner.learn(ring, 2, 2, 0.2, 0.01, audit=True)


def _audit_input(kind, n, D, seed):
    """An open or periodic MPS, or the open one as a vector or a depolarized density."""
    n = min(n, 10) if kind == "density" else n  # the dense register's 2**10 density cap
    boundary = "periodic" if kind == "periodic" else "open"
    state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, boundary=boundary, seed=seed))
    if kind in ("open", "periodic"):
        return state
    phi = mps.expand(state)
    if kind == "vector":
        return phi
    return 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(2**n) / 2**n


@pytest.mark.parametrize(
    "kind, n, variant",
    [
        ("vector", 4, "exact"),
        ("vector", 8, "exact"),
        ("density", 4, "closest"),
        ("density", 6, "exact"),
        ("periodic", 4, "closest"),
        ("periodic", 8, "exact"),
    ],
)
def test_learn_reads_its_input_in_place_and_hands_back_no_alias(kind, n, variant):
    # the dense register holds its input as given, with no copy: learn must
    # leave the input's bytes alone, and no result, with layers or without,
    # may be a view of the input, of a witness or of the circuit's residual
    state = _audit_input(kind, n, 2, seed=40 + n)
    inputs = list(state.tensors) if kind == "periodic" else [state]
    before = [a.copy() for a in inputs]
    circuit, report = learner.learn(state, 2, 2, 0.2, 0.01, variant=variant, audit=True)
    assert (circuit.num_layers == 0) == (n == 4)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, before))
    phi = random_mps_vector(n, seed=50 + n)
    trail = report.audit
    results = [
        learner.reconstruct_state(circuit),
        learner.residual_projection(circuit, phi, 0),
        learner.forward_transform(circuit, phi),
        trail.stepwise_state(0),
    ]
    if kind != "density":
        results.append(trail.stepwise_vector(0))
    for result in results:
        assert not any(np.shares_memory(result, a) for a in [*inputs, phi, circuit.residual])
    # the audit's input snapshot is a copy, whatever the caller writes later
    stage = trail.stepwise_state(0)
    for a in inputs:
        a[...] = 0.0
    assert trail.stepwise_state(0).tobytes() == stage.tobytes()


def test_a_density_learn_reads_its_input_in_place():
    # the n = 10 closing call: no register copy of the 16 MiB input, no
    # symmetrized copy and no full-size temporary
    phi = random_mps_vector(10, seed=41)
    rho = 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(1024) / 1024
    tracemalloc.start()
    try:
        _, report = learner.learn(rho, 2, 2, 0.2, 0.01, variant="closest")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.M == 0
    assert peak < rho.nbytes / 4


def _learn_and_save(path, state, D, mode, variant, seed, audit):
    try:
        circuit, report = learner.learn(
            state, 2, D, 0.2, 0.01, variant=variant, mode=mode, seed=seed, audit=audit
        )
    except errors.TooLarge as exc:  # blocks too wide for the finite-sample oracle
        return type(exc), None
    learner.save_circuit(circuit, path)
    return path.read_bytes(), report


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["open", "vector", "density", "periodic"]),
    n=st.integers(1, 12),
    D=st.integers(1, 3),
    oracle=st.sampled_from(sorted(_ORACLES)),
    variant=st.sampled_from(["exact", "closest"]),
    seed=st.integers(0, 2**16),
)
@example(kind="open", n=12, D=2, oracle="exact", variant="exact", seed=1)
@example(kind="open", n=12, D=3, oracle="bounded-noise", variant="exact", seed=2)
@example(kind="open", n=8, D=2, oracle="finite-sample", variant="exact", seed=3)
@example(kind="density", n=8, D=2, oracle="bounded-noise", variant="exact", seed=4)
@example(kind="vector", n=10, D=2, oracle="exact", variant="closest", seed=5)
@example(kind="periodic", n=10, D=2, oracle="exact", variant="exact", seed=6)
def test_audit_records_a_run_without_changing_it(
    tmp_path_factory, kind, n, D, oracle, variant, seed
):
    state = _audit_input(kind, n, D, seed)
    mode = _ORACLES[oracle]()
    if not isinstance(mode, tomography.ExactMode):
        mode = dataclasses.replace(mode, seed=seed)
    folder = tmp_path_factory.mktemp("audit")
    plain, plain_report = _learn_and_save(folder / "plain.json", state, D, mode, variant, seed, False)
    audited, report = _learn_and_save(folder / "audited.json", state, D, mode, variant, seed, True)
    assert audited == plain
    if report is not None:
        assert report.audit is not None and plain_report.audit is None
        assert dataclasses.replace(report, audit=None) == plain_report


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 12),
    D=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(d=2, n=12, D=2, seed=1)
@example(d=2, n=12, D=3, seed=2)
@example(d=3, n=10, D=3, seed=3)
def test_the_audits_of_both_registers_agree_on_every_stage(d, n, D, seed):
    # an open MPS audited on the tensor train against its vector audited on the dense register
    n = min(n, 10) if d == 3 else n  # the dense register holds at most 2**16 entries
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, seed=seed))
    _, train = learner.learn(state, d, D, 0.2, 0.01, seed=seed, audit=True)
    _, dense = learner.learn(mps.expand(state), d, D, 0.2, 0.01, seed=seed, audit=True)
    assert isinstance(train.audit.snapshots[0], backend.MPSBackend)
    assert isinstance(dense.audit.snapshots[0], backend.StateBackend)
    assert train.M == dense.M
    for j in range(train.M + 1):
        stage = train.audit.stepwise_vector(j)
        assert np.max(np.abs(stage - dense.audit.stepwise_vector(j))) <= 1e-12


@pytest.mark.parametrize("dense", [False, True], ids=["tensor-train", "dense"])
def test_audit_snapshots_hold_the_plans_site_labels(dense):
    # both registers run on the planner's 1-based labels, as the circuit names its sites
    state = mps.random_mps(mps.StateSpec(n=12, d=2, D=2, seed=41))
    source = mps.expand(state) if dense else state
    circuit, report = learner.learn(source, 2, 2, 0.2, 0.01, audit=True)
    snapshots, plan = report.audit.snapshots, circuit.plan
    assert plan.M == 3 and snapshots[0].sites == list(range(1, 13))
    for j in range(1, plan.M + 1):
        shed = {s for layer in circuit.projected_by_layer[:j] for s in layer}
        assert snapshots[j].sites == [s for s in range(1, 13) if s not in shed]
    assert snapshots[plan.M].sites == list(plan.final_carried)


def test_exact_learn_of_an_open_mps_runs_far_past_the_dense_cap():
    state = mps.random_mps(mps.StateSpec(n=64, d=2, D=2, seed=35))
    circuit, report = learner.learn(state, 2, 2, 0.2, 0.01)
    assert (report.n, report.M, len(circuit.residual_sites)) == (64, 5, 2)
    assert report.final_fidelity >= 1.0 - 1e-9


def test_bounded_noise_learn_of_an_open_mps_at_n_256_meets_epsilon():
    state = mps.random_mps(mps.StateSpec(n=256, d=2, D=2, seed=36))
    mode = tomography.BoundedNoiseMode(seed=36)
    _, report = learner.learn(state, 2, 2, 0.2, 0.01, mode=mode, seed=36)
    assert report.M == 7
    assert all(b.estimate_error > 0.0 for layer in report.per_layer for b in layer.blocks)
    assert report.final_fidelity >= 1.0 - 0.2


def test_closest_learn_at_n_64_refuses_its_block_window_before_contracting(monkeypatch):
    # blocks of 2p = 36 sites: a window of 2**36 * D_l * D_r entries
    state = mps.random_mps(mps.StateSpec(n=64, d=2, D=2, seed=37))

    def refuse(*args, **kwargs):
        raise AssertionError("a window was contracted before the size check")

    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(mps, "contract_window", refuse)
    with pytest.raises(errors.BackendTooLarge, match="window"):
        learner.learn(state, 2, 2, 0.2, 0.01, variant="closest")


@pytest.mark.parametrize("n", [16, 64])
def test_exact_learn_of_an_open_mps_never_forms_a_block_marginal(monkeypatch, n):
    # each block's isometry comes from its marginal's thin factor, and the
    # closing call reads the held tail: no d**y x d**y matrix, no eigensolver
    state = mps.random_mps(mps.StateSpec(n=n, d=2, D=4, seed=39))

    def refuse(*args, **kwargs):
        raise AssertionError("an exact learn on the tensor train formed a block marginal")

    monkeypatch.setattr(backend.MPSBackend, "rdm", refuse)
    for name in ("require_hermitian", "_top_eigenpairs", "top_eigenvector"):
        monkeypatch.setattr(linalg, name, refuse)
    _, report = learner.learn(state, 2, 4, 0.2, 0.01, seed=39)
    assert report.M >= 2
    assert report.final_fidelity >= 1.0 - 1e-9


def test_the_charged_copies_grow_with_the_formula_slope():
    # ROADMAP item 2: the measured copy slope over n = 64 ... 1024, next to
    # budget_exact_ours's n**3 log(n / delta) over the same n
    sizes = [64, 128, 256, 512, 1024]
    charged = []
    for n in sizes:
        state = mps.random_mps(mps.StateSpec(n=n, d=2, D=2, seed=40))
        _, report = learner.learn(state, 2, 2, 0.2, 0.01, seed=40)
        assert report.final_fidelity >= 1.0 - 1e-9
        charged.append(report.copies_used)
    formula = [complexity.budget_exact_ours(n, 2, 2, 0.2, 0.01) for n in sizes]
    slope = complexity.fit_loglog_slope(sizes, charged)
    assert abs(slope - complexity.fit_loglog_slope(sizes, formula)) <= 0.1
    assert slope < 4.0


def test_reconstruct_state_of_a_huge_register_raises_too_large():
    circuit, _ = learner.learn(random_mps_vector(8, seed=26), 2, 2, 0.2, 0.01)
    huge = dataclasses.replace(circuit, n=10**6)
    with pytest.raises(errors.TooLarge, match=r"2\*\*1000000"):
        learner.reconstruct_state(huge)
    with pytest.raises(errors.BadParameter, match=r"2\*\*1000000"):
        learner.forward_transform(huge, np.ones(4, dtype=complex))


def _version_1(doc, circuit):
    # stored each array as a JSON list of interleaved floats
    entries = _decode(doc.pop("isometries"))
    doc["unitaries"] = [{"entries": entries.view(np.float64).tolist()}]
    doc.update(residual=_decode(doc["residual"]).view(np.float64).tolist())


def _version_2(doc, circuit):
    # stored each block's full d**y x d**y unitary
    doc.pop("isometries")
    doc["unitaries"] = [
        {"entries": _encode(disentangler.unitary_from_isometry(u.matrix))}
        for u in circuit.unitaries
    ]


def _version_3(doc, circuit):
    # stored the plan, each isometry with its layer, index and support, and the
    # sites the zeros and the residual sit on
    doc.pop("isometries")
    doc["unitaries"] = [
        {"layer": u.layer, "index": u.index, "support": list(u.support),
         "entries": _encode(u.matrix)}
        for u in circuit.unitaries
    ]
    doc.update(
        plan={"M": circuit.plan.M},
        projected_by_layer=[list(layer) for layer in circuit.projected_by_layer],
        residual_sites=list(circuit.residual_sites),
    )


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_circuit_refuses_older_versions(tmp_path, version):
    circuit, _ = learner.learn(random_mps_vector(8, seed=27), 2, 2, 0.2, 0.01)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    {1: _version_1, 2: _version_2, 3: _version_3}[version](doc, circuit)
    doc.update(version=version)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(errors.MalformedCircuit, match=f"version {version}"):
        learner.load_circuit(path)


def test_extract_mps_refuses_a_huge_window_before_contracting(monkeypatch):
    # n = 27, p = 13: layer 2 acts on the 26 sites 2..27, a window of 2**26
    # entries (extract_mps checks the size before it reads the isometry)
    n, p = 27, 13
    plan = planner.plan_layers(n, 2, p)
    blocks = [b for layer in plan.layers for b in layer if b.acted]
    assert [len(b.support) for b in blocks] == [14, 26]
    residual = np.zeros(2**p, dtype=complex)
    residual[0] = 1.0
    wide = learner.CircuitDescription(
        n=n,
        d=2,
        p=p,
        plan=plan,
        unitaries=[
            learner.CircuitUnitary(b.layer, b.index, b.support, np.eye(4, 2, dtype=complex))
            for b in blocks
        ],
        residual=residual,
        metadata={},
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the window was contracted before the size check")

    monkeypatch.setattr(np, "einsum", refuse)
    with pytest.raises(errors.TooLarge):
        learner.extract_mps(wide)
