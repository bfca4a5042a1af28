"""End-to-end learner tests: both variants, audit invariants, serialization."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from mpslearn import (
    errors,
    learner,
    linalg,
    mps,
    planner,
    tomography,
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


def test_stepwise_state_requires_audit():
    psi = random_mps_vector(8, seed=8)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01)
    with pytest.raises(errors.AuditDisabled):
        learner.stepwise_state(report, 1)


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


def test_extract_mps_matches_reconstruction():
    psi = random_mps_vector(8, seed=13)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01)
    extracted = learner.extract_mps(circuit)
    dense = mps.expand(extracted)
    fid = abs(np.vdot(dense, learner.reconstruct_state(circuit))) ** 2
    assert fid >= 1.0 - 1e-8
    cap = 2 ** (report.M + 1) * 2 ** (2 * (report.M + 1))
    for t in extracted.tensors:
        assert t.shape[1] <= cap and t.shape[2] <= cap


def test_trivial_register_short_circuit():
    # n <= 2p has no layers to run; the whole register is one tomography call
    psi = random_mps_vector(4, seed=14)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01)
    assert report.M == 0
    assert any("trivial" in note for note in report.deviations)
    assert circuit.num_layers == 0
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
    schedule = learner.LearnSchedule(plan=plan, eta=eta)
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
    n = 4 if path == "trivial" else 8  # the finite-sample oracle stops at 4 qubits
    phi = random_mps_vector(n, seed=32 + n)
    state = phi if kind == "pure" else 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(2**n) / 2**n
    kwargs = dict(variant=variant, mode=_ORACLES[oracle](), seed=33)
    if variant == "closest" and path == "layered":
        plan = planner.plan_layers(n, 2, 2)
        kwargs["schedule"] = learner.LearnSchedule(plan, planner.eta_closest(0.5, 2, 2, n))
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
    with pytest.raises(errors.BadParameter, match="unknown oracle mode"):
        learner.learn(psi, 2, 2, 0.2, 0.01, mode=object())


def test_noisy_learn_takes_one_marginal_per_oracle_call(monkeypatch):
    # the estimate error reuses the marginal handed to the oracle
    calls = []
    block_rdm = mps.block_rdm
    monkeypatch.setattr(mps, "block_rdm", lambda *args: calls.append(1) or block_rdm(*args))
    mode = tomography.BoundedNoiseMode(seed=28)
    _, report = learner.learn(random_mps_vector(16, seed=28), 2, 2, 0.2, 0.01, mode=mode)
    acted = sum(len(layer.blocks) for layer in report.per_layer)
    assert (acted, len(calls)) == (7, 8)


def test_circuit_save_load_round_trip(tmp_path):
    psi = random_mps_vector(10, seed=20)
    circuit, _ = learner.learn(psi, 2, 2, 0.2, 0.01, seed=20)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    first = path.read_bytes()
    loaded = learner.load_circuit(path)
    np.testing.assert_array_equal(
        learner.reconstruct_state(loaded), learner.reconstruct_state(circuit)
    )
    assert loaded.residual_sites == circuit.residual_sites
    learner.save_circuit(loaded, path)
    assert path.read_bytes() == first


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
    entries = _decode(doc["unitaries"][0]["entries"])
    entries[0] += 0.5
    doc["unitaries"][0]["entries"] = _encode(entries)
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(doc))
    with pytest.raises(errors.MalformedCircuit):
        learner.load_circuit(bent)


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


def test_module_stepwise_state_reads_the_audit():
    psi = random_mps_vector(8, seed=25)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    for j in range(report.M + 1):
        np.testing.assert_array_equal(
            learner.stepwise_state(report, j), report.audit.stepwise_state(j)
        )


def _decode(entries):
    return np.frombuffer(base64.b64decode(entries), dtype="<c16").copy()


def _encode(values):
    return base64.b64encode(values.astype("<c16").tobytes()).decode("ascii")


def _drop_n(doc):
    del doc["n"]


def _truncate_residual(doc):
    doc["residual"] = _encode(_decode(doc["residual"])[:-1])


def _nan_in_unitary(doc):
    entries = _decode(doc["unitaries"][0]["entries"])
    entries[0] = complex(np.nan, 0.0)
    doc["unitaries"][0]["entries"] = _encode(entries)


def _shorten_support(doc):
    doc["unitaries"][0]["support"].pop()


def _support_past_register(doc):
    doc["unitaries"][0]["support"][-1] = doc["n"] + 1


def _residual_site_past_register(doc):
    doc["residual_sites"][-1] = doc["n"] + 1


def _unitary_layer_past_plan(doc):
    doc["unitaries"][-1]["layer"] = doc["plan"]["M"] + 1


def _unitary_on_trivial_path(doc):
    # without a plan there are no layers, so no unitary has a layer to sit in
    doc["plan"] = None
    doc["projected_by_layer"] = []


def _projected_site_past_register(doc):
    doc["projected_by_layer"][0][0] = doc["n"] + 1


def _projected_by_layer_too_short(doc):
    doc["projected_by_layer"].pop()


def _drop_unitary_layer(doc):
    del doc["unitaries"][0]["layer"]


def _drop_unitary_index(doc):
    del doc["unitaries"][0]["index"]


def _drop_plan_field(doc):
    del doc["plan"]["layers"][0][0]["acted"]


def _p_zero(doc):
    doc["p"] = 0


def _ell1_not_an_integer(doc):
    doc["plan"]["ell1"] = 2.5


def _s1_not_an_integer(doc):
    doc["plan"]["s1"] = "1"


def _k1_not_an_integer(doc):
    doc["plan"]["k1"] = None


def _s1_amended_not_a_flag(doc):
    doc["plan"]["s1_amended"] = 1


def _block_index_not_an_integer(doc):
    doc["plan"]["layers"][0][0]["index"] = [1]


def _block_acted_not_a_flag(doc):
    doc["plan"]["layers"][0][0]["acted"] = "yes"


def _p_is_a_flag(doc):
    doc["p"] = True


def _s1_is_a_flag(doc):
    doc["plan"]["s1"] = True


def _block_index_is_a_flag(doc):
    doc["plan"]["layers"][0][0]["index"] = False


def _unitary_layer_is_a_flag(doc):
    doc["unitaries"][0]["layer"] = True


def _unitary_index_is_a_flag(doc):
    doc["unitaries"][0]["index"] = True


def _site_label_is_a_flag(doc):
    # site 1 listed as true still covers the sites 1..n exactly once
    sites = doc["residual_sites"] + [s for layer in doc["projected_by_layer"] for s in layer]
    assert 1 in sites
    for layer in [doc["residual_sites"], *doc["projected_by_layer"]]:
        layer[:] = [True if s == 1 else s for s in layer]


def _huge_register(doc):
    # d**n with n = 10**6 has too many digits for Python to format
    doc["n"] = 10**6


def _huge_residual(doc):
    # a valid cover of 20000 sites: the residual's 2**20000 entries have too
    # many digits for Python to format
    n = 20000
    doc.update(n=n, plan=None, unitaries=[], projected_by_layer=[], residual_sites=list(range(1, n + 1)))


def _huge_json_integer(doc):
    # more digits than Python's JSON parser converts to an int
    return json.dumps(doc).replace('"n": 8', '"n": ' + "9" * 5000)


@pytest.mark.parametrize(
    "tamper",
    [_drop_n, _truncate_residual, _nan_in_unitary, _shorten_support, _support_past_register,
     _residual_site_past_register, _unitary_layer_past_plan, _unitary_on_trivial_path,
     _projected_site_past_register, _projected_by_layer_too_short, _drop_unitary_layer,
     _drop_unitary_index, _drop_plan_field, _p_zero, _ell1_not_an_integer, _s1_not_an_integer,
     _k1_not_an_integer, _s1_amended_not_a_flag, _block_index_not_an_integer,
     _block_acted_not_a_flag, _p_is_a_flag, _s1_is_a_flag, _block_index_is_a_flag,
     _unitary_layer_is_a_flag, _unitary_index_is_a_flag, _site_label_is_a_flag, _huge_register, _huge_residual, _huge_json_integer, None],
    ids=lambda tamper: "_directory" if tamper is None else tamper.__name__,
)
def test_load_circuit_raises_malformed_circuit(tmp_path, tamper):
    circuit, _ = learner.learn(random_mps_vector(8, seed=26), 2, 2, 0.2, 0.01)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    if tamper is None:  # a directory in place of the file
        path.unlink()
        path.mkdir()
    else:
        path.write_text(tamper(doc) or json.dumps(doc))
    with pytest.raises(errors.MalformedCircuit):
        learner.load_circuit(path)


def test_learn_past_the_dense_cap_raises_too_large():
    state = mps.random_mps(mps.StateSpec(n=17, d=2, D=2, seed=34))
    with pytest.raises(errors.TooLarge):
        learner.learn(state, 2, 2, 0.2, 0.01)


def test_reconstruct_state_of_a_huge_register_raises_too_large():
    circuit, _ = learner.learn(random_mps_vector(8, seed=26), 2, 2, 0.2, 0.01)
    huge = dataclasses.replace(circuit, n=10**6)
    with pytest.raises(errors.TooLarge, match=r"2\*\*1000000"):
        learner.reconstruct_state(huge)
    with pytest.raises(errors.BadParameter, match=r"2\*\*1000000"):
        learner.forward_transform(huge, np.ones(4, dtype=complex))


def test_load_circuit_refuses_version_1_files(tmp_path):
    # version 1 stored each array as a JSON list of interleaved floats
    circuit, _ = learner.learn(random_mps_vector(8, seed=27), 2, 2, 0.2, 0.01)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    for u in doc["unitaries"]:
        u["entries"] = _decode(u["entries"]).view(np.float64).tolist()
    doc.update(version=1, residual=_decode(doc["residual"]).view(np.float64).tolist())
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(errors.MalformedCircuit, match="version 1"):
        learner.load_circuit(path)
