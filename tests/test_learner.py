"""End-to-end learner tests: both variants, audit invariants, serialization."""

import base64
import codecs
import dataclasses
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("project_psd", [False, True], ids=["plain", "project-psd"])
def test_closest_layered_schedule_obeys_own_bounds(project_psd):
    # force the layered path with an explicit schedule to exercise the
    # closest-variant drop bounds; a PSD-projected estimate, whose trace the
    # projection lifts past 1, builds its block like any other
    psi = random_mps_vector(10, seed=17)
    plan = planner.plan_layers(10, 2, 2)
    eta = planner.eta_closest(0.5, 2, 2, 10)
    schedule = learner.LearnSchedule(p=2, eta=eta)
    mode = tomography.BoundedNoiseMode(project_psd=project_psd)
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
    # an empty input has no site count; an integer too long for Python to
    # format is named by its size, not formatted
    with pytest.raises(errors.DimensionMismatch):
        learner.learn(np.array([]), 2, 2, 0.2, 0.01)
    with pytest.raises(errors.BadParameter, match="epsilon .* an integer of 16610 bits"):
        learner.learn(psi, 2, 2, 10**5000, 0.01)
    with pytest.raises(errors.BadParameter, match="theta .* an integer of 16610 bits"):
        learner.learn(psi, 2, 2, 0.2, 0.01, theta=10**5000)
    with pytest.raises(errors.DimensionMismatch, match="not a power of d = 1"):
        learner.learn(psi, 1, 2, 0.2, 0.01)
    # a seed is stored in the circuit file, so it must fit in 64 bits
    with pytest.raises(errors.BadParameter, match="seed=an integer of 65 bits"):
        learner.learn(psi, 2, 2, 0.2, 0.01, seed=2**64)
    with pytest.raises(errors.BadParameter, match="seed=an integer of 16610 bits"):
        learner.learn(psi, 2, 2, 0.2, 0.01, seed=10**5000)
    with pytest.raises(errors.BadParameter, match="an integer of 65 bits"):
        tomography.BoundedNoiseMode(seed=2**64)
    with pytest.raises(errors.BadParameter, match="an integer of 65 bits"):
        tomography.FiniteSampleMode(copies=100, seed=2**64)
    with pytest.raises(errors.BadParameter, match="an integer of 65 bits"):
        verify.run_suites(["plan"], seed=2**64)
    assert tomography.BoundedNoiseMode(seed=2**64 - 1).seed == 2**64 - 1


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
    # one marginal per block, and the estimate error comes from the oracle's
    # own trace norm of its noise, so each block takes one trace-norm value
    # (a layer's blocks take theirs in one stacked call)
    calls, norms = [], []
    block_rdm, trace_norm = mps.block_rdm, linalg.trace_norm
    monkeypatch.setattr(mps, "block_rdm", lambda *args: calls.append(1) or block_rdm(*args))

    def counted(a):
        norms.extend([1] * (len(a) if np.ndim(a) == 3 else 1))
        return trace_norm(a)

    monkeypatch.setattr(linalg, "trace_norm", counted)
    mode = tomography.BoundedNoiseMode(seed=28)
    _, report = learner.learn(random_mps_vector(16, seed=28), 2, 2, 0.2, 0.01, mode=mode)
    acted = sum(len(layer.blocks) for layer in report.per_layer)
    assert (acted, len(calls), len(norms)) == (7, 8, 8)


@pytest.mark.parametrize(
    "D, shapes",
    [(2, [(4, 16, 16), (2, 16, 16), (1, 16, 16), (4, 4)]), (4, [(1, 256, 256)] * 3 + [(16, 16)])],
)
def test_a_layer_stacks_its_marginals_up_to_the_cap(monkeypatch, D, shapes):
    # a noisy learn at n = 16 estimates each layer's equal marginals in one
    # call, and never stacks more than _STACK_ENTRIES entries: each D = 4
    # marginal, of 2**16 entries, is a stack of one; the closing call is a matrix
    seen, estimate_block = [], tomography.estimate_block

    def recorded(sigma, *args):
        seen.append(sigma.shape)
        return estimate_block(sigma, *args)

    monkeypatch.setattr(tomography, "estimate_block", recorded)
    state = mps.random_mps(mps.StateSpec(n=16, d=2, D=D, seed=D))
    learner.learn(state, 2, D, 0.2, 0.01, mode=tomography.BoundedNoiseMode(seed=D))
    assert seen == shapes
    assert all(np.prod(shape) <= learner._STACK_ENTRIES for shape in seen)


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


def test_the_audit_and_the_witness_projection_take_only_integer_layers():
    # a bool is not layer 1, and a float layer raises BadParameter, not a bare TypeError
    psi = random_mps_vector(8, seed=25)
    circuit, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    trail = report.audit
    assert trail.M == 2
    reads = [
        trail.success_mass, trail.stepwise_vector, trail.stepwise_state, trail.monotonicity_margin,
        lambda j: trail.fidelity_against(psi, j),
        lambda j: learner.residual_projection(circuit, psi, j),
    ]
    for read in reads:
        assert np.all(np.isfinite(read(np.int64(1))))
        for j in (True, False, 1.5, 1.0, "1", None, 3):
            with pytest.raises(errors.BadParameter, match="layer must be an integer"):
                read(j)
    with pytest.raises(errors.BadParameter, match="in 1..2"):
        trail.monotonicity_margin(0)


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


def _isometry_past_a_float_squared(doc):
    # finite entries whose Gram matrix overflows: the defect is inf or NaN
    entries, w = _decode(doc["isometries"]), _first_isometry(doc)
    w[:, 1] = complex(1e200, -1e200)
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
     _isometry_of_the_wrong_width, _isometry_with_a_repeated_column,
     _isometry_past_a_float_squared],
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


_SAME_SEEDS = [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize(
    "D, n, seeds",
    [
        (2, 64, _SAME_SEEDS),
        (2, 256, _SAME_SEEDS),
        (4, 64, _SAME_SEEDS),
        (4, 256, _SAME_SEEDS),
        # at cut 672|673 an intermediate state's fifth Schmidt value is
        # 1.1e-12 of the largest, just above the cutoff; the output's is 6e-17
        (4, 1024, [(7, 3)]),
    ],
    ids=["2-64", "2-256", "4-64", "4-256", "4-1024"],
)
def test_an_exact_run_extracts_at_the_bonds_of_its_input(D, n, seeds):
    # every cut is taken from the centre, the last ones on the output itself,
    # so only the state's Schmidt values are kept: no bond past the input's
    # rank at its cut
    for state_seed, learn_seed in seeds:
        state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, seed=state_seed))
        circuit, _ = learner.learn(state, 2, D, 0.2, 0.01, seed=learn_seed)
        extracted = learner.extract_mps(circuit)
        profile = mps.schmidt_profile(state)
        assert mps.schmidt_profile(extracted) == profile, state_seed
        bonds = [t.shape[2] for t in extracted.tensors]
        assert all(bond <= rank for bond, rank in zip(bonds, profile)), state_seed


def test_the_register_cuts_a_window_only_where_a_later_window_needs_a_cut(monkeypatch):
    # the trivial path's residual is one tensor, which extraction cuts into
    # sites by SVD alone; an exact learn at n = 16, D = 4, whose layer-2
    # window is two whole layer-1 outputs, cuts nothing, so its only SVDs
    # are two per acted block: its factor's, and the k x d**p one that
    # completes a factor of k < d**p columns, as every block here has; and
    # its only QRs are the register's steps, none a completion of d**y rows
    calls = {"qr_step": 0, "svd": 0, "qr": 0}

    def counted(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counted(mps, "qr_step")
    counted(np.linalg, "svd")
    counted(np.linalg, "qr")
    state = mps.random_mps(mps.StateSpec(n=10, d=2, D=2, seed=43))
    circuit, report = learner.learn(state, 2, 2, 0.2, 0.01, variant="closest", seed=43)
    assert report.M == 0
    calls.update(qr_step=0, svd=0, qr=0)
    extracted = learner.extract_mps(circuit)
    assert calls == {"qr_step": 0, "svd": 9, "qr": 0}
    assert np.max(np.abs(mps.expand(extracted) - circuit.residual)) <= 1e-12
    state = mps.random_mps(mps.StateSpec(n=16, d=2, D=4, seed=43))
    calls.update(qr_step=0, svd=0, qr=0)
    circuit, report = learner.learn(state, 2, 4, 0.2, 0.01, seed=43)
    acted = sum(b.acted for layer in circuit.plan.layers for b in layer)
    assert (report.M, acted) == (2, 3)
    assert calls["svd"] == 2 * acted
    assert calls["qr"] == calls["qr_step"]
    assert report.final_fidelity >= 1.0 - 1e-9


@pytest.mark.parametrize(
    "D, oracle, learn_calls, extract_calls",
    [(4, "exact", (3, 6), (1, 15)), (2, "bounded-noise", (11, 4), (5, 15))],
    ids=["exact-wide", "noisy-narrow"],
)
def test_the_lapack_calls_of_one_learn_and_one_extraction(
    monkeypatch, D, oracle, learn_calls, extract_calls
):
    # (QR steps, SVDs) at n = 16, d = 2, as the benchmark's exact-wide and
    # noisy-narrow jobs make them: a register that sweeps or cuts more than
    # it needs shows here, whatever the timing noise.  The register is built
    # from layer 1's windows, so its one sweep takes a QR step per window:
    # one at D = 4 (blocks 1..8, 9..16), three at D = 2.  Each of the exact
    # learn's three blocks takes two SVDs, its factor's and its completion's;
    # the noisy learn takes one per layer (its stacked blocks' noise norms)
    # and one in the closing call; and every QR is a register step
    calls = {"qr_step": 0, "svd": 0, "qr": 0}
    for module, name in ((mps, "qr_step"), (np.linalg, "svd"), (np.linalg, "qr")):
        original = getattr(module, name)

        def count(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)
    state = mps.random_mps(mps.StateSpec(n=16, d=2, D=D, seed=16))
    mode = tomography.BoundedNoiseMode(eta=None, seed=16) if oracle != "exact" else None
    circuit, report = learner.learn(state, 2, D, 0.2, 0.01, mode=mode, seed=16)
    assert (calls["qr_step"], calls["svd"]) == learn_calls
    assert calls["qr"] == calls["qr_step"]
    calls.update(qr_step=0, svd=0, qr=0)
    learner.extract_mps(circuit)
    assert (calls["qr_step"], calls["svd"]) == extract_calls
    assert report.final_fidelity >= 1.0 - 0.2


@pytest.mark.parametrize("D", [2, 4])
def test_a_ring_at_n_256_learns_and_extracts_on_its_open_chain(D):
    # the chain has bond D * D; the learned circuit extracts to a train at the
    # ring's own Schmidt ranks, whose overlap with the chain is read by transfer matrices
    ring = mps.random_mps(mps.StateSpec(n=256, d=2, D=D, boundary="periodic", seed=60 + D))
    circuit, report = learner.learn(ring, 2, D, 0.2, 0.01, seed=D)
    assert report.final_fidelity >= 1.0 - 1e-9
    extracted = learner.extract_mps(circuit)
    profile = mps.schmidt_profile(ring)
    assert max(profile) == D * D and mps.schmidt_profile(extracted) == profile
    env = np.ones((1, 1), dtype=complex)
    for a, b in zip(extracted.tensors, mps.open_chain(ring).tensors, strict=True):
        env = np.einsum("ab,iac,ibd->cd", env, a.conj(), b)
    assert abs(env[0, 0]) ** 2 >= 1.0 - 1e-9


@pytest.mark.parametrize("oracle", ["exact", "bounded-noise"])
def test_the_centre_sweeps_the_register_once_a_layer(monkeypatch, oracle):
    # one QR sweep makes the input canonical; then a layer's estimates, right
    # to left, move the centre at most once over its held sites, and each
    # compression one step into the next block.  Estimates taken left to right
    # would sweep three times: back to the first block, along, and back again.
    steps, qr_step = [], mps.qr_step

    def counted(*args, **kwargs):
        steps.append(kwargs["rightward"])
        return qr_step(*args, **kwargs)

    monkeypatch.setattr(mps, "qr_step", counted)
    state = mps.random_mps(mps.StateSpec(n=100, d=2, D=2, seed=41))
    circuit, report = learner.learn(state, 2, 2, 0.2, 0.01, mode=_ORACLES[oracle](), seed=41)
    held, bound = state.n, state.n - 1
    for layer in circuit.plan.layers:
        bound += held + sum(b.acted for b in layer)
        held -= sum(b.f for b in layer)
    assert report.M == 6
    assert len(steps) <= bound


def test_the_success_mass_is_the_norm_of_the_centre_at_n_1024():
    # the mass of each layer's register against a transfer-matrix sweep of its tensors
    state = mps.random_mps(mps.StateSpec(n=1024, d=2, D=2, seed=42))
    mode = tomography.BoundedNoiseMode(eta=1e-3, seed=42)
    _, report = learner.learn(state, 2, 2, 0.2, 0.01, mode=mode, seed=42, audit=True)
    assert report.per_layer[-1].success_mass < 1.0 - 1e-3
    for snapshot in report.audit.snapshots:
        env = np.ones((1, 1), dtype=complex)
        for t in snapshot.state.tensors:
            env = np.einsum("ab,iac,ibd->cd", env, t.conj(), t)
        assert abs(snapshot.success_mass() - env[0, 0].real) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 12),
    D=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    oracle=st.sampled_from(sorted(_ORACLES)),
    boundary=st.sampled_from(["open", "periodic"]),
)
@example(d=2, n=12, D=2, seed=1, oracle="exact", boundary="open")
@example(d=2, n=12, D=2, seed=2, oracle="finite-sample", boundary="open")
@example(d=2, n=12, D=3, seed=3, oracle="bounded-noise", boundary="open")
@example(d=3, n=10, D=3, seed=4, oracle="exact", boundary="open")
@example(d=3, n=8, D=2, seed=5, oracle="finite-sample", boundary="open")  # blocks of 81 x 81
@example(d=2, n=12, D=3, seed=6, oracle="exact", boundary="periodic")
@example(d=2, n=12, D=2, seed=7, oracle="bounded-noise", boundary="periodic")
def test_the_tensor_train_register_learns_what_the_dense_register_learns(
    d, n, D, seed, oracle, boundary
):
    # a ring on the tensor train is its open chain, of bond D * D
    n = min(n, 10) if d == 3 else n  # the dense register holds at most 2**16 entries
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, boundary=boundary, seed=seed))
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
    # a ring runs on its open chain, past the dense cap too, until a window
    # is too wide: at n = 17 and D = 8 the chain has bond 64, and its first
    # block's window needs 131,072 entries
    ring = mps.random_mps(mps.StateSpec(n=64, d=2, D=2, boundary="periodic", seed=34))
    _, report = learner.learn(ring, 2, 2, 0.2, 0.01, audit=True)
    assert isinstance(report.audit.snapshots[0], backend.MPSBackend)
    assert (report.M, report.final_fidelity >= 1.0 - 1e-9) == (5, True)
    ring = mps.random_mps(mps.StateSpec(n=17, d=2, D=8, boundary="periodic", seed=34))
    with pytest.raises(errors.BackendTooLarge, match="131072 entries"):
        learner.learn(ring, 2, 8, 0.2, 0.01, audit=True)


def test_a_first_layer_window_too_wide_on_its_raw_bonds_is_left_as_sites():
    # a ring's open chain has bonds D0**2 = 81 before its sweep, so layer 1's
    # window 5..8 needs 81 * 16 * 81 entries on the raw tensors; it stays one
    # tensor per site and is read after the sweep has cut its bonds to 16
    ring = mps.random_mps(mps.StateSpec(n=12, d=2, D=9, boundary="periodic", seed=3))
    _, report = learner.learn(ring, 2, 2, 0.2, 0.01)
    assert report.M >= 1 and 0.0 < report.final_fidelity <= 1.0
    # at n = 14 the window 9..12 is that wide after the sweep too
    ring = mps.random_mps(mps.StateSpec(n=14, d=2, D=9, boundary="periodic", seed=3))
    with pytest.raises(errors.BackendTooLarge, match="sites 9..12 needs 104976 entries"):
        learner.learn(ring, 2, 2, 0.2, 0.01)


def test_an_mps_input_gets_the_error_of_its_first_failed_check():
    # the chain's cap, then the plan, then the register's mass, then the
    # first window read
    def doubled(state):
        return mps.MatrixProductState(
            state.n, state.d, state.boundary, [2.0 * state.tensors[0], *state.tensors[1:]]
        )

    rng = np.random.default_rng(5)
    tensors = [rng.standard_normal((2, 100, 100)) for _ in range(16)]
    heavy = mps.MatrixProductState(16, 2, "periodic", tensors)  # p = 8 at D = 16: trivial path
    with pytest.raises(errors.TooLarge, match="open chain holds 3200000000 tensor entries"):
        learner.learn(heavy, 2, 16, 0.2, 0.01)
    ring = mps.random_mps(mps.StateSpec(n=17, d=2, D=8, boundary="periodic", seed=34))
    with pytest.raises(errors.BadParameter, match="normalized"):
        learner.learn(doubled(ring), 2, 8, 0.2, 0.01)
    with pytest.raises(errors.BadParameter, match="copy_scale_base"):
        learner.learn(doubled(ring), 2, 8, 1e-300, 0.01, variant="closest")
    # p = 9 at D = 17, so n = 17 takes the trivial path: its closing call
    # reads the whole register, past the dense cap under any oracle
    wide = mps.random_mps(mps.StateSpec(n=17, d=2, D=17, seed=34))
    with pytest.raises(errors.BackendTooLarge, match=r"2\*\*17 exceeds cap 65536"):
        learner.learn(wide, 2, 17, 0.2, 0.01)
    with pytest.raises(errors.TooLarge, match=r"window of sites 1\.\.17 needs 131072 entries"):
        learner.learn(wide, 2, 17, 0.2, 0.01, mode=tomography.BoundedNoiseMode())
    for mode in (tomography.ExactMode(), tomography.BoundedNoiseMode()):
        with pytest.raises(errors.BadParameter, match="normalized"):
            learner.learn(doubled(wide), 2, 17, 0.2, 0.01, mode=mode)


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


def test_a_one_site_train_owns_its_tensor_and_its_extraction_owns_the_residual():
    # a complex tensor of left bond 1 transposes to a contiguous view, and a
    # single tensor sees no QR step: the register copies it, and of_vector too
    state = mps.random_mps(mps.StateSpec(n=1, d=2, D=1, seed=42))
    circuit, report = learner.learn(state, 2, 1, 0.2, 0.01, audit=True)
    assert circuit.num_layers == 0
    stage = report.audit.stepwise_vector(0)
    state.tensors[0][...] = 0.0
    assert report.audit.stepwise_vector(0).tobytes() == stage.tobytes()
    extracted = learner.extract_mps(circuit)
    assert not any(np.shares_memory(t, circuit.residual) for t in extracted.tensors)


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
    boundary=st.sampled_from(["open", "periodic"]),
)
@example(d=2, n=12, D=2, seed=1, boundary="open")
@example(d=2, n=12, D=3, seed=2, boundary="open")
@example(d=3, n=10, D=3, seed=3, boundary="open")
@example(d=2, n=12, D=3, seed=4, boundary="periodic")
def test_the_audits_of_both_registers_agree_on_every_stage(d, n, D, seed, boundary):
    # an MPS audited on the tensor train against its vector audited on the dense register
    n = min(n, 10) if d == 3 else n  # the dense register holds at most 2**16 entries
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, boundary=boundary, seed=seed))
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


def test_closest_learn_at_n_12_refuses_its_tail_before_any_estimate(monkeypatch):
    # n = 12 <= 2p, so the closing call alone would estimate a 4096 x 4096 operator
    state = mps.random_mps(mps.StateSpec(n=12, d=2, D=2, seed=7))

    def refuse(*args, **kwargs):
        raise AssertionError("an estimate was taken before the size check")

    monkeypatch.setattr(tomography, "estimate_block", refuse)
    mode = tomography.BoundedNoiseMode()
    with pytest.raises(errors.TooLarge, match="12-site marginal .* 4096 > 1024"):
        learner.learn(state, 2, 2, 0.25, 0.01, variant="closest", mode=mode)


@pytest.mark.parametrize("register", ["train", "dense"])
def test_a_block_marginal_past_the_dense_cap_is_refused_before_its_estimate(
    monkeypatch, register
):
    # p = 6: the tensor train's first block, 13..24, and the dense register's
    # layer-2 block, 5..16, are 12 sites wide, so their marginals are 4096 x 4096
    if register == "train":
        state = mps.random_mps(mps.StateSpec(n=24, d=2, D=1, kind="product", seed=8))
        block = "13..24"
    else:
        state, block = random_mps_vector(16, seed=8), "5..16"
    estimate = tomography.estimate_block

    def refuse_wide(rdm, d, mode):
        assert rdm.shape[0] <= linalg.MAX_DENSITY_DIM, "a marginal past the cap was estimated"
        return estimate(rdm, d, mode)

    monkeypatch.setattr(tomography, "estimate_block", refuse_wide)
    mode = tomography.BoundedNoiseMode(eta=0.01)
    schedule = learner.LearnSchedule(p=6, eta=0.01)
    with pytest.raises(errors.BackendTooLarge, match=f"12-site marginal of sites {block} .* 4096"):
        learner.learn(state, 2, 2, 0.2, 0.01, mode=mode, schedule=schedule)


def test_stepwise_state_refuses_a_register_past_the_dense_operator_cap():
    psi = random_mps_vector(12, seed=53)
    _, report = learner.learn(psi, 2, 2, 0.2, 0.01, audit=True)
    assert report.M >= 1
    with pytest.raises(errors.TooLarge, match=r"2\*\*12 exceeds cap 1024"):
        report.audit.stepwise_state(1)
    # a pure run's stages are read as vectors instead
    assert report.audit.stepwise_vector(1).shape == (2**12,)


def _learn_refusing_block_marginals(monkeypatch, n, D, **kwargs):
    # each block's isometry comes from its marginal's thin factor, and the
    # closing call reads the held tail: no d**y x d**y matrix, no eigensolver,
    # whatever the variant
    state = mps.random_mps(mps.StateSpec(n=n, d=2, D=D, seed=39))

    def refuse(*args, **kwargs):
        raise AssertionError("a learn on the tensor train formed a block marginal")

    monkeypatch.setattr(backend.MPSBackend, "rdm", refuse)
    for name in ("require_hermitian", "top_eigenvector"):
        monkeypatch.setattr(linalg, name, refuse)
    _, report = learner.learn(state, 2, D, 0.2, 0.01, seed=39, **kwargs)
    assert report.M >= 2
    assert report.final_fidelity >= 1.0 - 1e-9


@pytest.mark.parametrize("n", [16, 64])
def test_exact_learn_of_an_open_mps_never_forms_a_block_marginal(monkeypatch, n):
    _learn_refusing_block_marginals(monkeypatch, n, 4)


def test_closest_learn_of_an_open_mps_never_forms_a_block_marginal(monkeypatch):
    # the closest variant takes the same factor path under the exact oracle
    schedule = learner.LearnSchedule(2, planner.eta_closest(0.5, 2, 2, 16))
    _learn_refusing_block_marginals(monkeypatch, 16, 2, variant="closest", schedule=schedule)


@pytest.mark.parametrize("as_vector", [False, True], ids=["mps", "vector"])
def test_a_rank_cap_past_the_kept_dimension_stops_only_the_exact_variant(as_vector):
    # p = 1 keeps d = 2 dimensions: D**2 = 4 does not fit, while the closest
    # variant keeps d**p whatever D is
    state = mps.random_mps(mps.StateSpec(n=8, d=2, D=2, seed=42))
    state = mps.expand(state) if as_vector else state
    schedule = learner.LearnSchedule(p=1, eta=0.01)
    with pytest.raises(errors.RankCapExceedsDim):
        learner.learn(state, 2, 2, 0.2, 0.01, schedule=schedule)
    _, report = learner.learn(state, 2, 2, 0.2, 0.01, variant="closest", schedule=schedule)
    assert report.M >= 1


@pytest.mark.parametrize(
    "make_input, variant, schedule",
    [
        (
            lambda: mps.random_mps(mps.StateSpec(n=8, d=2, D=2, seed=41)),
            "closest",
            learner.LearnSchedule(2, planner.eta_closest(0.5, 2, 2, 8)),
        ),
        (lambda: random_mps_vector(8, seed=41), "exact", None),
    ],
    ids=["closest-mps", "exact-vector"],
)
def test_a_pure_register_under_the_exact_oracle_closes_on_its_held_tail(
    monkeypatch, make_input, variant, schedule
):
    # the closing call's answer is the held tail itself on every path: no
    # tail marginal, no eigensolver, whatever the register and the variant
    state = make_input()
    kwargs = dict(variant=variant, schedule=schedule, seed=41)
    circuit, report = learner.learn(state, 2, 2, 0.5, 0.01, **kwargs)
    tail = list(circuit.residual_sites)

    def refuse(*args, **kwargs):
        raise AssertionError("the closing call estimated the held tail")

    for register in (backend.StateBackend, backend.MPSBackend):
        rdm = register.rdm

        def rdm_but_the_tail(self, site_labels, rdm=rdm):
            if sorted(site_labels) == tail:
                refuse()
            return rdm(self, site_labels)

        monkeypatch.setattr(register, "rdm", rdm_but_the_tail)
    monkeypatch.setattr(linalg, "top_eigenvector", refuse)
    again, rerun = learner.learn(state, 2, 2, 0.5, 0.01, **kwargs)
    assert report.M >= 1
    assert again.residual.tobytes() == circuit.residual.tobytes()
    assert rerun.copies_used == report.copies_used
    assert rerun.final_fidelity == report.final_fidelity >= 1.0 - 0.5


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


@pytest.mark.parametrize("size", [2, 6, 8], ids=["short", "not-a-power", "long"])
def test_a_residual_of_the_wrong_size_raises_dimension_mismatch(size):
    # the residual must hold d**2 entries for its 2 sites, on both walks
    circuit, _ = learner.learn(random_mps_vector(8, seed=27), 2, 2, 0.2, 0.01)
    assert len(circuit.residual_sites) == circuit.p == 2
    bad = dataclasses.replace(circuit, residual=np.ones(size, dtype=complex) / np.sqrt(size))
    with pytest.raises(errors.DimensionMismatch):
        learner.reconstruct_state(bad)
    with pytest.raises(errors.DimensionMismatch):
        learner.extract_mps(bad)


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


@pytest.mark.parametrize("version", [1, 2, 3, 4.0])
def test_load_circuit_refuses_older_versions(tmp_path, version):
    # 4.0 is the current layout with its version written as a float
    circuit, _ = learner.learn(random_mps_vector(8, seed=27), 2, 2, 0.2, 0.01)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    if version != 4:
        {1: _version_1, 2: _version_2, 3: _version_3}[version](doc, circuit)
    doc.update(version=version)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(errors.MalformedCircuit, match=f"version {version}"):
        learner.load_circuit(path)


def test_load_circuit_reads_utf8_under_an_ascii_locale(tmp_path):
    # a JSON file is UTF-8 whatever the locale: a child whose locale encoding
    # is ASCII gets raw UTF-8 metadata back intact
    circuit, _ = learner.learn(random_mps_vector(8, seed=27), 2, 2, 0.2, 0.01)
    path = tmp_path / "circuit.json"
    learner.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    note = "caf\u00e9 \u2211 \U0001f642"
    doc["metadata"]["note"] = note
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert "\u00e9".encode("utf-8") in path.read_bytes()
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    code = (
        "import locale, sys; from mpslearn import learner; "
        "print(locale.getpreferredencoding(False)); "
        "print(ascii(learner.load_circuit(sys.argv[1]).metadata['note']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    encoding, back = out.stdout.splitlines()
    assert codecs.lookup(encoding).name == "ascii"
    assert back == ascii(note)


def _strings(node):
    """Every string in a JSON tree, keys included."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _strings(key)
            yield from _strings(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _strings(value)


def test_the_payload_never_reaches_the_json_encoder(tmp_path, monkeypatch):
    # the base64 entries are spliced into the file as they stand
    dumps = json.dumps

    def guarded(obj, *args, **kwargs):
        if any(len(text) > 4096 for text in _strings(obj)):
            raise ValueError("a string of over 4096 characters reached json.dumps")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", guarded)
    with pytest.raises(ValueError, match="reached json.dumps"):
        mps.canonical_json({"entries": "A" * 4097})
    state = mps.random_mps(mps.StateSpec(n=16, d=2, D=4, seed=28))
    circuit, _ = learner.learn(state, 2, 4, 0.2, 0.01, seed=28)
    learner.save_circuit(circuit, tmp_path / "circuit.json")
    assert (tmp_path / "circuit.json").stat().st_size > 250_000
    state = mps.random_mps(mps.StateSpec(n=64, d=2, D=8, seed=28))
    assert 16 * sum(t.size for t in state.tensors) >= 2**16
    mps.save_mps(state, tmp_path / "state.json")
    assert mps.load_mps(tmp_path / "state.json").tensors[5].tobytes() == state.tensors[5].tobytes()


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

    monkeypatch.setattr(mps, "contract_window", refuse)
    with pytest.raises(errors.TooLarge):
        learner.extract_mps(wide)
