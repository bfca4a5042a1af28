"""The typed errors no other test raises, each from its smallest bad input.

The table was built from a line trace of the rest of the suite over the
package: each row reaches one ``raise`` (or, for the large finite check, one
branch) that no other test reaches.  Lines marked ``pragma: no cover`` and
branches no input reaches are not in it.  Each row names the error class and
a fragment of its message, so a row that reaches another check of the same
class fails.
"""

import json

import numpy as np
import pytest

from mpslearn import (
    backend,
    cli,
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


def _chain(*shapes, boundary="open", nan_at=None):
    """A chain of zero tensors of the given shapes, with a NaN in tensor ``nan_at``."""
    tensors = [np.zeros(shape, dtype=complex) for shape in shapes]
    if nan_at is not None:
        tensors[nan_at].flat[-1] = np.nan
    return mps.MatrixProductState(len(shapes), shapes[0][0], boundary, tensors)


def _with(matrix, index, value):
    """``matrix`` as a complex copy with one entry set to ``value``."""
    out = np.array(matrix, dtype=complex)
    out[index] = value
    return out


_NOISE, _SAMPLE = tomography.BoundedNoiseMode(eta=0.1), tomography.FiniteSampleMode(copies=100)


def _zeros(shape):
    """A complex zero array of any shape, held in one entry."""
    return np.broadcast_to(np.zeros(1, complex), shape)


_WIDE = 2**18 + 1  # two tensors of 4 * _WIDE entries in all, past the 2**20 one-call check

ROWS = {
    # learner.learn
    "learn-3d-input": (lambda: learner.learn(np.zeros((2, 2, 2)), 2, 1, 0.5, 0.1),
     errors.BadParameter, "vector or density matrix, got ndim 3"),
    "learn-mps-of-other-d": (lambda: learner.learn(_chain((2, 1, 1), (2, 1, 1)), 3, 1, 0.5, 0.1),
     errors.BadParameter, "state has d=2, learner called with d=3"),
    # backend.StateBackend
    "dense-past-density-cap": (lambda: backend.StateBackend(_zeros((1025, 1025)), 2),
     errors.BackendTooLarge, "density dimension 1025 exceeds cap 1024"),
    "dense-3d-input": (lambda: backend.StateBackend(np.zeros((2, 2, 2)), 2),
     errors.DimensionMismatch, "vector or matrix, got ndim 3"),
    # mps.MatrixProductState
    "chain-bond-mismatch": (lambda: _chain((2, 1, 2), (2, 3, 1)),
     errors.DimensionMismatch, "bond mismatch between sites 0 and 1: 2 vs 3"),
    "chain-large-non-finite": (lambda: _chain((2, 1, _WIDE), (2, _WIDE, 1), nan_at=1),
     errors.InvalidSpec, "site 1 tensor holds a non-finite entry"),
    "open-chain-outer-bond": (lambda: _chain((2, 2, 1), (2, 1, 2)),
     errors.DimensionMismatch, "open boundary requires outer bond dimension 1"),
    "ring-outer-bonds": (lambda: _chain((2, 1, 2), (2, 2, 3), boundary="periodic"),
     errors.DimensionMismatch, "periodic boundary requires matching outer bonds"),
    # mps.StateSpec and its generators
    "spec-unknown-kind": (lambda: mps.StateSpec(n=2, d=2, D=2, kind="cluster"),
     errors.InvalidSpec, "unknown state kind 'cluster'"),
    "spec-w-state-D": (lambda: mps.StateSpec(n=2, d=2, D=3, kind="w-state"),
     errors.InvalidSpec, "w-state needs D = 2"),
    "spec-product-D": (lambda: mps.StateSpec(n=2, d=2, D=2, kind="product"),
     errors.InvalidSpec, "product needs D = 1"),
    "ghz-one-site": (lambda: mps.random_mps(mps.StateSpec(n=1, d=2, D=2, kind="ghz")),
     errors.InvalidSpec, "ghz needs n >= 2"),
    "w-state-one-site": (lambda: mps.random_mps(mps.StateSpec(n=1, d=2, D=2, kind="w-state")),
     errors.InvalidSpec, "w-state needs n >= 2"),
    # mps.block_rdm
    "block-rdm-block-outside": (lambda: mps.block_rdm(np.zeros(4), (2, 2), [2]),
     errors.DimensionMismatch, r"block \[2\] outside register of 2 sites"),
    "block-rdm-bad-shape": (lambda: mps.block_rdm(np.zeros(3), (2, 2), [0]),
     errors.DimensionMismatch, r"state has shape \(3,\), expected \(4,\)"),
    # linalg.partial_trace
    "partial-trace-zero-dim": (lambda: linalg.partial_trace(np.eye(1), (0,), [0]),
     errors.BadParameter, "site dimensions must be >= 1, got 0"),
    "partial-trace-keep-outside": (lambda: linalg.partial_trace(np.eye(4), (2, 2), [2]),
     errors.DimensionMismatch, "keep site 2 outside register of 2 sites"),
    "partial-trace-duplicates": (lambda: linalg.partial_trace(np.eye(4), (2, 2), [0, 0]),
     errors.BadParameter, "keep sites contain duplicates"),
    # planner
    "copy-scale-epsilon": (lambda: planner.copy_scale_base(2, 1, 0.0),
     errors.BadEpsilon, "epsilon must be in"),
    "solve-p-d": (lambda: planner.solve_p_from_scale(1, 10.0),
     errors.BadParameter, "need d >= 2, got d=1"),
    "select-epsilon-d": (lambda: planner.select_epsilon(4, 1, 2, 0.5),
     errors.BadParameter, "need d >= 2, got d=1"),
    "eta-exact-M": (lambda: planner.eta_exact(0.5, 0),
     errors.BadParameter, "layer count M must be >= 1"),
    # complexity
    "exact-ours-d": (lambda: complexity.budget_exact_ours(4, 1, 2, 0.5, 0.1),
     errors.BadParameter, "d must be >= 2"),
    "exact-ours-delta": (lambda: complexity.budget_exact_ours(4, 2, 2, 0.5, 1.0),
     errors.BadParameter, "delta must be in"),
    "exact-previous-D": (lambda: complexity.budget_exact_previous(4, 0, 0.5, 0.1),
     errors.BadParameter, "D must be >= 1"),
    "closest-ours-D": (lambda: complexity.budget_closest_ours(4, 2, 0, 0.5, 0.1),
     errors.BadParameter, "D must be >= 1"),
    "closest-raw-n": (lambda: complexity.budget_closest_raw(1, 2, 1, 0.5, 0.1),
     errors.BadParameter, "need n >= 2, d >= 2, p >= 1"),
    "closest-raw-delta": (lambda: complexity.budget_closest_raw(4, 2, 1, 0.5, 1.0),
     errors.BadParameter, "delta must be in"),
    "closest-previous-D": (lambda: complexity.budget_closest_previous(4, 0, 0.5, 0.1),
     errors.BadParameter, "D must be >= 1"),
    "dominance-epsilon": (lambda: complexity.dominance_ratio(4, 2, 1, 0.0, 0.5),
     errors.BadParameter, "epsilon must be in"),
    "slope-length": (lambda: complexity.fit_loglog_slope([1.0], [1.0]),
     errors.BadParameter, "equal length >= 2"),
    "slope-non-positive": (lambda: complexity.fit_loglog_slope([1.0, 0.0], [1.0, 2.0]),
     errors.BadParameter, "strictly positive"),
    # disentangler.build_rank_capped
    "rank-capped-p": (lambda: disentangler.build_rank_capped(np.eye(4) / 4, 2, 1, 3),
     errors.BadParameter, "need 0 <= p <= y = 2, got p=3"),
    "rank-capped-D-squared": (lambda: disentangler.build_rank_capped(np.eye(4) / 4, 2, 0, 1),
     errors.BadParameter, "D_squared must be >= 1, got 0"),
    # disentangler.build_rank_capped_from_factor
    "factor-1d": (lambda: disentangler.build_rank_capped_from_factor(np.ones(4), 2, 1, 1),
     errors.BadParameter, r"a factor is a matrix of finite entries, got shape \(4,\)"),
    "factor-nan": (lambda: disentangler.build_rank_capped_from_factor(
        _with(np.ones((4, 2)), (3, 1), np.nan), 2, 1, 1),
     errors.BadParameter, r"a factor is a matrix of finite entries, got shape \(4, 2\)"),
    "factor-inf": (lambda: disentangler.build_rank_capped_from_factor(
        _with(np.ones((4, 2)), (0, 0), np.inf), 2, 1, 1),
     errors.BadParameter, r"a factor is a matrix of finite entries, got shape \(4, 2\)"),
    # linalg.trace_norm
    "trace-norm-nan": (lambda: linalg.trace_norm(_with(np.eye(2), (0, 1), np.nan)),
     errors.BadParameter, "trace norm is nan"),
    "trace-norm-inf": (lambda: linalg.trace_norm(_with(np.eye(2), (1, 0), -np.inf)),
     errors.BadParameter, "trace norm is nan"),
    # tomography.estimate_block
    "exact-oracle-inf-trace": (lambda: tomography.estimate_block(
        _with(np.eye(4) / 4, (1, 1), np.inf), 2),
     errors.BadParameter, r"the marginal is not finite \(its trace is \((-?inf|nan)\+"),
    "noise-oracle-nan-trace": (lambda: tomography.estimate_block(
        _with(np.eye(4) / 4, (2, 2), np.nan), 2, _NOISE),
     errors.BadParameter, r"the marginal is not finite \(its trace is \((-?inf|nan)\+"),
    "sample-oracle-inf-trace": (lambda: tomography.estimate_block(
        _with(np.eye(4) / 4, (0, 0), -np.inf), 2, _SAMPLE),
     errors.BadParameter, r"the marginal is not finite \(its trace is \((-?inf|nan)\+"),
    "noise-oracle-nan-entry": (lambda: tomography.estimate_block(
        _with(np.eye(4) / 4, (0, 3), np.nan), 2, _NOISE),
     errors.BadParameter, r"the marginal is not finite \(its trace is \(1\+0j\)\)"),
    "sample-oracle-inf-entry": (lambda: tomography.estimate_block(
        _with(np.eye(4) / 4, (3, 0), np.inf), 2, _SAMPLE),
     errors.BadParameter, r"the marginal is not finite \(its trace is \(1\+0j\)\)"),
    "stack-modes-differ": (lambda: tomography.estimate_block(
        np.stack([np.eye(4) / 4] * 2), 2, [_NOISE, tomography.BoundedNoiseMode(eta=0.2)]),
     errors.BadParameter, "differing in seeds only; got 2 marginals and 2 modes"),
    "stack-modes-too-few": (lambda: tomography.estimate_block(
        np.stack([np.eye(4) / 4] * 2), 2, [_NOISE]),
     errors.BadParameter, "differing in seeds only; got 2 marginals and 1 modes"),
    # verify.run_suites
    "verify-unknown-suite": (lambda: verify.run_suites(["nope"]),
     errors.BadParameter, "unknown suite 'nope'"),
}


@pytest.mark.parametrize("call, error, message", ROWS.values(), ids=list(ROWS))
def test_each_bad_input_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _oracle(mode):
    """``estimate_block`` under ``mode``, of a marginal or of a stack of them."""
    return lambda a: tomography.estimate_block(a, 2, [mode] * len(a) if a.ndim == 3 else mode)


_QUARTER = np.eye(4) / 4
# (a good member, the first failing one, another failing one), the call and
# the error of the first failing one, which the stack must raise as it does alone
STACKS = {
    "exact-oracle-inf-trace": (
        [_QUARTER, _with(_QUARTER, (1, 1), np.inf), _with(_QUARTER, (2, 2), np.nan)],
        _oracle(tomography.ExactMode()), errors.BadParameter,
    ),
    "noise-oracle-nan-entry": (
        [_QUARTER, _with(_QUARTER, (0, 3), np.nan), _with(_QUARTER, (3, 0), np.inf)],
        _oracle(_NOISE), errors.BadParameter,
    ),
    "sample-oracle-inf-entry": (
        [_QUARTER, _with(_QUARTER, (3, 0), np.inf), _with(_QUARTER, (0, 0), -np.inf)],
        _oracle(_SAMPLE), errors.BadParameter,
    ),
    "rank-capped-off-hermitian": (
        [_QUARTER, _with(_QUARTER, (0, 1), 1e-3), _with(_QUARTER, (2, 3), 1e-2)],
        lambda a: disentangler.build_rank_capped(a, 2, 1, 1), errors.NonHermitian,
    ),
    "rank-capped-non-finite": (
        [_QUARTER, _with(_QUARTER, (0, 1), np.nan), _with(_QUARTER, (2, 3), 1e-2)],
        lambda a: disentangler.build_rank_capped(a, 2, 1, 1), errors.NonHermitian,
    ),
    "trace-norm-nan": (
        [_QUARTER, _with(_QUARTER, (0, 1), np.nan), _with(_QUARTER, (1, 0), -np.inf)],
        linalg.trace_norm, errors.BadParameter,
    ),
}


@pytest.mark.parametrize("members, call, error", STACKS.values(), ids=list(STACKS))
def test_a_stack_raises_what_its_first_failing_member_raises_alone(members, call, error):
    with pytest.raises(error) as alone:
        call(members[1])
    with pytest.raises(error) as stacked:
        call(np.stack(members))
    assert str(stacked.value) == str(alone.value)


def _learn_config(tmp_path, doc):
    state = tmp_path / "state.json"
    mps.save_mps(mps.random_mps(mps.StateSpec(n=4, d=2, D=2, seed=1)), state)
    doc = {"state": str(state), "D": 2, "epsilon": 0.25, "delta": 0.01, **doc}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gen", lambda tmp_path: "[]", "config must be a JSON object"),
        ("learn", lambda tmp_path: "[]", "config must be a JSON object"),
        (
            "learn",
            lambda tmp_path: _learn_config(tmp_path, {"oracle": "psychic"}),
            "unknown oracle 'psychic'",
        ),
    ],
)
def test_the_cli_exits_2_on_each_bad_config(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(config(tmp_path))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
