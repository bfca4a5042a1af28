"""Scaling-law and copy-budget formula tests."""

import math

import numpy as np
import pytest

from mpslearn import complexity, disentangler, errors, linalg, mps, planner, tomography


DELTA = 1e-3


def n_slope(formula, n_values, strip_log=True, correct_L=False, **kw):
    """Fitted log-log slope in n, with the log(n/delta) factor divided out."""
    ys = []
    for n in n_values:
        y = formula(n=n, delta=DELTA, **kw)
        if strip_log:
            y /= math.log(n / DELTA)
        if correct_L:
            B = planner.copy_scale_base(n, kw["D"], kw["epsilon"])
            y *= math.log(math.log(kw["d"]) * B) ** 7
        ys.append(y)
    return complexity.fit_loglog_slope(n_values, ys)


def eps_slope(formula, eps_values, correct_L=False, **kw):
    """Fitted log-log slope against 1/epsilon."""
    ys = []
    for eps in eps_values:
        y = formula(epsilon=eps, delta=DELTA, **kw)
        if correct_L:
            B = planner.copy_scale_base(kw["n"], kw["D"], eps)
            y *= math.log(math.log(kw["d"]) * B) ** 7
        ys.append(y)
    return complexity.fit_loglog_slope([1.0 / e for e in eps_values], ys)


def test_fit_loglog_slope_recovers_power_law():
    xs = np.linspace(2, 50, 20)
    ys = 3.7 * xs**2.5
    assert abs(complexity.fit_loglog_slope(xs, ys) - 2.5) < 1e-12


def test_n_slopes_of_polynomial_formulas():
    ns = [2**k for k in range(3, 11)]
    s_ours = n_slope(complexity.budget_exact_ours, ns, d=2, D=2, epsilon=0.1)
    s_prev = n_slope(complexity.budget_exact_previous, ns, D=2, epsilon=0.1)
    s_closest_prev = n_slope(
        complexity.budget_closest_previous, ns, D=2, epsilon=0.1
    )
    assert abs(s_ours - 3.0) < 0.05
    assert abs(s_prev - 5.0) < 0.05
    assert abs(s_closest_prev - 9.0) < 0.05


def test_n_slope_of_competitive_formula_after_scale_correction():
    ns = [2**k for k in range(6, 13)]
    slope = n_slope(
        complexity.budget_closest_ours, ns, d=2, D=2, epsilon=0.01, correct_L=True
    )
    assert abs(slope - 7.0) < 0.05


def test_eps_slopes_of_polynomial_formulas():
    eps = list(np.geomspace(1e-4, 1e-2, 8))
    s_ours = eps_slope(complexity.budget_exact_ours, eps, n=16, d=2, D=2)
    s_prev = eps_slope(complexity.budget_exact_previous, eps, n=16, D=2)
    s_closest_prev = eps_slope(complexity.budget_closest_previous, eps, n=16, D=2)
    assert abs(s_ours - 4.0) < 0.05
    assert abs(s_prev - 4.0) < 0.05
    assert abs(s_closest_prev - 8.0) < 0.05


def test_eps_slope_of_competitive_formula_after_scale_correction():
    eps = list(np.geomspace(1e-6, 1e-5, 8))
    slope = eps_slope(
        complexity.budget_closest_ours, eps, n=16, d=2, D=2, correct_L=True
    )
    assert abs(slope - 12.0) < 0.05


def test_log_factor_strip_matters_at_desk_scale():
    # without dividing out log(n/delta) the fitted exponent drifts above
    # the polynomial degree by more than the acceptance tolerance
    ns = [2**k for k in range(3, 11)]
    stripped = n_slope(complexity.budget_exact_ours, ns, d=2, D=2, epsilon=0.1)
    raw = n_slope(
        complexity.budget_exact_ours, ns, strip_log=False, d=2, D=2, epsilon=0.1
    )
    assert abs(stripped - 3.0) < 0.05
    assert raw - 3.0 > 0.05


def test_raw_total_equals_closed_form_times_substitution_constant():
    # substituting the per-call accuracy's closed form into the raw total
    # must reproduce the closed-form budget up to the documented constant
    # and the (L / (p log d))**7 residual
    for n, D, eps, d in [(16, 2, 0.1, 2), (32, 2, 0.05, 2), (24, 3, 0.2, 2), (16, 2, 0.1, 3)]:
        sol = planner.solve_p_closest(n, d, D, eps)
        p = sol.p_candidate
        eta = planner.eta_closest(eps, p, D, n)
        raw = complexity.budget_closest_raw(n, d, p, eta, DELTA)
        closed = complexity.budget_closest_ours(n, d, D, eps, DELTA)
        B = planner.copy_scale_base(n, D, eps)
        L = math.log(math.log(d) * B)
        residual = (L / (p * math.log(d))) ** 7
        expected = complexity.ETA_SUBSTITUTION_CONSTANT * residual
        assert abs(raw / closed - expected) < 1e-9 * expected


def test_normalized_residual_stays_in_unit_bracket():
    for n in (8, 16, 32, 64):
        for eps in (0.05, 0.1, 0.2):
            sol = planner.solve_p_closest(n, 2, 2, eps)
            eta = planner.eta_closest(eps, sol.p_candidate, 2, n)
            raw = complexity.budget_closest_raw(n, 2, sol.p_candidate, eta, DELTA)
            closed = complexity.budget_closest_ours(n, 2, 2, eps, DELTA)
            normalized = raw / (closed * complexity.ETA_SUBSTITUTION_CONSTANT)
            assert 1.0 / 8.0 <= normalized <= 8.0


def test_dominance_ratio_above_one_on_regime_grid():
    for n in (8, 16, 32, 64):
        # exact variant: p from the bond promise, eta from the layer budget
        p = planner.p_exact(2, 2)
        M = 1
        while 2**M * p < n:
            M += 1
        eta = planner.eta_exact(0.2, M)
        assert complexity.dominance_ratio(n, 2, p, 0.2, eta) > 1.0
        # competitive variant
        sol = planner.solve_p_closest(n, 2, 2, 0.2)
        eta_c = planner.eta_closest(0.2, sol.p_candidate, 2, n)
        assert complexity.dominance_ratio(n, 2, sol.p_candidate, 0.2, eta_c) > 1.0


def test_budget_validation():
    with pytest.raises(errors.DegenerateD):
        complexity.budget_exact_ours(16, 2, 1, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_exact_ours(1, 2, 2, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_closest_raw(16, 2, 3, 1.5, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.dominance_ratio(16, 2, 0, 0.1, 0.01)
    # an integer past a float's range is refused, not raised as OverflowError
    with pytest.raises(errors.BadParameter):
        complexity.budget_exact_ours(16, 2, 10**400, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_exact_ours(10**400, 2, 2, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_exact_previous(16, 10**400, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_closest_ours(16, 10**400, 2, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_closest_previous(10**400, 2, 0.1, DELTA)
    with pytest.raises(errors.BadParameter):
        complexity.budget_closest_raw(10**400, 2, 3, 0.1, DELTA)
    # powers too large to compute or to convert, and a float product that reads inf
    with pytest.raises(errors.BadParameter):
        complexity.dominance_ratio(16, 2, 10**400, 0.1, 0.01)
    with pytest.raises(errors.BadParameter):
        complexity.dominance_ratio(16, 2, 512, 0.1, 0.01)
    with pytest.raises(errors.BadParameter, match="value exceeds"):
        complexity.budget_closest_ours(16, 2, 10**25, 0.2, 0.01)


HUGE = 10**5000  # 16610 bits: Python refuses to format an integer of over 4300 digits


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: complexity.budget_exact_ours(16, 2, 2, HUGE, DELTA), errors.BadParameter),
        (lambda: complexity.budget_closest_raw(16, 2, 3, HUGE, DELTA), errors.BadParameter),
        (lambda: complexity.dominance_ratio(16, 2, 2, 0.1, HUGE), errors.BadParameter),
        (lambda: planner.p_exact(2, -HUGE), errors.BadParameter),
        (lambda: planner.plan_layers(8, 2, HUGE), errors.TooSmall),
        (lambda: planner.eta_exact(HUGE, 3), errors.BadEpsilon),
        (lambda: planner.eta_closest(0.1, 2, -HUGE, 16), errors.BadParameter),
        (lambda: planner.copy_scale_base(16, -HUGE, 0.1), errors.BadParameter),
        (lambda: planner.lambert_w(-HUGE), errors.NegativeArgument),
        # arguments inside each check, whose formula leaves a float's range
        (lambda: planner.eta_exact(0.1, HUGE), errors.BadParameter),
        (lambda: planner.eta_closest(0.1, 2, HUGE, 16), errors.BadParameter),
        (lambda: planner.lambert_w(HUGE), errors.BadParameter),
        # an eta this large passes the range check; its square overflows the division
        (lambda: tomography.budget_rank_constrained(1.0, 2, 2, 2, HUGE, DELTA),
         errors.BadParameter),
        (lambda: tomography.budget_general(1.0, 2, 2, 0.1, HUGE), errors.BadParameter),
        # an exact power d**r_minus_i this large would never be formed
        (lambda: tomography.budget_general(1.0, 2, HUGE, 0.1, DELTA), errors.BadParameter),
        (lambda: tomography.budget_rank_constrained(1.0, 2, 2, HUGE, 0.1, DELTA),
         errors.BadParameter),
        # a d that no float can hold
        (lambda: planner.select_epsilon(16, HUGE, 2, 0.1), errors.BadParameter),
        (lambda: planner.solve_p_closest(16, HUGE, 2, 0.1), errors.BadParameter),
        (lambda: planner.solve_p_from_scale(HUGE, 1.0), errors.BadParameter),
        (lambda: disentangler.build_threshold(np.eye(2) / 2, 2, -HUGE), errors.BadParameter),
        (lambda: linalg.numerical_rank(np.eye(2), -HUGE), errors.BadParameter),
        (lambda: mps.StateSpec(n=-HUGE, d=2, D=2), errors.InvalidSpec),
        (lambda: mps.StateSpec(n=3, d=HUGE, D=2, kind="ghz"), errors.InvalidSpec),
        (lambda: mps.MatrixProductState(HUGE, 2, "open", [np.ones((2, 1, 1))]),
         errors.DimensionMismatch),
    ],
    ids=["budget_exact_ours", "budget_closest_raw", "dominance_ratio", "p_exact", "plan_layers",
         "eta_exact", "eta_closest", "copy_scale_base", "lambert_w", "eta_exact_huge_M",
         "eta_closest_huge_D", "lambert_w_huge_z", "budget_rank_constrained", "budget_general",
         "budget_general_huge_r", "budget_rank_constrained_huge_r", "select_epsilon_huge_d",
         "solve_p_closest_huge_d", "solve_p_from_scale_huge_d",
         "build_threshold", "numerical_rank", "StateSpec", "StateSpec_ghz", "MatrixProductState"],
)
def test_a_huge_integer_argument_is_named_by_its_size(call, error):
    with pytest.raises(error, match="an integer of 16610 bits"):
        call()
