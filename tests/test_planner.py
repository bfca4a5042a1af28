"""Layer schedule and block-size solver tests."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mpslearn import errors, planner


def bisect_lambert(z, lo=0.0, hi=None):
    """Independent W(z) for z > 0 by plain bisection on w * exp(w)."""
    if hi is None:
        hi = max(1.0, math.log(z + 1.0) + 1.0)
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = (lo + hi) / 2
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def brute_force_block_size(d, B, p_max=80):
    """Scan for the integer p with p * d**(p-1) < B <= p * d**p."""
    for p in range(1, p_max + 1):
        if p * float(d) ** (p - 1) < B <= p * float(d) ** p:
            return p
    return None


def check_partition(plan):
    """Each layer's blocks partition the sites carried into that layer."""
    current = list(range(1, plan.n + 1))
    for layer in plan.layers:
        covered = [s for block in layer for s in block.support]
        assert sorted(covered) == current
        for block in layer:
            assert block.support == block.projected + block.carried
            assert list(block.support) == sorted(block.support)
        current = sorted(s for block in layer for s in block.carried)
    return current


def test_golden_plan_n29():
    plan = planner.plan_layers(29, 2, 2)
    assert plan.M == 4
    assert plan.ell1 == 7
    assert plan.s1 == 1
    assert plan.k1 == 27
    assert not plan.s1_amended
    first = plan.blocks(1)
    assert first[0].support == (1, 2, 3, 4)
    assert first[6].support == (25, 26, 27)
    assert first[6].projected == (25,)
    assert first[7].support == (28, 29)
    assert not first[7].acted
    assert first[7].carried == (28, 29)


def test_golden_plan_layer_counts():
    plan = planner.plan_layers(29, 2, 2)
    assert [len(layer) for layer in plan.layers] == [8, 4, 2, 1]
    assert len(plan.final_carried) == 2


def check_plan(n, p):
    plan = planner.plan_layers(n, 2, p)
    final = check_partition(plan)
    assert plan.total_projected == n - p
    assert list(plan.final_carried) == final == list(range(n - p + 1, n + 1))
    assert 2**plan.M * p >= n
    assert plan.M == 1 or 2 ** (plan.M - 1) * p < n
    # what load_circuit relies on: an acted block sheds its 1..p leading
    # sites and carries p, so its isometry has d**(2p + f) >= f entries
    for layer in plan.layers:
        for block in layer:
            assert block.acted == (block.f > 0)
            assert block.f <= p and len(block.carried) == (p if block.acted else len(block.support))


def test_plan_partition_and_total_shed_sweep():
    for p in range(1, 5):
        for n in range(p + 1, 65):
            check_plan(n, p)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 8), n=st.integers(2, 2048))
@example(p=1, n=2048)
@example(p=8, n=2048)
def test_plan_partition_and_total_shed_up_to_n_2048(p, n):
    assume(n > p)
    check_plan(n, p)


# sha256 of the reprs of the grid's plans, in this order: a change to any plan shows here
PLAN_GRID_DIGEST = "0d56fcbcbe598d8427ef253660adc28a5f0a6856827581d93a82fe0fe7f55c3c"


def test_plans_over_a_grid_match_their_pinned_digest():
    digest = hashlib.sha256()
    for d in (2, 3):
        for p in range(1, 9):
            for n in range(p + 1, 130):
                digest.update(repr(planner.plan_layers(n, d, p)).encode())
    assert digest.hexdigest() == PLAN_GRID_DIGEST


def test_plan_blocks_halve_per_layer():
    plan = planner.plan_layers(40, 2, 2)
    counts = [len(layer) for layer in plan.layers]
    for a, b in zip(counts, counts[1:]):
        assert b == a // 2


def test_plan_blocks_take_only_a_layer_of_the_plan():
    # layers are numbered 1..M; 0, -1 and M + 1 would index the tuple from
    # the back or past its end, and a bool or a float is no layer number
    plan = planner.plan_layers(40, 2, 2)
    assert plan.M == 5
    assert [plan.blocks(j) for j in range(1, 6)] == list(plan.layers)
    assert plan.blocks(np.int64(2)) == plan.layers[1]
    for j in (0, -1, 6, True, 1.0, 1.5, "1", None):
        with pytest.raises(errors.BadParameter, match="layer must be an integer in 1..5"):
            plan.blocks(j)


def test_plan_carried_tails_stay_contiguous():
    # after any layer, each surviving block tail must be an unbroken run of
    # the surviving sites, so block tomography on the collapsed register
    # always sees a contiguous window
    for n in (9, 17, 29, 40, 53):
        plan = planner.plan_layers(n, 2, 2)
        for layer in plan.layers:
            survivors = sorted(s for block in layer for s in block.carried)
            position = {s: k for k, s in enumerate(survivors)}
            for block in layer:
                spots = [position[s] for s in block.carried]
                assert spots == list(range(spots[0], spots[0] + len(spots)))


def test_s1_amendment_keeps_full_final_block():
    # when the overhang divides evenly the last acted block is widened to 2p
    plan = planner.plan_layers(12, 2, 2)
    assert plan.s1_amended
    assert plan.s1 == 2
    check_partition(plan)
    assert plan.total_projected == 10


def test_plan_validation():
    with pytest.raises(errors.TooSmall):
        planner.plan_layers(2, 2, 2)
    with pytest.raises(errors.BadParameter):
        planner.plan_layers(8, 2, 0)
    with pytest.raises(errors.BadParameter):
        planner.plan_layers(8, 1, 2)


def test_p_exact_values():
    assert planner.p_exact(2, 1) == 0
    assert planner.p_exact(2, 2) == 2
    assert planner.p_exact(2, 3) == 4
    assert planner.p_exact(2, 4) == 4
    assert planner.p_exact(2, 5) == 6
    assert planner.p_exact(3, 3) == 2
    assert planner.p_exact(3, 9) == 4


def test_lambert_w_residuals_and_oracle():
    # the last z is past 1e307, where the Halley step is taken divided by exp(w)
    for z in [*np.logspace(-6, 12, 60), 3.081701135266179e307]:
        w = planner.lambert_w(float(z))
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)
        assert abs(w - bisect_lambert(float(z))) <= 1e-9 * max(1.0, w)


def test_lambert_w_known_points():
    assert abs(planner.lambert_w(math.e) - 1.0) < 1e-14
    assert abs(planner.lambert_w(0.0)) < 1e-14
    assert abs(planner.lambert_w(2.0 * math.exp(2.0)) - 2.0) < 1e-13


def test_lambert_w_sandwich_bounds():
    for z in np.logspace(math.log10(math.e + 1e-6), 10, 200):
        w = planner.lambert_w(float(z))
        assert math.log(z) - math.log(math.log(z)) < w < math.log(z)


def test_lambert_w_rejects_negative():
    with pytest.raises(errors.NegativeArgument):
        planner.lambert_w(-0.5)


def test_solver_bracket_width_below_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        B = float(10 ** rng.uniform(0.5, 14))
        sol = planner.solve_p_from_scale(d, B)
        assert 0.0 < sol.b - sol.a < 1.0


def test_solver_matches_brute_force_scan():
    rng = np.random.default_rng(1)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        B = float(10 ** rng.uniform(0.3, 12))
        sol = planner.solve_p_from_scale(d, B)
        expected = brute_force_block_size(d, B)
        if expected is None:
            assert not sol.exists
        else:
            assert sol.exists
            assert sol.p_candidate == expected


def test_engineered_scale_hits_exact_block_size():
    for d in (2, 3, 4):
        for m in range(1, 13):
            sol = planner.solve_p_from_scale(d, float(m) * float(d) ** m)
            assert sol.exists
            assert sol.p_candidate == m


def test_the_solver_holds_near_the_top_of_the_float_range():
    # B = m * d**(m-1), so z = B ln d is past 1e307, where (w + 2) * f overflows
    for d, m in [(2, 1013), (2, 1014), (3, 640), (4, 507)]:
        B = m * float(d) ** (m - 1)
        sol = planner.solve_p_from_scale(d, B)
        assert (sol.p_candidate, sol.exists) == (m, True)
        assert abs(sol.a * float(d) ** sol.a - B) <= 1e-12 * B


def test_select_epsilon_fixed_point():
    for n, d, D, target in [(8, 2, 2, 0.2), (12, 2, 2, 0.35), (20, 2, 3, 0.1)]:
        m, eps = planner.select_epsilon(n, d, D, target)
        assert 0 < eps <= target
        B = planner.copy_scale_base(n, D, eps)
        assert abs(B - m * float(d) ** m) <= 1e-6 * B
        sol = planner.solve_p_closest(n, d, D, eps)
        assert sol.exists
        assert sol.p_candidate == m


def test_copy_scale_base_formula():
    n, D, eps = 10, 2, 0.25
    expected = 64.0 * n * D * D / (planner.SQRT2_GAP * eps * eps)
    assert abs(planner.copy_scale_base(n, D, eps) - expected) < 1e-9 * expected


def test_eta_formulas():
    eps = 0.2
    assert abs(
        planner.eta_exact(eps, 3) - planner.SQRT2_GAP * eps**2 / 2**8
    ) < 1e-18
    assert abs(
        planner.eta_closest(eps, 4, 2, 12)
        - planner.SQRT2_GAP * eps**2 * 4 / (64.0 * 4 * 12)
    ) < 1e-18
    with pytest.raises(errors.BadEpsilon):
        planner.eta_exact(0.0, 3)
    with pytest.raises(errors.BadEpsilon):
        planner.eta_closest(1.5, 4, 2, 12)


def test_eta_shrinks_with_system_size():
    etas = [planner.eta_exact(0.2, M) for M in range(1, 6)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
