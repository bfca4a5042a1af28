"""Runnable property suites for the learner's structural guarantees.

Each suite bundles related invariants into seeded, desk-scale checks that
finish in seconds.  The CLI exposes them through ``verify``; the test suite
reuses them so the command line and CI agree on what "healthy" means.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import complexity, linalg, mps, tomography
from .backend import StateBackend
from .disentangler import build_rank_capped, build_threshold
from .errors import BadParameter
from .learner import LearnSchedule, learn
from .planner import (
    SQRT2_GAP,
    copy_scale_base,
    eta_closest,
    eta_exact,
    lambert_w,
    p_exact,
    plan_layers,
    solve_p_closest,
)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # Comparisons on numpy scalars yield numpy bools, which JSON rejects.
        object.__setattr__(self, "passed", bool(self.passed))


@dataclasses.dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


AVAILABLE_SUITES = (
    "rank",
    "eckart-young",
    "monotonicity",
    "layer-bounds",
    "lambert",
    "plan",
    "dominance",
)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _suite_rank(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    cases = [(6, 2, 2), (5, 3, 2), (6, 2, 3)]
    for case_index, (n, d, D) in enumerate(cases):
        state = mps.random_mps(
            mps.StateSpec(n=n, d=d, D=D, boundary="periodic", seed=seed + case_index)
        )
        vec = mps.expand(state)
        dims = [d] * n
        worst = 0
        for length in range(1, n):
            for start in range(n - length + 1):
                block = list(range(start, start + length))
                rho = mps.block_rdm(vec, dims, block)
                worst = max(worst, linalg.numerical_rank(rho, tol=1e-10))
        checks.append(
            CheckResult(
                name=f"block-rank n={n} d={d} D={D}",
                passed=worst <= D * D,
                detail=f"max block rank {worst} vs cap {D * D}",
            )
        )
        rng = np.random.default_rng(seed + 100 + case_index)
        block = list(range(1, 1 + max(1, n // 2)))
        complement = [s for s in range(n) if s not in block]
        backend = StateBackend(vec, d)
        backend.apply_unitary(_haar_unitary(d ** len(block), rng), block)
        backend.apply_unitary(_haar_unitary(d ** len(complement), rng), complement)
        before = linalg.numerical_rank(mps.block_rdm(vec, dims, block), tol=1e-10)
        after = linalg.numerical_rank(backend.rdm(block), tol=1e-10)
        checks.append(
            CheckResult(
                name=f"rank-invariance n={n} d={d} D={D}",
                passed=before == after,
                detail=f"rank {before} -> {after} under split-local rotation",
            )
        )
    for n, d, D in [(6, 2, 2), (5, 2, 3)]:
        state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, boundary="open", seed=seed + 7))
        for cut in range(1, n):
            rank = mps.schmidt_rank(state, cut)
            bound = min(D, d**cut, d ** (n - cut))
            if rank > bound:
                checks.append(
                    CheckResult(
                        name=f"schmidt n={n} cut={cut}",
                        passed=False,
                        detail=f"schmidt rank {rank} exceeds {bound}",
                    )
                )
                break
        else:
            checks.append(
                CheckResult(
                    name=f"schmidt n={n} d={d} D={D}",
                    passed=True,
                    detail="all cut ranks within the bond profile",
                )
            )
    return SuiteResult("rank", tuple(checks))


def _suite_eckart_young(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    d, n, D, p = 2, 6, 2, 2
    eta = 1e-3
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, boundary="periodic", seed=seed))
    vec = mps.expand(state)
    dims = [d] * n
    block = [1, 2, 3, 4]
    sigma = mps.block_rdm(vec, dims, block)
    noisy = tomography.estimate_block(
        sigma, d, tomography.BoundedNoiseMode(eta=eta, seed=seed + 1)
    ).estimate
    dz = build_rank_capped(noisy, d, D * D, p)
    y = len(block)
    rotated = dz.unitary @ noisy @ dz.unitary.conj().T
    kept = d**p
    kept_mass = float(np.real(np.trace(rotated[:kept, :kept])))
    values, _ = linalg.hermitian_eig(noisy)
    top = float(np.sum(values[:kept]))
    checks.append(
        CheckResult(
            name="kept-sector-mass-is-top-eigenvalue-sum",
            passed=abs(kept_mass - top) < 1e-10,
            detail=f"|{kept_mass:.12f} - {top:.12f}| = {abs(kept_mass - top):.2e}",
        )
    )
    rotated_true = dz.unitary @ sigma @ dz.unitary.conj().T
    kept_true = float(np.real(np.trace(rotated_true[:kept, :kept])))
    mu = float(np.real(np.trace(sigma)))
    checks.append(
        CheckResult(
            name="true-state-mass-loss-bounded",
            passed=kept_true >= mu - 2.0 * eta - 1e-12,
            detail=f"kept {kept_true:.9f} vs mu - 2 eta = {mu - 2 * eta:.9f}",
        )
    )
    tz = build_threshold(noisy, d, eta)
    m = tz.selected.shape[1]
    below = values[m:]
    checks.append(
        CheckResult(
            name="threshold-discards-only-small-eigenvalues",
            passed=bool(np.all(below <= eta + 1e-12)),
            detail=f"largest discarded eigenvalue {float(below[0]) if below.size else 0.0:.3e}",
        )
    )
    checks.append(
        CheckResult(
            name="threshold-count-below-budget-inverse",
            passed=m < 1.0 / eta,
            detail=f"m = {m} < 1/eta = {1.0 / eta:.1f}",
        )
    )
    return SuiteResult("eckart-young", tuple(checks))


def _suite_monotonicity(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    worst = 0.0
    for k in range(3):
        state = mps.random_mps(
            mps.StateSpec(n=10, d=2, D=2, boundary="periodic", seed=seed + k)
        )
        _, report = learn(state, 2, 2, 0.2, 0.05, audit=True)
        trail = report.audit
        margins = [trail.monotonicity_margin(j) for j in range(1, trail.M + 1)]
        worst = min([worst] + margins)
    checks.append(
        CheckResult(
            name="stage-operators-non-increasing",
            passed=worst >= -1e-10,
            detail=f"smallest eigenvalue of any stage difference: {worst:.3e}",
        )
    )
    state = mps.random_mps(mps.StateSpec(n=10, d=2, D=2, boundary="periodic", seed=seed))
    _, noisy_report = learn(
        state, 2, 2, 0.2, 0.05,
        mode=tomography.BoundedNoiseMode(eta=None, seed=seed),
        audit=True,
    )
    trail = noisy_report.audit
    masses = [trail.success_mass(j) for j in range(trail.M + 1)]
    ok = all(masses[j] <= masses[j - 1] + 1e-10 for j in range(1, len(masses)))
    checks.append(
        CheckResult(
            name="success-mass-non-increasing",
            passed=ok,
            detail=" -> ".join(f"{m:.6f}" for m in masses),
        )
    )
    return SuiteResult("monotonicity", tuple(checks))


def _suite_layer_bounds(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    state = mps.random_mps(mps.StateSpec(n=10, d=2, D=2, boundary="periodic", seed=seed))
    phi = mps.expand(state)
    epsilon = 0.25
    _, report = learn(
        state, 2, 2, epsilon, 0.05,
        mode=tomography.BoundedNoiseMode(eta=None, seed=seed),
        audit=True,
    )
    trail = report.audit
    fids = [trail.fidelity_against(phi, j) for j in range(trail.M + 1)]
    ok = True
    detail = []
    for j in range(1, trail.M + 1):
        drop = fids[j - 1] - fids[j]
        bound = report.per_layer[j - 1].drop_bound
        detail.append(f"layer {j}: drop {drop:.3e} <= {bound:.3e}")
        if drop > bound + 1e-9:
            ok = False
    checks.append(
        CheckResult(
            name="per-layer-fidelity-drop-bounded",
            passed=ok,
            detail="; ".join(detail),
        )
    )
    checks.append(
        CheckResult(
            name="final-fidelity-above-target",
            passed=report.final_fidelity >= 1.0 - epsilon - 1e-9,
            detail=f"fidelity {report.final_fidelity:.9f} vs 1 - epsilon = {1 - epsilon}",
        )
    )
    n, d, D = 10, 2, 2
    plan = plan_layers(n, d, 2)
    eta = eta_closest(0.5, 2, D, n)
    _, report_c = learn(
        state, d, D, 0.5, 0.05,
        variant="closest",
        mode=tomography.BoundedNoiseMode(eta=None, seed=seed + 1),
        audit=True,
        schedule=LearnSchedule(plan=plan, eta=eta),
    )
    trail_c = report_c.audit
    fids_c = [trail_c.fidelity_against(phi, j) for j in range(trail_c.M + 1)]
    ok_c = all(
        fids_c[j - 1] - fids_c[j] <= report_c.per_layer[j - 1].drop_bound + 1e-9
        for j in range(1, trail_c.M + 1)
    )
    checks.append(
        CheckResult(
            name="competitive-drop-bound-under-schedule",
            passed=ok_c,
            detail="; ".join(f"{fids_c[j - 1] - fids_c[j]:.3e}" for j in range(1, trail_c.M + 1)),
        )
    )
    return SuiteResult("layer-bounds", tuple(checks))


def _bisect_lambert(z: float) -> float:
    lo, hi = 0.0, max(1.0, math.log(z + 1.0) + 1.0)
    while hi * math.exp(hi) < z:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _suite_lambert(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    zs = np.logspace(-3, 6, 40)
    worst = 0.0
    for z in zs:
        w = lambert_w(float(z))
        worst = max(worst, abs(w * math.exp(w) - z) / z)
    checks.append(
        CheckResult(
            name="defining-equation-residual",
            passed=worst < 1e-10,
            detail=f"max relative residual {worst:.2e} over {len(zs)} points",
        )
    )
    worst_gap = 0.0
    for z in np.logspace(-2, 5, 20):
        w = lambert_w(float(z))
        w_ref = _bisect_lambert(float(z))
        worst_gap = max(worst_gap, abs(w - w_ref))
    checks.append(
        CheckResult(
            name="agrees-with-bisection",
            passed=worst_gap < 1e-9,
            detail=f"max |halley - bisection| = {worst_gap:.2e}",
        )
    )
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 200))
        D = int(rng.integers(1, 10))
        d = int(rng.integers(2, 6))
        epsilon = float(rng.uniform(0.01, 1.0))
        sol = solve_p_closest(n, d, D, epsilon)
        if not (0.0 < sol.b - sol.a < 1.0):
            ok = False
            break
    checks.append(
        CheckResult(
            name="bracket-width-in-unit-interval",
            passed=ok,
            detail="b - a in (0, 1) on 200 random scales",
        )
    )
    return SuiteResult("lambert", tuple(checks))


def _suite_plan(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    ok = True
    bad = ""
    for n in range(3, 41):
        for p in (1, 2, 3):
            if n <= p:
                continue
            plan = plan_layers(n, 2, p)
            seen: list[int] = []
            for j in range(1, plan.M + 1):
                for b in plan.blocks(j):
                    seen.extend(b.projected)
            covered = sorted(seen) == list(range(1, n - p + 1)) or sorted(
                seen + list(plan.final_carried)
            ) == list(range(1, n + 1))
            if len(seen) != n - p or not covered:
                ok = False
                bad = f"n={n} p={p}: projected {len(seen)} sites"
                break
            if plan.final_carried != tuple(range(n - p + 1, n + 1)):
                ok = False
                bad = f"n={n} p={p}: tail {plan.final_carried}"
                break
        if not ok:
            break
    checks.append(
        CheckResult(
            name="partition-covers-register",
            passed=ok,
            detail=bad or "every plan sheds n - p sites and carries the last p",
        )
    )
    plan = plan_layers(29, 2, 2)
    golden = (
        plan.M == 4
        and plan.ell1 == 7
        and plan.s1 == 1
        and plan.k1 == 27
        and plan.blocks(1)[0].support == (1, 2, 3, 4)
        and plan.blocks(1)[6].support == (25, 26, 27)
        and plan.blocks(1)[7].support == (28, 29)
    )
    checks.append(
        CheckResult(
            name="reference-plan-n29-p2",
            passed=golden,
            detail=f"M={plan.M} ell1={plan.ell1} s1={plan.s1} k1={plan.k1}",
        )
    )
    return SuiteResult("plan", tuple(checks))


def _suite_dominance(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    ok = True
    worst = math.inf
    for n in (16, 64, 256):
        for d in (2, 3):
            for D in (2, 4):
                for epsilon in (0.5, 0.1, 0.01):
                    p = p_exact(d, D)
                    plan = plan_layers(n, d, p)
                    eta = eta_exact(epsilon, plan.M)
                    ratio = complexity.dominance_ratio(n, d, p, epsilon, eta)
                    worst = min(worst, ratio)
                    if ratio <= 1.0:
                        ok = False
    checks.append(
        CheckResult(
            name="tree-stages-dominate-exact",
            passed=ok,
            detail=f"smallest ratio {worst:.3e}",
        )
    )
    ok = True
    worst = math.inf
    for n in (16, 64, 256):
        for d in (2, 3):
            for D in (2, 4):
                for epsilon in (0.5, 0.1, 0.01):
                    sol = solve_p_closest(n, d, D, epsilon)
                    p = sol.p_candidate if sol.exists else max(1, sol.p_candidate)
                    eta = eta_closest(epsilon, p, D, n)
                    if not 0.0 < eta < 1.0:
                        continue
                    ratio = complexity.dominance_ratio(n, d, p, epsilon, eta)
                    worst = min(worst, ratio)
                    if ratio <= 1.0:
                        ok = False
    checks.append(
        CheckResult(
            name="tree-stages-dominate-competitive",
            passed=ok,
            detail=f"smallest ratio {worst:.3e}",
        )
    )
    return SuiteResult("dominance", tuple(checks))


_SUITE_FUNCTIONS = {
    "rank": _suite_rank,
    "eckart-young": _suite_eckart_young,
    "monotonicity": _suite_monotonicity,
    "layer-bounds": _suite_layer_bounds,
    "lambert": _suite_lambert,
    "plan": _suite_plan,
    "dominance": _suite_dominance,
}


def run_suites(names: list[str], seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (or all of them for ``["all"]``) and collect results."""
    if names == ["all"]:
        names = list(AVAILABLE_SUITES)
    results = []
    for name in names:
        if name not in _SUITE_FUNCTIONS:
            raise BadParameter(
                f"unknown suite {name!r}; choose from {', '.join(AVAILABLE_SUITES)} or 'all'"
            )
        results.append(_SUITE_FUNCTIONS[name](seed))
    return results
