"""Runnable property suites for the learner's structural guarantees.

Each suite bundles related invariants into seeded, desk-scale checks that
finish in seconds.  The CLI exposes them through ``verify``, and
``tests/test_cli.py`` runs every suite through that command, so a suite
that fails also fails the tests.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import complexity, linalg, mps, tomography
from .backend import StateBackend
from .disentangler import build_rank_capped, build_threshold
from .errors import BadParameter, shown
from .learner import LearnSchedule, learn
from .planner import (
    LayerPlan,
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
        bounds = [min(D, d**cut, d ** (n - cut)) for cut in range(1, n)]
        over = [
            (cut, rank, bound)
            for cut, (rank, bound) in enumerate(zip(mps.schmidt_profile(state), bounds), start=1)
            if rank > bound
        ]
        if over:
            cut, rank, bound = over[0]
            name, detail = f"schmidt n={n} cut={cut}", f"schmidt rank {rank} exceeds {bound}"
        else:
            name, detail = f"schmidt n={n} d={d} D={D}", "all cut ranks within the bond profile"
        checks.append(CheckResult(name, not over, detail))
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
    w, kept = dz.isometry, d**p
    kept_mass = float(np.real(np.trace(w.conj().T @ noisy @ w)))
    values, _ = linalg.hermitian_eig(noisy)
    top = float(np.sum(values[:kept]))
    checks.append(
        CheckResult(
            name="kept-sector-mass-is-top-eigenvalue-sum",
            passed=abs(kept_mass - top) < 1e-10,
            detail=f"|{kept_mass:.12f} - {top:.12f}| = {abs(kept_mass - top):.2e}",
        )
    )
    kept_true = float(np.real(np.trace(w.conj().T @ sigma @ w)))
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
    n, d, D = 10, 2, 2
    state = mps.random_mps(mps.StateSpec(n=n, d=d, D=D, boundary="periodic", seed=seed))
    phi = mps.expand(state)

    def drops(report) -> list[tuple[float, float]]:
        """Each layer's fidelity drop against ``phi``, with the layer's drop bound."""
        fids = [report.audit.fidelity_against(phi, j) for j in range(report.audit.M + 1)]
        return [(a - b, layer.drop_bound) for a, b, layer in zip(fids, fids[1:], report.per_layer)]

    def within(pairs) -> bool:
        return all(drop <= bound + 1e-9 for drop, bound in pairs)  # a NaN drop fails

    epsilon = 0.25
    _, report = learn(
        state, d, D, epsilon, 0.05,
        mode=tomography.BoundedNoiseMode(eta=None, seed=seed),
        audit=True,
    )
    exact = drops(report)
    _, report_c = learn(
        state, d, D, 0.5, 0.05,
        variant="closest",
        mode=tomography.BoundedNoiseMode(eta=None, seed=seed + 1),
        audit=True,
        schedule=LearnSchedule(p=2, eta=eta_closest(0.5, 2, D, n)),
    )
    closest = drops(report_c)
    checks = (
        CheckResult(
            name="per-layer-fidelity-drop-bounded",
            passed=within(exact),
            detail="; ".join(
                f"layer {j}: drop {drop:.3e} <= {bound:.3e}"
                for j, (drop, bound) in enumerate(exact, start=1)
            ),
        ),
        CheckResult(
            name="final-fidelity-above-target",
            passed=report.final_fidelity >= 1.0 - epsilon - 1e-9,
            detail=f"fidelity {report.final_fidelity:.9f} vs 1 - epsilon = {1 - epsilon}",
        ),
        CheckResult(
            name="competitive-drop-bound-under-schedule",
            passed=within(closest),
            detail="; ".join(f"{drop:.3e}" for drop, _ in closest),
        ),
    )
    return SuiteResult("layer-bounds", checks)


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
    zs = [float(z) for z in np.logspace(-3, 6, 40)]
    worst = max(abs(w * math.exp(w) - z) / z for z, w in zip(zs, map(lambert_w, zs)))
    worst_gap = max(
        abs(lambert_w(z) - _bisect_lambert(z)) for z in map(float, np.logspace(-2, 5, 20))
    )
    rng = np.random.default_rng(seed)

    def bracket_width() -> float:
        n, D, d = int(rng.integers(2, 200)), int(rng.integers(1, 10)), int(rng.integers(2, 6))
        sol = solve_p_closest(n, d, D, float(rng.uniform(0.01, 1.0)))
        return sol.b - sol.a

    checks = (
        CheckResult(
            name="defining-equation-residual",
            passed=worst < 1e-10,
            detail=f"max relative residual {worst:.2e} over {len(zs)} points",
        ),
        CheckResult(
            name="agrees-with-bisection",
            passed=worst_gap < 1e-9,
            detail=f"max |halley - bisection| = {worst_gap:.2e}",
        ),
        CheckResult(
            name="bracket-width-in-unit-interval",
            passed=all(0.0 < bracket_width() < 1.0 for _ in range(200)),
            detail="b - a in (0, 1) on 200 random scales",
        ),
    )
    return SuiteResult("lambert", checks)


def _plan_fault(plan: LayerPlan) -> str:
    """``""`` if ``plan`` sheds sites ``1..n-p`` and carries the rest, else what it does."""
    n, p = plan.n, plan.p
    shed = sorted(s for layer in plan.layers for b in layer for s in b.projected)
    if shed == list(range(1, n - p + 1)) and plan.final_carried == tuple(range(n - p + 1, n + 1)):
        return ""
    return f"n={n} p={p}: projected {plan.total_projected} sites, tail {plan.final_carried}"


def _suite_plan(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    plans = (plan_layers(n, 2, p) for n in range(3, 41) for p in (1, 2, 3) if n > p)
    bad = next(filter(None, map(_plan_fault, plans)), "")
    checks.append(
        CheckResult(
            name="partition-covers-register",
            passed=not bad,
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


def _exact_schedule(n: int, d: int, D: int, epsilon: float) -> tuple[int, float]:
    p = p_exact(d, D)
    return p, eta_exact(epsilon, plan_layers(n, d, p).M)


def _closest_schedule(n: int, d: int, D: int, epsilon: float) -> tuple[int, float]:
    sol = solve_p_closest(n, d, D, epsilon)
    p = sol.p_candidate if sol.exists else max(1, sol.p_candidate)
    return p, eta_closest(epsilon, p, D, n)


def _suite_dominance(seed: int) -> SuiteResult:
    checks: list[CheckResult] = []
    for name, schedule in (("exact", _exact_schedule), ("competitive", _closest_schedule)):
        ratios = []
        for n, d, D, epsilon in itertools.product((16, 64, 256), (2, 3), (2, 4), (0.5, 0.1, 0.01)):
            p, eta = schedule(n, d, D, epsilon)
            if 0.0 < eta < 1.0:  # always so for eta_exact, not for eta_closest
                ratios.append(complexity.dominance_ratio(n, d, p, epsilon, eta))
        checks.append(
            CheckResult(
                name=f"tree-stages-dominate-{name}",
                passed=all(ratio > 1.0 for ratio in ratios),
                detail=f"smallest ratio {min(ratios, default=math.inf):.3e}",
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
AVAILABLE_SUITES = tuple(_SUITE_FUNCTIONS)


def run_suites(names: list[str], seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (or all of them for ``["all"]``) and collect results."""
    if not mps.is_seed(seed):
        raise BadParameter(f"seed must be an integer in 0 .. 2**64 - 1, got {shown(seed)}")
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
