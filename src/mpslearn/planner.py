"""Layer schedules for the tree learner, and block-size parameter solvers.

The learner removes qudits from an ``n``-site chain in ``M`` halving layers.
Layer 1 partitions the chain into ``2**(M-1)`` blocks: the first ``ell1``
blocks are acted on by unitaries and shed their leading qudits, the rest ride
along unchanged.  Every later layer pairs up the surviving ``p``-qudit tails,
acts on the resulting ``2p``-qudit blocks, and sheds the leading ``p`` qudits
of each, until a single ``p``-qudit tail remains.

Qudit labels in this module are 1-based: ``k1`` is the label of the last
qudit touched by a first-layer unitary, matching the schedule arithmetic.
The learner's registers carry these labels as they are.

The closest-state variant needs the block size ``p`` to satisfy the
self-consistency condition ``p * d**(p-1) < B <= p * d**p`` with
``B = 64 n D**2 / ((sqrt(2) - 1)**2 eps**2)``; :func:`solve_p_closest`
resolves it through the Lambert W function and :func:`select_epsilon` tightens
``eps`` to the nearest value that makes the condition solvable.
"""
from __future__ import annotations

import dataclasses
import math

from .errors import (
    BadEpsilon,
    BadParameter,
    NegativeArgument,
    NoConvergence,
    TooSmall,
)

SQRT2_GAP = 3.0 - 2.0 * math.sqrt(2.0)  # (sqrt(2) - 1)**2
_REL_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class PlannedBlock:
    """One block of one layer.

    ``support`` lists the block's qudits (1-based, ascending).  ``projected``
    is the leading part that the layer's projector sends to zero and
    discards; ``carried`` is the trailing part that survives into the next
    layer.  Passive blocks (first layer only) have no unitary and carry their
    whole support.
    """

    layer: int
    index: int
    support: tuple[int, ...]
    projected: tuple[int, ...]
    carried: tuple[int, ...]
    acted: bool

    @property
    def f(self) -> int:
        """Number of qudits this block sheds."""
        return len(self.projected)


@dataclasses.dataclass(frozen=True)
class LayerPlan:
    """Complete schedule for one run of the tree learner (no layers, ``M = 0``, if n <= 2p)."""

    n: int
    d: int
    p: int
    M: int
    ell1: int
    s1: int
    k1: int
    s1_amended: bool
    layers: tuple[tuple[PlannedBlock, ...], ...]

    def blocks(self, layer: int) -> tuple[PlannedBlock, ...]:
        return self.layers[layer - 1]

    @property
    def final_carried(self) -> tuple[int, ...]:
        return self.layers[-1][-1].carried if self.layers else tuple(range(1, self.n + 1))

    @property
    def total_projected(self) -> int:
        return sum(b.f for layer in self.layers for b in layer)


def plan_layers(n: int, d: int, p: int) -> LayerPlan:
    """Build the halving schedule for an ``n``-qudit chain with block size ``p``.

    Requires ``n > p >= 1``.  When the first-layer remainder divides evenly
    (the raw recipe would give ``s1 = 0`` and leave a gap in the partition)
    the schedule is amended to ``s1 = p`` so the last acted block is a full
    ``2p`` block; the amendment is recorded in ``s1_amended``.
    """
    if p < 1:
        raise BadParameter(f"block size p must be >= 1, got {p}")
    if d < 2:
        raise BadParameter(f"local dimension d must be >= 2, got {d}")
    if n <= p:
        raise TooSmall(f"need n > p, got n={n}, p={p}")

    M = 1
    while 2**M * p < n:
        M += 1
    half = 2 ** (M - 1)
    overhang = n - half * p  # > 0 because M is minimal
    ell1 = math.ceil(overhang / p)
    s1 = overhang % p
    amended = s1 == 0
    if amended:
        s1 = p
    k1 = 2 * ell1 * p - p + s1

    first: list[PlannedBlock] = []
    for i in range(1, half + 1):
        if i < ell1:
            support = tuple(range(2 * (i - 1) * p + 1, 2 * i * p + 1))
            f = p
        elif i == ell1:
            support = tuple(range(2 * (ell1 - 1) * p + 1, k1 + 1))
            f = s1
        else:
            start = k1 + 1 + (i - ell1 - 1) * p
            support = tuple(range(start, start + p))
            f = 0
        first.append(
            PlannedBlock(
                layer=1,
                index=i,
                support=support,
                projected=support[:f],
                carried=support[f:],
                acted=f > 0,
            )
        )

    layers = [tuple(first)]
    carried = [b.carried for b in first]
    for j in range(2, M + 1):
        blocks: list[PlannedBlock] = []
        for i in range(1, len(carried) // 2 + 1):
            support = carried[2 * i - 2] + carried[2 * i - 1]
            blocks.append(
                PlannedBlock(
                    layer=j,
                    index=i,
                    support=support,
                    projected=support[:p],
                    carried=support[p:],
                    acted=True,
                )
            )
        layers.append(tuple(blocks))
        carried = [b.carried for b in blocks]

    return LayerPlan(
        n=n, d=d, p=p, M=M, ell1=ell1, s1=s1, k1=k1, s1_amended=amended,
        layers=tuple(layers),
    )


def p_exact(d: int, D: int) -> int:
    """Block tail size for the exact variant: ``2 * ceil(log_d D)``.

    Computed in integer arithmetic as twice the smallest ``k`` with
    ``d**k >= D``; equivalently the smallest even ``p`` with
    ``d**(p/2) >= D``.  ``D = 1`` yields 0.
    """
    if d < 2 or D < 1:
        raise BadParameter(f"need d >= 2 and D >= 1, got d={d}, D={D}")
    k = 0
    while d**k < D:
        k += 1
    return 2 * k


def lambert_w(z: float) -> float:
    """Principal branch of the Lambert W function for ``z >= 0``.

    Solves ``w * exp(w) = z`` by Halley's iteration from a logarithmic
    initial guess; the result satisfies the defining equation to better than
    ``1e-12`` relative.
    """
    if z < 0:
        raise NegativeArgument(f"lambert_w requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z > math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    else:
        w = math.log1p(z)  # crude but in the basin for z >= 0
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-15 * max(1.0, abs(w)):
            return w
    raise NoConvergence(f"lambert_w failed to converge for z = {z}")  # pragma: no cover


@dataclasses.dataclass(frozen=True)
class LambertSolution:
    """Outcome of the block-size self-consistency solve.

    ``a`` and ``b`` bracket the admissible block sizes: a solution exists iff
    the half-open interval ``[a, b)`` contains an integer, which is then
    ``p_candidate = ceil(a)``.  ``B`` is the copy-scale constant and
    ``z = B * ln d`` the Lambert argument.
    """

    B: float
    z: float
    a: float
    b: float
    p_candidate: int
    exists: bool


def copy_scale_base(n: int, D: int, epsilon: float) -> float:
    """Scale constant of the block-size equation, ``64 n D**2 / ((3 - 2 sqrt(2)) eps**2)``."""
    if n < 1 or D < 1:
        raise BadParameter(f"need n >= 1 and D >= 1, got n={n}, D={D}")
    if not 0.0 < epsilon <= 1.0:
        raise BadEpsilon(f"epsilon must be in (0, 1], got {epsilon}")
    try:
        scale = 64.0 * n * D * D / (SQRT2_GAP * epsilon * epsilon)
        if scale < math.inf:
            return scale
    except (OverflowError, ZeroDivisionError):  # D past a float, or eps**2 underflowing
        pass
    raise BadParameter(
        f"the block-size scale 64 n D**2 / ((3 - 2 sqrt 2) eps**2) at n={n}, "
        f"epsilon={epsilon} exceeds a float's range"
    )


def _satisfies_interval(p: int, d: int, B: float) -> bool:
    # p * d**(p-1) < B <= p * d**p, with relative slack for float round-trip
    # at exact boundaries (select_epsilon produces B = m * d**m up to 1 ulp).
    lower = p * float(d) ** (p - 1)
    upper = p * float(d) ** p
    return lower < B * (1.0 + _REL_TOL) and B <= upper * (1.0 + _REL_TOL)


def solve_p_from_scale(d: int, B: float) -> LambertSolution:
    """Solve ``p * d**(p-1) < B <= p * d**p`` for an integer block size.

    The bracket endpoints are ``a = W(B ln d)/ln d`` and
    ``b = W(B d ln d)/ln d``; their gap is positive and below 1, so at most
    one integer qualifies and it must be ``ceil(a)``.  The ceiling is taken
    with a ``1e-9`` snap so arguments sitting on an integer (the engineered
    ``B = m * d**m`` family) do not round up spuriously; existence is
    confirmed against the inequality itself.
    """
    if d < 2:
        raise BadParameter(f"need d >= 2, got d={d}")
    log_d = math.log(d)
    if not 0.0 < B * d * log_d < math.inf:
        raise BadParameter(f"scale B must be positive and B d ln d finite, got B={B}")
    z = B * log_d
    a = lambert_w(z) / log_d
    b = lambert_w(B * d * log_d) / log_d
    p_candidate = max(1, math.ceil(a - _REL_TOL))
    exists = _satisfies_interval(p_candidate, d, B)
    if not exists and _satisfies_interval(p_candidate + 1, d, B):
        p_candidate += 1
        exists = True
    return LambertSolution(B=B, z=z, a=a, b=b, p_candidate=p_candidate, exists=exists)


def solve_p_closest(n: int, d: int, D: int, epsilon: float) -> LambertSolution:
    """Block size for the competitive variant at the given problem scale.

    Evaluates :func:`solve_p_from_scale` at ``B = copy_scale_base(n, D,
    epsilon)``.
    """
    return solve_p_from_scale(d, copy_scale_base(n, D, epsilon))


def select_epsilon(n: int, d: int, D: int, epsilon_target: float) -> tuple[int, float]:
    """Smallest solvable block size at accuracy at least ``epsilon_target``.

    Returns ``(m, epsilon_prime)`` where ``m`` is the smallest integer with
    ``m * d**m >= B(epsilon_target)`` and ``epsilon_prime`` is the accuracy
    that turns the inequality into an equality.  Then
    ``epsilon_prime <= epsilon_target`` and the self-consistency condition is
    solvable at ``epsilon_prime`` with block size ``m``.
    """
    if d < 2:
        raise BadParameter(f"need d >= 2, got d={d}")
    target_B = copy_scale_base(n, D, epsilon_target)
    m = 1
    while m * float(d) ** m < target_B:
        m += 1
    epsilon_prime = math.sqrt(target_B * epsilon_target**2 / (m * float(d) ** m))
    return m, min(epsilon_prime, epsilon_target)


def eta_exact(epsilon: float, M: int) -> float:
    """Per-call tomography budget for the exact variant."""
    if not 0.0 < epsilon <= 1.0:
        raise BadEpsilon(f"epsilon must be in (0, 1], got {epsilon}")
    if M < 1:
        raise BadParameter(f"layer count M must be >= 1, got {M}")
    return SQRT2_GAP * epsilon * epsilon / 2 ** (M + 5)


def eta_closest(epsilon: float, p: int, D: int, n: int) -> float:
    """Per-call tomography budget and eigenvalue threshold, closest variant."""
    if not 0.0 < epsilon <= 1.0:
        raise BadEpsilon(f"epsilon must be in (0, 1], got {epsilon}")
    if p < 1 or D < 1 or n < 1:
        raise BadParameter(f"need p, D, n >= 1, got p={p}, D={D}, n={n}")
    return SQRT2_GAP * epsilon * epsilon * p / (64.0 * D * D * n)
