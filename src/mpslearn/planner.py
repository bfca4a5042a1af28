"""Layer schedules for the tree learner, and block-size parameter solvers.

The learner removes qudits from an ``n``-site chain in
``M = ceil(log2(n / p))`` halving layers, by one rule: in every layer, each
block sheds its leading qudits and carries its last ``p``.  Layer 1 cuts the
chain into ``2**(M-1)`` blocks; the first ``ell1`` are longer than ``p`` and
shed, the rest are ``p`` long and ride along.  Every later layer joins the
carried tails in pairs, so a single ``p``-qudit tail remains.

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
    in_float_range,
    shown,
)
from .mps import is_integer

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
        """The blocks of ``layer``, an integer in ``1..M`` (``BadParameter`` otherwise)."""
        if not (is_integer(layer) and 1 <= layer <= self.M):
            raise BadParameter(f"layer must be an integer in 1..{self.M}, got {shown(layer)}")
        return self.layers[layer - 1]

    @property
    def final_carried(self) -> tuple[int, ...]:
        return self.layers[-1][-1].carried if self.layers else tuple(range(1, self.n + 1))

    @property
    def total_projected(self) -> int:
        return sum(b.f for layer in self.layers for b in layer)


def plan_layers(n: int, d: int, p: int) -> LayerPlan:
    """Build the halving schedule for an ``n``-qudit chain with block size ``p``.

    Requires ``n > p >= 1``.  One rule makes every block: of a support ``s``,
    the layer projects ``s[:len(s) - p]`` and carries the last ``p`` qudits,
    and the block is acted on iff it projects any.  Layer 1 runs along the
    chain, its block ``i`` (0-based) ``min(p, max(0, overhang - i*p)) + p``
    qudits long; each later layer joins the previous layer's carried tails in
    pairs.  ``s1_amended`` records that the overhang is a multiple of ``p``,
    so the last acted block of layer 1 is a full ``2p`` block.
    """
    if p < 1:
        raise BadParameter(f"block size p must be >= 1, got {shown(p)}")
    if d < 2:
        raise BadParameter(f"local dimension d must be >= 2, got {shown(d)}")
    if n <= p:
        raise TooSmall(f"need n > p, got n={shown(n)}, p={shown(p)}")

    M = (-(-n // p) - 1).bit_length()  # the least M >= 1 with 2**M * p >= n
    overhang = n - 2 ** (M - 1) * p  # in 1 .. 2**(M-1) * p, as M is least
    ell1 = -(-overhang // p)
    s1 = overhang - (ell1 - 1) * p

    supports, start = [], 1
    for i in range(2 ** (M - 1)):
        size = min(p, max(0, overhang - i * p)) + p
        supports.append(tuple(range(start, start + size)))
        start += size
    layers = []
    for j in range(1, M + 1):
        layer = tuple(
            PlannedBlock(j, i, s, s[: len(s) - p], s[len(s) - p :], len(s) > p)
            for i, s in enumerate(supports, 1)
        )
        layers.append(layer)
        supports = [a.carried + b.carried for a, b in zip(layer[::2], layer[1::2])]

    return LayerPlan(
        n=n, d=d, p=p, M=M, ell1=ell1, s1=s1, k1=2 * ell1 * p - p + s1,
        s1_amended=overhang % p == 0, layers=tuple(layers),
    )


def p_exact(d: int, D: int) -> int:
    """Block tail size for the exact variant: ``2 * ceil(log_d D)``.

    Computed in integer arithmetic as twice the smallest ``k`` with
    ``d**k >= D``; equivalently the smallest even ``p`` with
    ``d**(p/2) >= D``.  ``D = 1`` yields 0.
    """
    if d < 2 or D < 1:
        raise BadParameter(f"need d >= 2 and D >= 1, got d={shown(d)}, D={shown(D)}")
    k = 0
    while d**k < D:
        k += 1
    return 2 * k


@in_float_range
def lambert_w(z: float) -> float:
    """Principal branch of the Lambert W function for ``z >= 0``.

    Solves ``w * exp(w) = z`` by Halley's iteration from a logarithmic
    initial guess; the result satisfies the defining equation to better than
    ``1e-12`` relative.
    """
    if z < 0:
        raise NegativeArgument(f"lambert_w requires z >= 0, got {shown(z)}")
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
        if math.isfinite((w + 2.0) * f):
            step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        else:  # past z of about 1e307: the same step, divided through by exp(w)
            f = w - z / ew
            step = f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
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


@in_float_range
def copy_scale_base(n: int, D: int, epsilon: float) -> float:
    """Scale constant of the block-size equation, ``64 n D**2 / ((3 - 2 sqrt(2)) eps**2)``."""
    if n < 1 or D < 1:
        raise BadParameter(f"need n >= 1 and D >= 1, got n={shown(n)}, D={shown(D)}")
    if not 0.0 < epsilon <= 1.0:
        raise BadEpsilon(f"epsilon must be in (0, 1], got {shown(epsilon)}")
    return 64.0 * n * D * D / (SQRT2_GAP * epsilon * epsilon)


def _satisfies_interval(p: int, d: int, B: float) -> bool:
    # p * d**(p-1) < B <= p * d**p, with relative slack for float round-trip
    # at exact boundaries (select_epsilon produces B = m * d**m up to 1 ulp).
    lower = p * float(d) ** (p - 1)
    upper = p * float(d) ** p
    return lower < B * (1.0 + _REL_TOL) and B <= upper * (1.0 + _REL_TOL)


@in_float_range
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
        raise BadParameter(f"need d >= 2, got d={shown(d)}")
    log_d = math.log(d)
    if not 0.0 < B * d * log_d < math.inf:
        raise BadParameter(f"scale B must be positive and B d ln d finite, got B={shown(B)}")
    z = B * log_d
    a = lambert_w(z) / log_d
    b = lambert_w(B * d * log_d) / log_d
    p_candidate = max(1, math.ceil(a - _REL_TOL))
    exists = _satisfies_interval(p_candidate, d, B)
    return LambertSolution(B=B, z=z, a=a, b=b, p_candidate=p_candidate, exists=exists)


def solve_p_closest(n: int, d: int, D: int, epsilon: float) -> LambertSolution:
    """Block size for the competitive variant at the given problem scale.

    Evaluates :func:`solve_p_from_scale` at ``B = copy_scale_base(n, D,
    epsilon)``.
    """
    return solve_p_from_scale(d, copy_scale_base(n, D, epsilon))


@in_float_range
def select_epsilon(n: int, d: int, D: int, epsilon_target: float) -> tuple[int, float]:
    """Smallest solvable block size at accuracy at least ``epsilon_target``.

    Returns ``(m, epsilon_prime)`` where ``m`` is the smallest integer with
    ``m * d**m >= B(epsilon_target)`` and ``epsilon_prime`` is the accuracy
    that turns the inequality into an equality.  Then
    ``epsilon_prime <= epsilon_target`` and the self-consistency condition is
    solvable at ``epsilon_prime`` with block size ``m``.
    """
    if d < 2:
        raise BadParameter(f"need d >= 2, got d={shown(d)}")
    target_B = copy_scale_base(n, D, epsilon_target)
    m = 1
    while m * float(d) ** m < target_B:
        m += 1
    epsilon_prime = math.sqrt(target_B * epsilon_target**2 / (m * float(d) ** m))
    return m, min(epsilon_prime, epsilon_target)


@in_float_range
def eta_exact(epsilon: float, M: int) -> float:
    """Per-call tomography budget for the exact variant."""
    if not 0.0 < epsilon <= 1.0:
        raise BadEpsilon(f"epsilon must be in (0, 1], got {shown(epsilon)}")
    if M < 1:
        raise BadParameter(f"layer count M must be >= 1, got {shown(M)}")
    return SQRT2_GAP * epsilon * epsilon / 2.0 ** (M + 5)


@in_float_range
def eta_closest(epsilon: float, p: int, D: int, n: int) -> float:
    """Per-call tomography budget and eigenvalue threshold, closest variant."""
    if not 0.0 < epsilon <= 1.0:
        raise BadEpsilon(f"epsilon must be in (0, 1], got {shown(epsilon)}")
    if p < 1 or D < 1 or n < 1:
        raise BadParameter(f"need p, D, n >= 1, got p={shown(p)}, D={shown(D)}, n={shown(n)}")
    return SQRT2_GAP * epsilon * epsilon * p / (64.0 * D * D * n)
