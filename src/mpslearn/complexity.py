"""Copy-count formulas and scaling-law helpers.

Each ``budget_*`` function returns the leading-order number of state copies a
method consumes, with the unspecified constant set to 1.  Logarithms are
natural.  Each product is carried in floats from its first factor on, which
fixes its last digits at large ``n``.  The functions are meant for comparing
growth rates, not for predicting laboratory shot counts.  Their float-range
guard is :func:`mpslearn.errors.in_float_range`, shared with the planner and
the tomography budgets.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import BadParameter, DegenerateD, in_float_range, shown
from .planner import SQRT2_GAP, copy_scale_base

ETA_SUBSTITUTION_CONSTANT = (64.0 / SQRT2_GAP) ** 6
"""Constant factor picked up when the per-call accuracy is replaced by its
closed form in the copy-count total for the competitive variant."""


def _check_common(n: int, d: int, epsilon: float, delta: float) -> None:
    if n < 2:
        raise BadParameter(f"n must be >= 2, got {shown(n)}")
    if d < 2:
        raise BadParameter(f"d must be >= 2, got {shown(d)}")
    if not 0.0 < epsilon <= 1.0:
        raise BadParameter(f"epsilon must be in (0, 1], got {shown(epsilon)}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {shown(delta)}")


@in_float_range
def budget_exact_ours(n: int, d: int, D: int, epsilon: float, delta: float) -> float:
    """Copies for the tree learner under the bond-dimension promise.

    Scales as ``D**6 d**2 n**3 log(n/delta) / (log_d(D)**3 epsilon**4)``.
    Raises :class:`DegenerateD` for ``D < 2``, where the ``log_d(D)`` factor
    degenerates.
    """
    _check_common(n, d, epsilon, delta)
    if D < 2:
        raise DegenerateD(f"the scaling formula needs D >= 2, got {shown(D)}")
    log_d_D = math.log(D) / math.log(d)
    return (
        float(D**6)
        * d**2
        * n**3
        * math.log(n / delta)
        / (log_d_D**3 * epsilon**4)
    )


@in_float_range
def budget_exact_previous(n: int, D: int, epsilon: float, delta: float) -> float:
    """Copies for the earlier sweep-based learner under the same promise."""
    _check_common(n, 2, epsilon, delta)
    if D < 1:
        raise BadParameter(f"D must be >= 1, got {shown(D)}")
    return float(n**5) * D**2 * math.log(n / delta) / epsilon**4


@in_float_range
def budget_closest_ours(n: int, d: int, D: int, epsilon: float, delta: float) -> float:
    """Copies for the competitive tree learner (no input promise).

    Scales as ``D**12 n**7 d**4 log(d)**7 log(n/delta) / (epsilon**12 L**7)``
    where ``L = log(log(d) * B)`` and ``B`` is the copy-scale base driving the
    block-size equation.
    """
    _check_common(n, d, epsilon, delta)
    if D < 1:
        raise BadParameter(f"D must be >= 1, got {shown(D)}")
    B = copy_scale_base(n, D, epsilon)
    L = math.log(math.log(d) * B)  # B >= 128 / (3 - 2 sqrt(2)) > 746, so L > 6
    return (
        float(D**12)
        * n**7
        * d**4
        * math.log(d) ** 7
        * math.log(n / delta)
        / (epsilon**12 * L**7)
    )


@in_float_range
def budget_closest_raw(n: int, d: int, p: int, eta: float, delta: float) -> float:
    """Competitive-variant total before eliminating the per-call accuracy.

    Scales as ``n d**4 log(n/delta) / (p eta**6)``; substituting the closed
    form of ``eta`` recovers :func:`budget_closest_ours` up to
    :data:`ETA_SUBSTITUTION_CONSTANT` and a bounded residual.
    """
    if n < 2 or d < 2 or p < 1:
        raise BadParameter("need n >= 2, d >= 2, p >= 1")
    if not 0.0 < eta < 1.0:
        raise BadParameter(f"eta must be in (0, 1), got {shown(eta)}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {shown(delta)}")
    return float(n) * d**4 * math.log(n / delta) / (p * eta**6)


@in_float_range
def budget_closest_previous(n: int, D: int, epsilon: float, delta: float) -> float:
    """Copies for the earlier competitive learner."""
    _check_common(n, 2, epsilon, delta)
    if D < 1:
        raise BadParameter(f"D must be >= 1, got {shown(D)}")
    return float(n**9) * D**8 * math.log(n / delta) / epsilon**8


@in_float_range
def dominance_ratio(n: int, d: int, p: int, epsilon: float, eta: float) -> float:
    """Tree-stage total over the closing-call cost, ``n eps**2 d**(2p) / (p eta**2)``.

    Values above 1 mean the tree stages dominate the copy count, so the
    closing call is never the bottleneck in the stated regimes.
    """
    # d**(2p) is exact, so its float range is checked first: a huge p never returns
    if n < 2 or d < 2 or p < 1 or 2 * p * math.log2(d) > sys.float_info.max_exp:
        raise BadParameter("need n >= 2, d >= 2, p >= 1 and d**(2p) within a float's range")
    if not 0.0 < epsilon <= 1.0:
        raise BadParameter(f"epsilon must be in (0, 1], got {shown(epsilon)}")
    if not 0.0 < eta < 1.0:
        raise BadParameter(f"eta must be in (0, 1), got {shown(eta)}")
    return n * epsilon**2 * d ** (2 * p) / (p * eta**2)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise BadParameter("need two sequences of equal length >= 2")
    if np.any(x <= 0) or np.any(y <= 0):
        raise BadParameter("log-log fits need strictly positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
