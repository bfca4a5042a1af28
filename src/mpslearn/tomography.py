"""Tomography oracles for block marginals, and copy-budget calculators.

Three oracle modes turn the reduced density matrix of a site block (the
block marginal, which the caller takes from its register) into an estimate:

* ``ExactMode`` returns the marginal itself.
* ``BoundedNoiseMode`` adds a seeded traceless Hermitian perturbation with a
  prescribed trace-norm, so the estimate error is exactly ``eta``.
* ``FiniteSampleMode`` simulates measurement statistics: copies survive a
  post-selection step with probability equal to the marginal's trace, survivors
  are measured in an informationally complete product-basis family, and the
  estimate is a least-squares linear inversion of the observed frequencies.

Budgets are charged analytically by the calculators below regardless of the
oracle mode in use; estimates are sub-normalized exactly like the marginals
they are taken from.  Each mode's ``name`` is the oracle's name in run
metadata and reports.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np

from . import linalg
from .backend import infer_site_count
from .errors import BadParameter, OracleFailure, TooLarge


@dataclasses.dataclass(frozen=True)
class ExactMode:
    """Return exact block marginals."""

    name: ClassVar[str] = "exact"


@dataclasses.dataclass(frozen=True)
class BoundedNoiseMode:
    """Adversarial-style noise of exact trace-norm ``eta``.

    ``eta = None`` asks the caller (the learner) to substitute its own
    per-call error budget.  With ``project_psd`` set, the perturbed estimate
    is projected onto the PSD cone and the perturbation rescaled so the
    trace-norm error stays within ``eta``.
    """

    name: ClassVar[str] = "bounded_noise"
    eta: float | None = None
    seed: int = 0
    project_psd: bool = False

    def __post_init__(self) -> None:
        if self.eta is not None and self.eta < 0:
            raise BadParameter(f"eta must be non-negative, got {self.eta}")


@dataclasses.dataclass(frozen=True)
class FiniteSampleMode:
    """Simulated measurements on ``copies`` copies of the state."""

    name: ClassVar[str] = "finite_sample"
    copies: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise BadParameter(f"copies must be >= 1, got {self.copies}")


OracleMode = Union[ExactMode, BoundedNoiseMode, FiniteSampleMode]


@dataclasses.dataclass(frozen=True)
class TomographyOutcome:
    """Result of one oracle call.

    Attributes
    ----------
    estimate : np.ndarray
        Hermitian estimate of the block marginal, sub-normalized like the
        marginal.
    success_mass : float
        Trace of the true marginal (the post-selection success probability),
        clipped to [0, 1].
    """

    estimate: np.ndarray
    success_mass: float


def estimate_block(sigma: np.ndarray, d: int, mode: OracleMode = ExactMode()) -> TomographyOutcome:
    """Estimate a block marginal ``sigma`` on qudits of dimension ``d``.

    ``sigma`` is the reduced density matrix of the block, as a register's
    ``rdm`` returns it, and may be sub-normalized; the estimate carries the
    same normalization.  ``mode`` is one of the three modes above.  For
    ``BoundedNoiseMode`` the eta budget must be set (the learner substitutes
    its own schedule when ``eta`` is ``None``).
    """
    if isinstance(mode, ExactMode):
        estimate = sigma
    elif isinstance(mode, BoundedNoiseMode):
        if mode.eta is None:
            raise BadParameter("BoundedNoiseMode.eta is unset; supply a noise budget")
        estimate = _add_bounded_noise(sigma, mode.eta, mode.seed, mode.project_psd)
    else:
        estimate = _finite_sample_estimate(sigma, d, mode)
    return TomographyOutcome(estimate, float(np.clip(np.real(np.trace(sigma)), 0.0, 1.0)))


def _add_bounded_noise(sigma: np.ndarray, eta: float, seed: int, project_psd: bool) -> np.ndarray:
    if eta == 0.0:
        return sigma.copy()
    dim = sigma.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    delta = (g + g.conj().T) / 2.0
    delta -= np.trace(delta) / dim * np.eye(dim)
    norm = linalg.trace_norm(delta)
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        raise OracleFailure("degenerate noise draw")
    estimate = sigma + (eta / norm) * delta
    if project_psd:
        shifted = linalg.project_psd(estimate) - sigma
        excess = linalg.trace_norm(shifted)
        if excess > eta:
            shifted *= eta / excess
        estimate = sigma + shifted
    return estimate


@lru_cache(maxsize=32)
def _single_site_bases(d: int) -> tuple[np.ndarray, ...]:
    """A deterministic measurement-basis family on one qudit, columns are vectors.

    For prime ``d`` these are mutually unbiased: the computational basis plus
    ``d`` Fourier-type bases.  A composite site is factored into virtual
    prime-dimensional subsystems and the family is every tensor product of
    the factors' bases; the product family is informationally complete and
    keeps the least-squares design well-conditioned (a Haar-random family of
    the same size can be singular to within a factor of a few hundred).
    """
    if d == 2:
        s = 1 / math.sqrt(2)
        z = np.eye(2, dtype=complex)
        x = np.array([[s, s], [s, -s]], dtype=complex)
        y = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
        return (z, x, y)
    if _is_prime(d):
        omega = np.exp(2j * np.pi / d)
        bases = [np.eye(d, dtype=complex)]
        for k in range(d):
            b = np.empty((d, d), dtype=complex)
            for j in range(d):
                for m in range(d):
                    b[m, j] = omega ** ((k * m * m + j * m) % d) / math.sqrt(d)
            bases.append(b)
        return tuple(bases)
    products = []
    for combo in itertools.product(*(_single_site_bases(p) for p in _prime_factors(d))):
        b = combo[0]
        for m in combo[1:]:
            b = np.kron(b, m)
        products.append(b)
    return tuple(products)


def _prime_factors(d: int) -> list[int]:
    factors = []
    k = 2
    while d > 1:
        while d % k == 0:
            factors.append(k)
            d //= k
        k += 1
    return factors


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % k for k in range(2, int(math.isqrt(d)) + 1))


def _finite_sample_estimate(sigma: np.ndarray, d: int, mode: FiniteSampleMode) -> np.ndarray:
    dim = sigma.shape[0]
    if dim > 16:
        # The least-squares design matrix scales as (settings * dim, dim**2);
        # larger blocks should use the analytic oracle modes.
        raise TooLarge(
            f"finite-sample simulation is capped at block dimension 16, got {dim}"
        )
    rng = np.random.default_rng(mode.seed)
    mu = float(np.clip(np.real(np.trace(sigma)), 0.0, 1.0))
    survivors = int(rng.binomial(mode.copies, mu)) if mu < 1.0 else mode.copies
    if survivors == 0:
        return np.zeros_like(sigma)
    normalized = sigma / np.trace(sigma)

    local = [_single_site_bases(d)] * infer_site_count(dim, d)
    settings = list(np.ndindex(*(len(b) for b in local)))
    base = survivors // len(settings)
    extra = survivors % len(settings)

    rows = []
    freqs = []
    for s_index, choice in enumerate(settings):
        shots = base + (1 if s_index < extra else 0)
        if shots == 0:
            continue
        basis = local[0][choice[0]]
        for q in range(1, len(local)):
            basis = np.kron(basis, local[q][choice[q]])
        probs = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, normalized, basis))
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        for outcome in range(dim):
            v = basis[:, outcome]
            # <v|X|v> = sum_jk conj(v_j) v_k X_jk, row-major against X.reshape(-1)
            rows.append(np.outer(v.conj(), v).reshape(-1))
            freqs.append(counts[outcome] / shots)

    a = np.asarray(rows)
    b = np.asarray(freqs, dtype=float)
    # Solve min ||A vec(X) - b|| over complex X, then make X Hermitian.
    stacked = np.concatenate([np.concatenate([a.real, -a.imag], axis=1),
                              np.concatenate([a.imag, a.real], axis=1)])
    target = np.concatenate([b, np.zeros_like(b)])
    solution, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    x = (solution[: dim * dim] + 1j * solution[dim * dim :]).reshape(dim, dim)
    x = (x + x.conj().T) / 2.0
    return (survivors / mode.copies) * x


def _budget(value: float, multiplier: float) -> int:
    return int(math.ceil(value * multiplier))


def _validate_budget_args(mu: float, d: int, r_minus_i: int, eta: float, delta: float) -> None:
    if not 0.0 <= mu <= 1.0 + 1e-12:
        raise BadParameter(f"mu must be in [0, 1], got {mu}")
    if d < 2 or r_minus_i < 0:
        raise BadParameter(f"need d >= 2 and r_minus_i >= 0, got d={d}, r_minus_i={r_minus_i}")
    if eta <= 0:
        raise BadParameter(f"eta must be positive, got {eta}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {delta}")


def budget_rank_constrained(
    mu: float, D: int, d: int, r_minus_i: int, eta: float, delta: float, multiplier: float = 1.0
) -> int:
    """Copies sufficient for rank-constrained tomography after post-selection.

    The estimated block lives on ``r_minus_i`` qudits of dimension ``d``, has
    rank at most ``D**2``, and carries success mass ``mu``.  The returned
    count is ``ceil(mu * D**2 * d**r_minus_i * ln(1/delta) / eta**2)`` times
    ``multiplier``; the unit constant is a documented choice.
    """
    _validate_budget_args(mu, d, r_minus_i, eta, delta)
    if D < 1:
        raise BadParameter(f"D must be >= 1, got {D}")
    return _budget(mu * D * D * d**r_minus_i * math.log(1.0 / delta) / eta**2, multiplier)


def budget_general(
    mu: float, d: int, r_minus_i: int, eta: float, delta: float, multiplier: float = 1.0
) -> int:
    """Copies sufficient for unconstrained tomography after post-selection.

    Same conventions as :func:`budget_rank_constrained` with the rank factor
    replaced by the full dimension: ``ceil(mu * d**(2 r_minus_i) * ln(1/delta)
    / eta**2)`` times ``multiplier``.
    """
    _validate_budget_args(mu, d, r_minus_i, eta, delta)
    return _budget(mu * d ** (2 * r_minus_i) * math.log(1.0 / delta) / eta**2, multiplier)
