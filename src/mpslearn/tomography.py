"""Tomography oracles for block marginals, and copy-budget calculators.

Three oracle modes turn the reduced density matrix of a site block (the
block marginal, which the caller takes from its register) into an estimate:

* ``ExactMode`` returns the marginal itself.
* ``BoundedNoiseMode`` adds a seeded traceless Hermitian perturbation with a
  prescribed trace-norm, so the estimate error is exactly ``eta``.
* ``FiniteSampleMode`` simulates measurement statistics: copies survive a
  post-selection step with probability equal to the marginal's trace, survivors
  are measured in an informationally complete product-basis family, and the
  estimate is the least-squares linear inversion of the observed frequencies.
  The family is a Kronecker power of one site's design, so the inversion is
  that design's pseudo-inverse applied along each site's axis (Guta, Kahn,
  Kueng & Tropp 2020, J. Phys. A 53, 204001).

Each outcome carries its estimate's trace-norm error, taken from the oracle's
own work.  Budgets are charged analytically by the calculators below
regardless of the oracle mode in use, and a count past a float's range raises
``BadParameter`` through :func:`mpslearn.errors.in_float_range`.  An
estimate's trace differs from its marginal's by at most its ``error`` (at
most ``eta`` under bounded noise, whose ``project_psd`` can lift it).  Each
mode's ``name`` is the oracle's name in run metadata and reports.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import sys
from functools import lru_cache, reduce
from typing import ClassVar, Union

import numpy as np

from . import linalg, mps
from .backend import infer_site_count
from .errors import BadParameter, OracleFailure, TooLarge, in_float_range, shown


@dataclasses.dataclass(frozen=True)
class ExactMode:
    """Return exact block marginals."""

    name: ClassVar[str] = "exact"


@dataclasses.dataclass(frozen=True)
class BoundedNoiseMode:
    """Adversarial-style noise of exact trace-norm ``eta``, at most 2.

    ``eta = None`` asks the caller (the learner) to substitute its own
    per-call error budget.  With ``project_psd`` set, the perturbed estimate
    is projected onto the PSD cone and the perturbation rescaled so the
    trace-norm error stays within ``eta``; the estimate's trace is then no
    longer the marginal's, but within ``error <= eta`` of it.
    """

    name: ClassVar[str] = "bounded_noise"
    eta: float | None = None
    seed: int = 0
    project_psd: bool = False

    def __post_init__(self) -> None:
        if self.eta is not None and not (mps.is_real(self.eta) and 0.0 <= self.eta <= 2.0):
            raise BadParameter(
                f"eta must be in [0, 2], the largest trace distance, got {shown(self.eta)}"
            )
        if not mps.is_seed(self.seed):
            raise BadParameter(f"seed must be an integer in 0 .. 2**64 - 1, got {shown(self.seed)}")


@dataclasses.dataclass(frozen=True)
class FiniteSampleMode:
    """Simulated measurements on ``copies`` copies of the state.

    The survivors are split as evenly as they go over the settings (one basis
    per site), and each setting draws a multinomial of its outcomes.  A
    setting without shots (fewer survivors than settings) reads as the
    maximally mixed state would, with uniform outcomes, so the per-site
    inversion stays the least-squares solution.  A frequency table (settings
    x outcomes) past ``linalg.MAX_WALK_WINDOW`` entries raises ``TooLarge``
    before any draw: at d = 2, a block of 10 qubits or more.
    """

    name: ClassVar[str] = "finite_sample"
    copies: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not mps.is_integer(self.copies):
            raise BadParameter(f"copies must be an integer, got {shown(self.copies)}")
        if not 1 <= self.copies < 2**63:  # the survivors' binomial draw takes an int64
            raise BadParameter(f"copies must be in 1 .. 2**63 - 1, got {shown(self.copies)}")
        if not mps.is_seed(self.seed):
            raise BadParameter(f"seed must be an integer in 0 .. 2**64 - 1, got {shown(self.seed)}")


OracleMode = Union[ExactMode, BoundedNoiseMode, FiniteSampleMode]


@dataclasses.dataclass(frozen=True)
class TomographyOutcome:
    """Result of one oracle call.

    Attributes
    ----------
    estimate : np.ndarray
        Hermitian estimate of the block marginal, whose trace differs from
        the marginal's by at most ``error``.
    success_mass : float
        Trace of the true marginal (the post-selection success probability),
        clipped to [0, 1].
    error : float
        Trace-norm distance of the estimate from the marginal: 0 for
        ``ExactMode``, the perturbation's trace norm for ``BoundedNoiseMode``
        (from the SVD that scaled it, or the rescaled excess under
        ``project_psd``), a trace norm of the difference for ``FiniteSampleMode``.
    """

    estimate: np.ndarray
    success_mass: float
    error: float


def estimate_block(sigma: np.ndarray, d: int, mode: OracleMode = ExactMode()) -> TomographyOutcome:
    """Estimate a block marginal ``sigma`` on qudits of dimension ``d``.

    ``sigma`` is the reduced density matrix of the block, as a register's
    ``rdm`` returns it, and may be sub-normalized; the estimate carries the
    same normalization.  ``mode`` is one of the three modes above.  For
    ``BoundedNoiseMode`` the eta budget must be set (the learner substitutes
    its own schedule when ``eta`` is ``None``).  ``BadParameter`` refuses a
    non-finite trace, and a non-finite entry where the mode computes from it.
    """
    trace = np.trace(sigma)
    if not (np.isfinite(trace) and (isinstance(mode, ExactMode) or np.isfinite(sigma).all())):
        raise BadParameter(f"the marginal is not finite (its trace is {trace})")
    if isinstance(mode, ExactMode):
        estimate, error = sigma, 0.0
    elif isinstance(mode, BoundedNoiseMode):
        if mode.eta is None:
            raise BadParameter("BoundedNoiseMode.eta is unset; supply a noise budget")
        estimate, error = _add_bounded_noise(sigma, mode.eta, mode.seed, mode.project_psd)
    else:
        estimate = _finite_sample_estimate(sigma, d, mode)
        error = linalg.trace_norm(estimate - sigma)
    mass = float(np.clip(np.real(trace), 0.0, 1.0))
    return TomographyOutcome(estimate, mass, error)


def _add_bounded_noise(
    sigma: np.ndarray, eta: float, seed: int, project_psd: bool
) -> tuple[np.ndarray, float]:
    """The perturbed estimate and the trace norm of its perturbation."""
    if eta == 0.0:
        return sigma.copy(), 0.0
    dim = sigma.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    delta = (g + g.conj().T) / 2.0
    delta -= np.trace(delta) / dim * np.eye(dim)
    norm = linalg.trace_norm(delta)
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        raise OracleFailure("degenerate noise draw")
    scale = eta / norm
    estimate, error = sigma + scale * delta, scale * norm
    if project_psd:
        shifted = linalg.project_psd(estimate) - sigma
        error = linalg.trace_norm(shifted)
        if error > eta:
            rescale = eta / error
            shifted *= rescale
            error *= rescale
        estimate = sigma + shifted
    return estimate, error


@lru_cache(maxsize=32)
def _single_site_bases(d: int) -> tuple[np.ndarray, ...]:
    """A deterministic measurement-basis family on one qudit, columns are vectors.

    For prime ``d`` these are mutually unbiased: the computational basis plus
    ``d`` Fourier-type bases.  A composite site is factored into virtual
    prime-dimensional subsystems and the family is every tensor product of
    the factors' bases; the product family is informationally complete and
    keeps the linear-inversion design well-conditioned (a Haar-random family of
    the same size can be singular to within a factor of a few hundred).
    """
    if d == 2:
        s = 1 / math.sqrt(2)
        z = np.eye(2, dtype=complex)
        x = np.array([[s, s], [s, -s]], dtype=complex)
        y = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
        return (z, x, y)
    factors = _prime_factors(d)
    if factors == [d]:
        omega = np.exp(2j * np.pi / d)
        m, j = np.ogrid[:d, :d]
        fourier = [omega ** ((k * m * m + j * m) % d) / math.sqrt(d) for k in range(d)]
        return (np.eye(d, dtype=complex), *fourier)
    return tuple(
        reduce(np.kron, combo) for combo in itertools.product(*map(_single_site_bases, factors))
    )


def _prime_factors(d: int) -> list[int]:
    k = next((k for k in range(2, d + 1) if d % k == 0), None)
    return [] if k is None else [k, *_prime_factors(d // k)]


def _finite_sample_estimate(sigma: np.ndarray, d: int, mode: FiniteSampleMode) -> np.ndarray:
    """Draw ``mode``'s measurements of ``sigma`` and invert them (see :class:`FiniteSampleMode`)."""
    dim = sigma.shape[0]
    sites = infer_site_count(dim, d)
    settings = len(_single_site_bases(d)) ** sites
    if settings * dim > linalg.MAX_WALK_WINDOW:
        raise TooLarge(
            f"finite-sample simulation of {settings} settings x {dim} outcomes exceeds the "
            f"cap of {linalg.MAX_WALK_WINDOW} frequency-table entries"
        )
    # The survivors come from a stream of their own, so the measurement draws
    # do not hinge on whether the mass rounds to 1 or to just below it.
    survive, rng = (np.random.default_rng(s) for s in np.random.SeedSequence(mode.seed).spawn(2))
    mu = float(np.clip(np.real(np.trace(sigma)), 0.0, 1.0))
    survivors = int(survive.binomial(mode.copies, mu))
    if survivors == 0:
        return np.zeros_like(sigma)
    rows, inverse = _design(d)
    probs = np.clip(np.real(_per_site(rows, sigma / np.trace(sigma), sites, d)), 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    shots = np.full(settings, survivors // settings)
    shots[: survivors % settings] += 1
    counts = rng.multinomial(shots, probs)  # a setting without shots draws nothing
    freqs = np.divide(
        counts, shots[:, None], out=np.full(counts.shape, 1.0 / dim), where=shots[:, None] > 0
    )
    x = _per_site(inverse, freqs, sites, d)
    x = (x + x.conj().T) / 2.0
    return (survivors / mode.copies) * x


@lru_cache(maxsize=32)
def _design(d: int) -> tuple[np.ndarray, np.ndarray]:
    """One site's design ``rows``, a row <v|.|v> per (basis, outcome), and its pseudo-inverse."""
    vectors = np.concatenate(_single_site_bases(d), axis=1).T
    rows = np.einsum("bj,bk->bjk", vectors.conj(), vectors).reshape(len(vectors), d * d)
    return rows, np.linalg.pinv(rows)


def _per_site(matrix: np.ndarray, table: np.ndarray, sites: int, d: int) -> np.ndarray:
    """Apply the Kronecker power of one site's ``matrix`` to a table, without forming it.

    ``table`` is indexed by ``(a_1..a_sites, b_1..b_sites)``, site ``q``'s
    axis is ``(a_q, b_q)``, and each ``b_q`` has length ``d``: a marginal's
    (row, column) qudits, or a frequency table's (basis, outcome) choices.
    """
    rows_in, rows_out = matrix.shape[1] // d, matrix.shape[0] // d
    pair = [axis for q in range(sites) for axis in (q, sites + q)]
    t = table.reshape((rows_in,) * sites + (d,) * sites).transpose(pair)
    for _ in range(sites):  # each pass maps the leading site and moves it last
        t = (matrix @ t.reshape(matrix.shape[1], -1)).T
    t = t.reshape((rows_out, d) * sites).transpose(np.argsort(pair))
    return t.reshape(rows_out**sites, d**sites)


def _budget(mu: float, factors: tuple[int, ...], eta: float, delta: float) -> int:
    """``ceil(mu * prod(factors) * ln(1/delta) / eta**2)``, left to right."""
    value = reduce(operator.mul, factors, mu)
    return int(math.ceil(value * math.log(1.0 / delta) / eta**2))


def _validate_budget_args(mu: float, d: int, r_minus_i: int, eta: float, delta: float) -> None:
    if not 0.0 <= mu <= 1.0 + 1e-12:
        raise BadParameter(f"mu must be in [0, 1], got {shown(mu)}")
    # d**r_minus_i is exact, so its float range is checked first: a huge one never returns
    if d < 2 or not 0 <= r_minus_i <= sys.float_info.max_exp / math.log2(d):
        need = "need d >= 2 and r_minus_i >= 0 with d**r_minus_i in a float's range"
        raise BadParameter(f"{need}, got d={shown(d)}, r_minus_i={shown(r_minus_i)}")
    if not 0.0 < eta < math.inf:  # NaN fails too
        raise BadParameter(f"eta must be positive and finite, got {shown(eta)}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {shown(delta)}")


@in_float_range
def budget_rank_constrained(
    mu: float, D: int, d: int, r_minus_i: int, eta: float, delta: float
) -> int:
    """Copies sufficient for rank-constrained tomography after post-selection.

    The estimated block lives on ``r_minus_i`` qudits of dimension ``d``, has
    rank at most ``D**2``, and carries success mass ``mu``.  The returned
    count is ``ceil(mu * D**2 * d**r_minus_i * ln(1/delta) / eta**2)``; the
    unit constant is a documented choice.
    """
    _validate_budget_args(mu, d, r_minus_i, eta, delta)
    if D < 1:
        raise BadParameter(f"D must be >= 1, got {shown(D)}")
    return _budget(mu, (D, D, d**r_minus_i), eta, delta)


@in_float_range
def budget_general(mu: float, d: int, r_minus_i: int, eta: float, delta: float) -> int:
    """Copies sufficient for unconstrained tomography after post-selection.

    Same conventions as :func:`budget_rank_constrained` with the rank factor
    replaced by the full dimension: ``ceil(mu * d**(2 r_minus_i) * ln(1/delta)
    / eta**2)``.
    """
    _validate_budget_args(mu, d, r_minus_i, eta, delta)
    return _budget(mu, (d ** (2 * r_minus_i),), eta, delta)
