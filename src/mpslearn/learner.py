"""Tree learner: recover a state-preparation circuit from block tomography.

The learner walks the halving schedule from :mod:`mpslearn.planner`.  At each
layer it estimates every acted block's marginal through a tomography oracle,
builds a disentangling isometry ``W`` per block, and compresses each block by
``W^dagger``: its unitary, then the projection of the shed qudits onto zero.
After the last layer a final tomography call on the surviving tail yields the
residual state, and the output circuit (one isometry per block) is the
inverse of everything that was applied.

Two variants share the loop and its one block step; a variant sets only the
block size ``p``, the per-call accuracy ``eta``, the kept rank, the copies
charged and the drop bound.  The ``exact`` variant assumes the input is a
bond-dimension-``D`` matrix product state and keeps the top ``D**2``
eigenvectors per block; its guarantee is fidelity at least ``1 - epsilon``
when oracle errors stay within the per-call budget.  The ``closest`` variant
makes no input assumption, keeps the top ``d**p`` eigenvectors, and competes
with the best fidelity achievable by any bond-dimension-``D`` state.

Under the exact oracle the tensor-train register (a factored run) never forms
a block marginal: each marginal is ``F F^H`` for the thin factor
:meth:`~mpslearn.backend.MPSBackend.rdm_factor` returns (the block's window,
with the register's orthogonality centre moved into it), of rank at most
``D_l * D_r``; its isometry, ``F``'s top left singular vectors completed
from a ``k x d**p`` null space when there are ``k < d**p`` of them
(:func:`~mpslearn.disentangler.build_rank_capped_from_factor`), needs no
hermiticity check and no certificate: ``F F^H`` is Hermitian and PSD by
construction.  Every other run hands the oracle the dense marginals.  A
layer's blocks act on disjoint sites and all its marginals are taken before
any block is compressed, so the layer is one step: its consecutive marginals
of one shape are stacked, up to ``_STACK_ENTRIES`` entries a stack, and each
stack takes one oracle call and one builder call.  Each block's estimate and
isometry are bit for bit those of its own calls, its noise drawn from its
own seed.
The run plans first and builds the tensor-train register from layer 1's
windows: each acted block is contracted from the input's site tensors into
one tensor, unless its window on their raw bonds is past the cap, and one
QR sweep makes the train canonical, one step per window, not per site.  A
layer's blocks are estimated right to left and compressed left to right, so
the centre crosses the register once each way per layer, one QR step per
tensor, not per site: the register keeps each earlier window as one tensor.
The oracle's seeds are keyed by (layer, block), so the order changes no
estimate.

A register no longer than twice the block tail runs the same loop on a plan
with zero layers: the closing call then covers the whole register (the
trivial path).  One rule makes the closing call: a pure register under the
exact oracle reads its held tail, the oracle's answer, on every path and
variant; every other closing call, like every non-factored block call, hands
the oracle the marginal of its register's ``rdm``, which refuses one past the
dense cap before forming it.  The learned circuit is walked through the
registers' ``compress`` forward (to disentangle or project a vector) and
their ``uncompress`` backward (to prepare the state, densely or as a tensor
train, and the audit's stages).  The run's final fidelity needs neither
walk: it is the closing register's overlap with the residual.

The register follows the input alone (see :mod:`mpslearn.backend`), so
``audit=True`` records a run without changing it: its snapshots are copies of
the run's own register, dense or tensor train, and an audited run saves the
same circuit and report as an unaudited one.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import linalg, mps, tomography
from .backend import MPSBackend, StateBackend, infer_site_count
from .disentangler import build_rank_capped, build_rank_capped_from_factor, unitary_from_isometry
from .errors import BadParameter, MalformedCircuit, TooLarge, shown
from .planner import (
    LayerPlan,
    eta_closest,
    eta_exact,
    p_exact,
    plan_layers,
    select_epsilon,
    solve_p_closest,
)

CIRCUIT_FORMAT_NAME = "disentangling-circuit"
CIRCUIT_FORMAT_VERSION = 4
# Entries of one stack of a layer's marginals, 1 MiB: past it a layer's
# marginals are estimated in several stacks, so its peak memory stays near
# one marginal's or one stack's.
_STACK_ENTRIES = 2**16


@dataclasses.dataclass(frozen=True)
class LearnSchedule:
    """Explicit block size (an integer p >= 1) and eta (in (0, 2]) for :func:`learn`.

    The closest variant keeps each block's top ``d**p`` eigenvectors, which hold
    all above ``eta`` only if ``1/eta <= d**p``; the derived schedule has
    ``d**p >= B/p = 1/eta``, a custom one need not.
    """

    p: int
    eta: float

    def __post_init__(self) -> None:
        if not (mps.is_integer(self.p) and self.p >= 1):
            raise BadParameter(f"p must be an integer >= 1, got {self.p!r}")
        if not (mps.is_real(self.eta) and 0.0 < self.eta <= 2.0):  # NaN fails too
            raise BadParameter(f"eta must be in (0, 2], the largest trace distance, got {self.eta}")


def _plan(n: int, d: int, p: int) -> LayerPlan:
    """The circuit's halving schedule, with no layers on the trivial path (``n <= 2p``).

    The one place the geometry comes from: :func:`learn` and
    :func:`load_circuit` both call it, so a circuit is fixed by ``(n, d, p)``.
    """
    if n > 2 * p:
        return plan_layers(n, d, p)
    return LayerPlan(n, d, p, M=0, ell1=0, s1=0, k1=0, s1_amended=False, layers=())


@dataclasses.dataclass(frozen=True)
class CircuitUnitary:
    """One block of the learned circuit (support is 1-based).

    ``matrix`` is the block's isometry ``W``, ``d**y x d**p`` for ``y``
    support sites: the first ``d**p`` columns of the block unitary's inverse.
    """

    layer: int
    index: int
    support: tuple[int, ...]
    matrix: np.ndarray


@dataclasses.dataclass
class CircuitDescription:
    """Everything needed to rebuild the learned state.

    The learned state is ``U_1^dagger ... U_M^dagger (|0...0> (x) residual)``
    with the zeros on ``projected_by_layer`` sites and the residual on
    ``residual_sites``, both read off ``plan`` (with no layers on the trivial
    path).  Site labels are 1-based to match the planner.
    """

    n: int
    d: int
    p: int
    plan: LayerPlan
    unitaries: list[CircuitUnitary]
    residual: np.ndarray
    metadata: dict

    @property
    def num_layers(self) -> int:
        return self.plan.M

    @property
    def projected_by_layer(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(s for b in layer for s in b.projected) for layer in self.plan.layers)

    @property
    def residual_sites(self) -> tuple[int, ...]:
        return self.plan.final_carried

    def layer_unitaries(self, layer: int) -> list[CircuitUnitary]:
        return [u for u in self.unitaries if u.layer == layer]


@dataclasses.dataclass(frozen=True)
class BlockStats:
    layer: int
    index: int
    support: tuple[int, ...]
    success_mass: float
    estimate_error: float
    copies_charged: int


@dataclasses.dataclass(frozen=True)
class LayerStats:
    layer: int
    success_mass: float
    drop_bound: float
    blocks: tuple[BlockStats, ...]


@dataclasses.dataclass
class LearnReport:
    """Run summary: accuracy, copy accounting, per-layer diagnostics."""

    variant: str
    n: int
    d: int
    D: int
    epsilon: float
    effective_epsilon: float
    delta: float
    p: int
    M: int
    eta: float
    tau: float
    seed: int
    oracle: str
    final_fidelity: float
    copies_used: int
    per_layer: list[LayerStats]
    deviations: list[str]
    theta: float | None = None
    audit: "AuditTrail | None" = None


class AuditTrail:
    """Stepwise snapshots of one learner run, for invariant checking.

    ``snapshots[j]`` is a copy of the run's register after layer ``j`` of
    ``circuit`` (``j = 0`` is the input).  The trail can rebuild each stage as
    a sub-normalized vector or operator on the full original register (dense,
    so capped), evaluate overlaps against witness states, and bound how far
    each layer's projection can sink any witness's fidelity.
    """

    def __init__(self, circuit: CircuitDescription, snapshots: list[StateBackend | MPSBackend]):
        self.circuit = circuit
        self.snapshots = snapshots

    @property
    def M(self) -> int:
        return self.circuit.num_layers

    def success_mass(self, j: int) -> float:
        _check_layer(j, 0, self.M)
        return self.snapshots[j].success_mass()

    def stepwise_vector(self, j: int) -> np.ndarray:
        """Stage ``j`` as a sub-normalized vector on the full register (pure runs)."""
        _check_layer(j, 0, self.M)
        return _walk_backward(self.circuit, self.snapshots[j].copy(), j).expand()

    def stepwise_state(self, j: int) -> np.ndarray:
        """Stage ``j`` as a sub-normalized operator on the full register."""
        _check_layer(j, 0, self.M)
        d, n = self.circuit.d, self.circuit.n
        if d**n > linalg.MAX_DENSITY_DIM:
            raise TooLarge(
                f"dense stage operator of dimension {d}**{n} exceeds cap "
                f"{linalg.MAX_DENSITY_DIM}; use stepwise_vector for pure runs"
            )
        register = _walk_backward(self.circuit, self.snapshots[j].copy(), j)
        if not register.pure:
            return register.state
        stage = register.expand()
        return np.outer(stage, stage.conj())

    def fidelity_against(self, phi: np.ndarray, j: int) -> float:
        """Overlap of stage ``j`` with a witness state, ``<phi| rho_j |phi>``."""
        _check_layer(j, 0, self.M)
        return self.snapshots[j].fidelity(residual_projection(self.circuit, phi, j))

    def monotonicity_margin(self, j: int) -> float:
        """Smallest eigenvalue of ``rho_{j-1} - rho_j`` (non-negative in theory)."""
        _check_layer(j, 1, self.M)
        if self.snapshots[0].pure:
            return _rank_two_min_eig(self.stepwise_vector(j - 1), self.stepwise_vector(j))
        diff = self.stepwise_state(j - 1) - self.stepwise_state(j)
        return float(np.linalg.eigvalsh(diff)[0])


def _check_layer(j: int, first: int, last: int) -> None:
    """Raise ``BadParameter`` unless ``j`` is an integer in ``first..last``; a bool is not."""
    if not (mps.is_integer(j) and first <= j <= last):
        raise BadParameter(f"layer must be an integer in {first}..{last}, got {shown(j)}")


def _rank_two_min_eig(u: np.ndarray, w: np.ndarray) -> float:
    """Minimum eigenvalue of ``u u^dagger - w w^dagger`` via its 2-dim span."""
    basis: list[np.ndarray] = []
    for v in (u, w):
        r = v.copy()
        for b in basis:
            r = r - np.vdot(b, r) * b
        norm = np.linalg.norm(r)
        if norm > 1e-14:
            basis.append(r / norm)
    if not basis:
        return 0.0
    cu = np.array([np.vdot(b, u) for b in basis])
    cw = np.array([np.vdot(b, w) for b in basis])
    small = np.outer(cu, cu.conj()) - np.outer(cw, cw.conj())
    eigs = np.linalg.eigvalsh(small)
    return float(min(eigs[0], 0.0)) if eigs.size else 0.0


def _spawn_seed(base: Sequence[int], key: Sequence[int]) -> int:
    ss = np.random.SeedSequence(entropy=list(base), spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint32)[0])


def _child_mode(mode: tomography.OracleMode, eta_budget: float, base: Sequence[int], key: Sequence[int]):
    """The mode of one oracle call: its own seed, and the budget for an unset eta."""
    if isinstance(mode, tomography.ExactMode):
        return mode
    fill = {"seed": _spawn_seed(base, key)}
    if isinstance(mode, tomography.BoundedNoiseMode) and mode.eta is None:
        fill["eta"] = eta_budget
    return dataclasses.replace(mode, **fill)


def _dense_register(state, d: int) -> StateBackend:
    """The register of a vector or density input, on the plan's labels ``1..n``."""
    arr = np.asarray(state, dtype=complex)
    if arr.ndim not in (1, 2):
        raise BadParameter(f"state must be a vector or density matrix, got ndim {arr.ndim}")
    return StateBackend(arr, d, range(1, infer_site_count(len(arr), d) + 1))


def _train_register(chain: mps.MatrixProductState, plan: LayerPlan) -> MPSBackend:
    """The tensor-train register of an open chain, built from layer 1's acted blocks.

    Each block whose window fits the cap is contracted from the site tensors
    into one tensor.  The trivial path has no layer, so its register starts
    from one tensor per site.
    """
    runs = [b.support for b in plan.blocks(1) if b.acted] if plan.M else []
    return MPSBackend(chain, range(1, plan.n + 1), runs)


def learn(
    state,
    d: int,
    D: int,
    epsilon: float,
    delta: float,
    *,
    variant: str = "exact",
    mode: tomography.OracleMode | None = None,
    seed: int = 0,
    audit: bool = False,
    theta: float | None = None,
    schedule: LearnSchedule | None = None,
) -> tuple[CircuitDescription, LearnReport]:
    """Learn a disentangling circuit for ``state``.

    Parameters
    ----------
    state : MatrixProductState or np.ndarray
        The input state: an MPS, a unit vector, or a density matrix.  An MPS
        runs on the tensors of its :func:`~mpslearn.mps.open_chain` (no d**n
        cap, :class:`~mpslearn.backend.MPSBackend`); the others run on the
        dense :class:`~mpslearn.backend.StateBackend`.
    d, D : int
        Local dimension and the bond-dimension parameter of the guarantee.
    epsilon, delta : float
        Target infidelity and failure probability, both in (0, 1).
    variant : str
        ``"exact"`` or ``"closest"``.
    mode : OracleMode
        Tomography oracle; defaults to :class:`~mpslearn.tomography.ExactMode`,
        and any object but the three modes raises ``BadParameter``.
        A :class:`BoundedNoiseMode` with ``eta=None`` tracks the learner's own
        per-call budget.  Per-call seeds are derived from ``seed``, the mode
        seed, and the (layer, block) key, so results are order-independent.
    seed : int
        Base seed for all derived randomness.
    audit : bool
        Record a copy of the register after each layer on the report
        (:class:`AuditTrail`), for invariant checking.  The run, its circuit
        and its other report fields are the same either way.
    theta : float, optional
        Promise parameter recorded in the metadata; it does not change the
        algorithm.
    schedule : LearnSchedule, optional
        Explicit block size and eta override.  The default schedule is derived
        from the variant's parameter solvers.

    Returns
    -------
    tuple[CircuitDescription, LearnReport]
        The report's ``final_fidelity`` is read off the closing register by
        its ``fidelity``: ``|<r| Pi U psi>|^2``, or
        ``<r| Pi U rho U^dagger Pi |r>``, for the residual ``r``, the layers'
        unitaries ``U`` and the projections ``Pi``.  No later layer acts on a
        dropped site, so this equals the overlap of the input with
        :func:`reconstruct_state`'s output, ``|<0 (x) r| U psi>|^2``, without
        forming that d**n vector.
    """
    if variant not in ("exact", "closest"):
        raise BadParameter(f"variant must be 'exact' or 'closest', got {variant!r}")
    if not (mps.is_real(epsilon) and 0.0 < epsilon <= 1.0):
        raise BadParameter(f"epsilon must be in (0, 1], got {shown(epsilon)}")
    if not (mps.is_real(delta) and 0.0 < delta < 1.0):
        raise BadParameter(f"delta must be in (0, 1), got {shown(delta)}")
    if not (mps.is_integer(d) and mps.is_integer(D) and D >= 1 and mps.is_seed(seed)):
        got = f"d={shown(d)}, D={shown(D)}, seed={shown(seed)}"
        raise BadParameter(f"need integers d, D >= 1 and seed in 0 .. 2**64 - 1, got {got}")
    if theta is not None and not (mps.is_real(theta) and abs(theta) <= sys.float_info.max):
        raise BadParameter(f"theta must be a finite float, got {shown(theta)}")
    mode = tomography.ExactMode() if mode is None else mode
    if not isinstance(mode, tomography.OracleMode):
        raise BadParameter(f"unknown oracle mode {mode!r}")

    if isinstance(state, mps.MatrixProductState):
        if state.d != d:
            raise BadParameter(f"state has d={state.d}, learner called with d={d}")
        chain, backend, n = mps.open_chain(state), None, state.n  # its register follows the plan
    else:
        backend = _dense_register(state, d)
        n = backend.n

    deviations: list[str] = []
    effective_epsilon = epsilon

    if schedule is not None:
        p, eta = schedule.p, schedule.eta
        deviations.append("custom-schedule: p and eta supplied by caller")
    else:
        if variant == "exact":
            p = p_exact(d, D)
            if p == 0:
                p = 1
                deviations.append("p-clamped: D = 1 gives p = 0, using the minimum tail p = 1")
        else:
            solution = solve_p_closest(n, d, D, epsilon)
            if solution.exists:
                p = solution.p_candidate
            else:
                p, effective_epsilon = select_epsilon(n, d, D, epsilon)
                deviations.append(
                    f"epsilon-adjusted: {epsilon:g} -> {effective_epsilon:.12g} so the "
                    "block-size equation is solvable"
                )
    plan = _plan(n, d, p)
    M, tail = plan.M, plan.final_carried
    if backend is None:
        backend = _train_register(chain, plan)
    mass = backend.success_mass()
    if not abs(mass - 1.0) <= 1e-9:  # a NaN mass fails too
        raise BadParameter(f"input state must be normalized, got mass {mass}")
    if M == 0:
        # No layer to run: the closing call estimates the whole register.
        if schedule is None:
            eta = effective_epsilon / 4.0
        deviations.append(
            f"trivial-path: n = {n} <= 2p = {2 * p}, estimating the whole register directly"
        )
    else:
        if schedule is None:
            if variant == "exact":
                eta = eta_exact(effective_epsilon, M)
            else:
                eta = eta_closest(effective_epsilon, p, D, n)
        # An oracle pinned to an explicit accuracy defines the per-block
        # accuracy of the whole run; the derived budget only applies when the
        # oracle tracks the learner (eta=None).
        if isinstance(mode, tomography.BoundedNoiseMode) and mode.eta is not None:
            eta = mode.eta
        if plan.s1_amended:
            deviations.append(
                "s1-amended: first-layer remainder divides evenly, last acted block "
                "widened to a full 2p block"
            )

    tau = effective_epsilon / 4.0
    mode_seed = getattr(mode, "seed", 0)
    seed_base = (seed, mode_seed)
    copies_used = 0
    per_layer: list[LayerStats] = []
    unitaries: list[CircuitUnitary] = []
    snapshots = [backend.copy()] if audit else []

    # The exact oracle returns a tensor train's marginal sigma = F F^H itself,
    # and sigma's top eigenvectors are the left singular vectors of the thin F;
    # only the tensor-train register hands out such factors.  The variant sets
    # only the kept rank, never the builder.
    factored = isinstance(mode, tomography.ExactMode) and isinstance(backend, MPSBackend)
    kept = D * D if variant == "exact" else d**p
    for j in range(1, M + 1):
        # Right to left, so a tensor train's centre ends where the compressions start
        acted = [block for block in reversed(plan.blocks(j)) if block.acted]
        built: list[tuple] = []  # (block, isometry, success mass, estimate error)
        if factored:
            for block in acted:
                factor = backend.rdm_factor(block.support)
                dz = build_rank_capped_from_factor(factor, d, kept, p)
                mass = float(np.clip(np.linalg.norm(factor) ** 2, 0.0, 1.0))
                built.append((block, dz.isometry, mass, 0.0))
        else:
            for run in _stack_runs(acted, d):
                modes = [_child_mode(mode, eta, seed_base, (j, b.index)) for b in run]
                # the stack is held by the oracle call alone, not while its estimates are built
                outcome = tomography.estimate_block(
                    _as_stack([backend.rdm(b.support) for b in run]), d, modes
                )
                isometries = build_rank_capped(outcome.estimate, d, kept, p).isometry
                masses, errors = outcome.success_mass.tolist(), outcome.error.tolist()
                built.extend(zip(run, isometries, masses, errors))
        stats: list[BlockStats] = []
        for block, _, mass, error in built:
            charge = _charge(variant, mass, D, d, len(block.support), eta, delta / n)
            copies_used += charge
            stats.append(
                BlockStats(
                    layer=j,
                    index=block.index,
                    support=block.support,
                    success_mass=mass,
                    estimate_error=error,
                    copies_charged=charge,
                )
            )
        built, stats = built[::-1], stats[::-1]
        for block, isometry, _, _ in built:
            backend.compress(isometry, block.support, block.projected)
        if variant == "exact":
            drop_bound = 2.0 * math.sqrt(2.0 * eta * 2 ** (M - j))
        else:
            drop_bound = 2.0 * math.sqrt(2.0 * eta * D * D * 2 ** (M - j))
        per_layer.append(
            LayerStats(
                layer=j,
                success_mass=backend.success_mass(),
                drop_bound=drop_bound,
                blocks=tuple(stats),
            )
        )
        unitaries.extend(
            CircuitUnitary(layer=j, index=b.index, support=b.support, matrix=isometry)
            for b, isometry, _, _ in built
        )
        if audit:
            snapshots.append(backend.copy())

    call_mode = _child_mode(mode, tau, seed_base, (M + 1, 0))
    if backend.pure and isinstance(call_mode, tomography.ExactMode):
        # The exact oracle on a pure register, which then holds only the tail,
        # returns the held state itself, of mass its squared norm.
        held = backend.expand()
        norm = np.linalg.norm(held)
        residual = linalg.fix_phase(held / norm)
        mass = float(np.clip(norm**2, 0.0, 1.0))
    else:
        outcome = tomography.estimate_block(backend.rdm(tail), d, call_mode)
        residual = linalg.top_eigenvector(outcome.estimate)
        mass = outcome.success_mass
    copies_used += _charge(variant, mass, D, d, len(tail), tau, delta / n)

    report = LearnReport(
        variant=variant,
        n=n,
        d=d,
        D=D,
        epsilon=epsilon,
        effective_epsilon=effective_epsilon,
        delta=delta,
        p=p,
        M=M,
        eta=eta,
        tau=tau,
        seed=seed,
        oracle=mode.name,
        final_fidelity=backend.fidelity(residual),
        copies_used=copies_used,
        per_layer=per_layer,
        deviations=deviations,
        theta=theta,
    )
    # The circuit's metadata is read off the report, plus the oracle's parameters.
    keys = "variant epsilon effective_epsilon delta eta tau seed oracle theta".split()
    metadata = {key: getattr(report, key) for key in keys}
    metadata.update(
        oracle_params=dataclasses.asdict(mode), deviations=list(deviations), trivial_path=M == 0
    )
    circuit = CircuitDescription(
        n=n, d=d, p=p, plan=plan, unitaries=unitaries, residual=residual, metadata=metadata
    )
    if audit:
        report.audit = AuditTrail(circuit, snapshots)
    return circuit, report


def _stack_runs(blocks: Sequence, d: int) -> list[list]:
    """``blocks``, in order, cut into runs of one width whose marginals stack.

    A run's marginals, of ``d**(2 y)`` entries each for ``y`` sites, hold at
    most ``_STACK_ENTRIES`` entries in all, unless the run is one block.
    """
    runs: list[list] = []
    for block in blocks:
        run = runs[-1] if runs else []
        entries = (len(run) + 1) * d ** (2 * len(block.support))
        if run and len(run[0].support) == len(block.support) and entries <= _STACK_ENTRIES:
            run.append(block)
        else:
            runs.append([block])
    return runs


def _as_stack(marginals: list[np.ndarray]) -> np.ndarray:
    """The marginals as one ``(k, side, side)`` array; one marginal is viewed, not copied."""
    return marginals[0][None] if len(marginals) == 1 else np.stack(marginals)


def _charge(
    variant: str, mass: float, D: int, d: int, sites: int, eta: float, delta: float
) -> int:
    """Copies charged for one tomography call on ``sites`` qudits at accuracy ``eta``."""
    if variant == "exact":
        return tomography.budget_rank_constrained(mass, D, d, sites, eta, delta)
    return tomography.budget_general(mass, d, sites, eta, delta)


def _walk_backward(
    circuit: CircuitDescription, register: StateBackend | MPSBackend, j: int
) -> StateBackend | MPSBackend:
    """Undo layers ``j..1`` of the circuit on a register, and return it.

    The register holds the state after layer ``j``; each block inserts its
    shed sites at |0> and maps its carried sites through its isometry
    (``uncompress``), so the register ends on the full chain.
    """
    for layer in range(j, 0, -1):
        for u in circuit.layer_unitaries(layer):
            register.uncompress(u.matrix, u.support, u.support[: len(u.support) - circuit.p])
    return register


def _walk_forward(
    circuit: CircuitDescription, vector: np.ndarray, j: int, project: bool
) -> np.ndarray:
    """Apply layers ``1..j`` of the circuit to a vector on the full register.

    Each block applies its isometry's unitary completion, or with ``project``
    compresses by the isometry, dropping the layer's shed sites: the result
    then lives on the sites still held after layer ``j``.
    """
    vec = np.array(vector, dtype=complex).reshape(-1)  # a copy: the register holds it as given
    if vec.size != circuit.d**circuit.n:
        raise BadParameter(
            f"vector has dimension {vec.size}, expected {circuit.d}**{circuit.n}"
        )
    register = StateBackend(vec, circuit.d, range(1, circuit.n + 1))
    for layer in range(1, j + 1):
        for u in circuit.layer_unitaries(layer):
            if project:
                register.compress(u.matrix, u.support, u.support[: len(u.support) - circuit.p])
            else:
                register.apply_unitary(unitary_from_isometry(u.matrix), u.support)
    return register.state


def reconstruct_state(circuit: CircuitDescription) -> np.ndarray:
    """Dense unit vector prepared by the learned circuit."""
    d, n, sites = circuit.d, circuit.n, circuit.residual_sites
    if d**n > linalg.MAX_VECTOR_DIM:
        raise TooLarge(f"dense reconstruction of dimension {d}**{n} exceeds the cap")
    register = StateBackend(circuit.residual.copy(), d, sites)  # returned as held if no layer
    return _walk_backward(circuit, register, circuit.num_layers).state


def forward_transform(circuit: CircuitDescription, vector: np.ndarray) -> np.ndarray:
    """Apply the learned circuit in the forward (disentangling) direction."""
    return _walk_forward(circuit, vector, circuit.num_layers, project=False)


def residual_projection(circuit: CircuitDescription, phi: np.ndarray, j: int) -> np.ndarray:
    """Witness ``phi`` pushed through ``j`` layers and restricted to the kept sector.

    The returned sub-normalized vector lives on the sites still in the
    register after layer ``j``, in ascending site order.  Its overlap with the
    backend state at stage ``j`` equals the witness's overlap with the
    stage-``j`` operator on the full register.
    """
    _check_layer(j, 0, circuit.num_layers)
    return _walk_forward(circuit, phi, j, project=True)


def extract_mps(circuit: CircuitDescription) -> mps.MatrixProductState:
    """Contract the learned circuit into an open-boundary tensor train.

    The residual, held as one tensor, is walked backward on a tensor-train
    register, which cuts it only where a block's window needs a cut and then
    into sites, each cut from the centre.  A grown window of more than
    ``2**24`` entries raises ``TooLarge`` before it is built.
    """
    register = MPSBackend.of_vector(circuit.residual, circuit.d, circuit.residual_sites)
    return _walk_backward(circuit, register, circuit.num_layers).state


def save_circuit(circuit: CircuitDescription, path: str | Path) -> None:
    """Write a versioned JSON description of the circuit.

    The file holds ``n``, ``d``, ``p``, the metadata, every block isometry in
    plan order as one base64 string, and the residual; the geometry is
    rebuilt from ``(n, d, p)`` on load.  The entries are stored bit for bit
    by :func:`mpslearn.mps.complex_entries`, so save/load round-trips exactly,
    and :func:`mpslearn.mps.write_json` writes canonical JSON, with the two
    base64 strings spliced in unescaped, so repeated saves are byte-identical.
    """
    doc = {
        "format": CIRCUIT_FORMAT_NAME,
        "version": CIRCUIT_FORMAT_VERSION,
        "n": circuit.n,
        "d": circuit.d,
        "p": circuit.p,
        "isometries": mps.complex_entries([u.matrix for u in circuit.unitaries]),
        "residual": mps.complex_entries([circuit.residual]),
        "metadata": circuit.metadata,
    }
    mps.write_json(path, doc)


def load_circuit(path: str | Path) -> CircuitDescription:
    """Load and validate a circuit written by :func:`save_circuit`.

    The plan and every block's support are rebuilt from ``(n, d, p)``.  Every
    defect in the file raises :class:`MalformedCircuit`.
    """
    keys = ("n", "d", "p", "isometries", "residual", "metadata")
    doc = mps.read_document(path, CIRCUIT_FORMAT_NAME, CIRCUIT_FORMAT_VERSION, keys, MalformedCircuit)
    n, d, p = doc["n"], doc["d"], doc["p"]
    if not (all(mps.is_integer(x) for x in (n, d, p)) and n >= 1 and d >= 2 and p >= 1):
        raise MalformedCircuit(
            f"need integers n >= 1, d >= 2 and p >= 1, got n={n!r}, d={d!r}, p={p!r}"
        )
    stored = (doc["isometries"], doc["residual"])
    if not all(isinstance(entries, str) for entries in stored):
        raise MalformedCircuit("isometries and residual must be base64 strings")
    # Each site costs at least one stored entry (the residual holds d**p for
    # its p sites, an acted block at least d**(2p+1) for its at most p shed
    # sites), and the residual at least d: refuse a register its bytes cannot
    # hold before planning it.  Base64 holds at most 3 bytes per 4 characters.
    if 16 * max(n, d) > 3 * sum(len(entries) for entries in stored) // 4:
        raise MalformedCircuit(f"the stored entries are too few for n={n}, d={d}")

    plan = _plan(n, d, p)
    blocks = [b for layer in plan.layers for b in layer if b.acted]
    shapes = [(d ** len(b.support), d**p) for b in blocks]
    matrices = mps.complex_arrays(doc["isometries"], shapes, MalformedCircuit)
    for matrix in matrices:
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: an inf or NaN defect
            defect = float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(d**p))))
        if not defect <= 1e-8:
            raise MalformedCircuit(f"stored block isometry is off orthonormal by {defect:.3e}")
    (residual,) = mps.complex_arrays(
        doc["residual"], [(d ** len(plan.final_carried),)], MalformedCircuit
    )
    unitaries = [
        CircuitUnitary(layer=b.layer, index=b.index, support=b.support, matrix=matrix)
        for b, matrix in zip(blocks, matrices)
    ]
    return CircuitDescription(
        n=n, d=d, p=p, plan=plan, unitaries=unitaries, residual=residual, metadata=doc["metadata"]
    )
