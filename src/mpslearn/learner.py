"""Tree learner: recover a state-preparation circuit from block tomography.

The learner walks the halving schedule from :mod:`mpslearn.planner`.  At each
layer it estimates every acted block's marginal through a tomography oracle,
builds a disentangling isometry ``W`` per block, and compresses each block by
``W^dagger``: its unitary, then the projection of the shed qudits onto zero.
After the last layer a final tomography call on the surviving tail yields the
residual state, and the output circuit (one isometry per block) is the
inverse of everything that was applied.

Two variants share the loop.  The ``exact`` variant assumes the input is a
bond-dimension-``D`` matrix product state and keeps the top ``D**2``
eigenvectors per block; its guarantee is fidelity at least ``1 - epsilon``
when oracle errors stay within the per-call budget.  The ``closest`` variant
makes no input assumption, keeps eigenvectors above a threshold, and competes
with the best fidelity achievable by any bond-dimension-``D`` state.

On the tensor-train register the exact variant under the exact oracle
(a factored run) never forms a block marginal: each marginal is ``F F^H`` for
the thin factor :meth:`~mpslearn.backend.MPSBackend.rdm_factor` returns, of
rank at most ``D_l * D_r``, and its isometry is built from ``F``'s top left
singular vectors (:func:`~mpslearn.disentangler.build_rank_capped_from_factor`).
That needs no hermiticity check and no certificate: ``F F^H`` is Hermitian
and PSD by construction.  Every other run hands the oracle the dense marginal.

A register no longer than twice the block tail runs the same loop on a plan
with zero layers: the closing call then covers the whole register (the
trivial path).  For a pure input under the exact oracle, on the trivial
path or in a factored run, the closing call reads the held tail directly
instead of estimating it.  The learned circuit is walked through the
registers' ``compress`` forward (to disentangle or project a vector) and their
``uncompress`` backward (to prepare the state, densely or as a tensor train,
and the audit's stages).  The run's final fidelity needs neither walk: it is
the closing register's overlap with the residual.

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
from .backend import MPSBackend, StateBackend, tt_split
from .disentangler import (
    build_rank_capped,
    build_rank_capped_from_factor,
    build_threshold,
    unitary_from_isometry,
)
from .errors import BadParameter, MalformedCircuit, TooLarge
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


@dataclasses.dataclass(frozen=True)
class LearnSchedule:
    """Explicit block size (an integer p >= 1) and eta (in (0, 2]) for :func:`learn`."""

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

    def _check_layer(self, j: int) -> None:
        if not 0 <= j <= self.M:
            raise BadParameter(f"layer must be in 0..{self.M}, got {j}")

    def success_mass(self, j: int) -> float:
        self._check_layer(j)
        return self.snapshots[j].success_mass()

    def stepwise_vector(self, j: int) -> np.ndarray:
        """Stage ``j`` as a sub-normalized vector on the full register (pure runs)."""
        self._check_layer(j)
        return _walk_backward(self.circuit, self.snapshots[j].copy(), j).expand()

    def stepwise_state(self, j: int) -> np.ndarray:
        """Stage ``j`` as a sub-normalized operator on the full register."""
        self._check_layer(j)
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
        self._check_layer(j)
        return self.snapshots[j].fidelity(residual_projection(self.circuit, phi, j))

    def monotonicity_margin(self, j: int) -> float:
        """Smallest eigenvalue of ``rho_{j-1} - rho_j`` (non-negative in theory)."""
        if not 1 <= j <= self.M:
            raise BadParameter(f"layer must be in 1..{self.M}, got {j}")
        if self.snapshots[0].pure:
            return _rank_two_min_eig(self.stepwise_vector(j - 1), self.stepwise_vector(j))
        diff = self.stepwise_state(j - 1) - self.stepwise_state(j)
        return float(np.linalg.eigvalsh(diff)[0])


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


def _register(state, d: int) -> StateBackend | MPSBackend:
    """The register ``learn`` runs on, from the input alone, on the plan's labels ``1..n``."""
    if isinstance(state, mps.MatrixProductState):
        if state.d != d:
            raise BadParameter(f"state has d={state.d}, learner called with d={d}")
        if state.boundary == "open":
            return MPSBackend(state, range(1, state.n + 1))
        state = mps.expand(state)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim not in (1, 2):
        raise BadParameter(f"state must be a vector or density matrix, got ndim {arr.ndim}")
    register = StateBackend(arr, d)  # n is known once the register has checked the array
    register.sites = list(range(1, register.n + 1))
    return register


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
        The input state: an MPS, a unit vector, or a density matrix.  An
        open-boundary MPS runs on its tensors
        (:class:`~mpslearn.backend.MPSBackend`, no d**n cap); every other
        input runs on the dense :class:`~mpslearn.backend.StateBackend`.
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
        raise BadParameter(f"epsilon must be in (0, 1], got {epsilon}")
    if not (mps.is_real(delta) and 0.0 < delta < 1.0):
        raise BadParameter(f"delta must be in (0, 1), got {delta!r}")
    if not (all(mps.is_integer(x) for x in (d, D, seed)) and D >= 1 and seed >= 0):
        raise BadParameter(
            f"need integers d, D >= 1 and seed >= 0, got d={d!r}, D={D!r}, seed={seed!r}"
        )
    if theta is not None and not (mps.is_real(theta) and abs(theta) <= sys.float_info.max):
        raise BadParameter(f"theta must be a finite float, got {theta!r}")
    mode = tomography.ExactMode() if mode is None else mode
    if not isinstance(mode, tomography.OracleMode):
        raise BadParameter(f"unknown oracle mode {mode!r}")

    backend = _register(state, d)
    n = backend.n
    mass = backend.success_mass()
    if not abs(mass - 1.0) <= 1e-9:  # a NaN mass fails too
        raise BadParameter(f"input state must be normalized, got mass {mass}")

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
    # only the tensor-train register hands out such factors.
    factored = (
        variant == "exact"
        and isinstance(mode, tomography.ExactMode)
        and hasattr(backend, "rdm_factor")
    )
    for j in range(1, M + 1):
        blocks = plan.blocks(j)
        built: list[tuple] = []
        stats: list[BlockStats] = []
        for block in blocks:
            if not block.acted:
                continue
            if factored:
                factor = backend.rdm_factor(block.support)
                dz = build_rank_capped_from_factor(factor, d, D * D, p)
                mass, error = float(np.clip(np.linalg.norm(factor) ** 2, 0.0, 1.0)), 0.0
            else:
                call_mode = _child_mode(mode, eta, seed_base, (j, block.index))
                outcome = tomography.estimate_block(backend.rdm(block.support), d, call_mode)
                mass, error = outcome.success_mass, outcome.error
                if variant == "exact":
                    dz = build_rank_capped(outcome.estimate, d, D * D, p)
                else:
                    dz = build_threshold(outcome.estimate, d, eta, p)
            charge = _charge(variant, mass, D, d, len(block.support), eta, delta / n)
            copies_used += charge
            built.append((block, dz))
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
        for block, dz in built:
            backend.compress(dz.isometry, block.support, block.projected)
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
            CircuitUnitary(layer=j, index=b.index, support=b.support, matrix=dz.isometry)
            for b, dz in built
        )
        if audit:
            snapshots.append(backend.copy())

    call_mode = _child_mode(mode, tau, seed_base, (M + 1, 0))
    if (M == 0 or factored) and backend.pure and isinstance(call_mode, tomography.ExactMode):
        # The exact oracle on a pure register, which then holds only the tail,
        # returns the held state itself: the whole input (at most 2p sites) on
        # the trivial path, whose mass is 1, or the compressed tail of a factored run.
        held = backend.expand()
        norm = np.linalg.norm(held)
        residual = linalg.fix_phase(held / norm)
        mass = 1.0 if M == 0 else float(np.clip(norm**2, 0.0, 1.0))
    else:
        if d ** len(tail) > linalg.MAX_DENSITY_DIM:
            raise TooLarge(
                f"tomography of the {len(tail)}-site tail needs a dense operator of "
                f"dimension {d ** len(tail)} > {linalg.MAX_DENSITY_DIM}"
            )
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
    if not 0 <= j <= circuit.num_layers:
        raise BadParameter(f"layer must be in 0..{circuit.num_layers}, got {j}")
    return _walk_forward(circuit, phi, j, project=True)


def extract_mps(circuit: CircuitDescription) -> mps.MatrixProductState:
    """Contract the learned circuit into an open-boundary tensor train.

    The residual, split by :func:`~mpslearn.backend.tt_split`'s un-truncated
    SVDs, is walked backward on a tensor-train register.  A grown window of
    more than ``2**24`` entries raises ``TooLarge`` before it is built.
    """
    d, sites = circuit.d, circuit.residual_sites
    train = tt_split(circuit.residual.reshape(1, -1, 1), d, len(sites))
    residual = mps.MatrixProductState(len(sites), d, "open", [t.transpose(1, 0, 2) for t in train])
    return _walk_backward(circuit, MPSBackend(residual, sites), circuit.num_layers).state


def save_circuit(circuit: CircuitDescription, path: str | Path) -> None:
    """Write a versioned JSON description of the circuit.

    The file holds ``n``, ``d``, ``p``, the metadata, every block isometry in
    plan order as one base64 string, and the residual; the geometry is
    rebuilt from ``(n, d, p)`` on load.  The entries are stored bit for bit
    by :func:`mpslearn.mps.complex_entries`, so save/load round-trips exactly
    and repeated saves are byte-identical.
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
        defect = float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(d**p))))
        if defect > 1e-8:
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
