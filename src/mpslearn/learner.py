"""Tree learner: recover a state-preparation circuit from block tomography.

The learner walks the halving schedule from :mod:`mpslearn.planner`.  At each
layer it estimates every acted block's marginal through a tomography oracle,
builds a disentangling unitary per block, applies the unitaries, projects the
shed qudits onto zero, and discards them.  After the last layer a final
tomography call on the surviving tail yields the residual state, and the
output circuit is the inverse of everything that was applied.

Two variants share the loop.  The ``exact`` variant assumes the input is a
bond-dimension-``D`` matrix product state and keeps the top ``D**2``
eigenvectors per block; its guarantee is fidelity at least ``1 - epsilon``
when oracle errors stay within the per-call budget.  The ``closest`` variant
makes no input assumption, keeps eigenvectors above a threshold, and competes
with the best fidelity achievable by any bond-dimension-``D`` state.

A register no longer than twice the block tail runs the same loop with zero
layers (``plan`` is ``None``): the closing call then covers the whole register
(the trivial path), and for a pure input under the exact oracle it reads the
state directly instead of estimating it.  The learned circuit is walked in one
place each way: backward to prepare the state (and the audit's stage
operators), forward to disentangle a vector and, optionally, project out each
layer's shed sites.  The run's final fidelity needs neither walk: it is the
closing register's overlap with the residual.
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from . import linalg, mps, tomography
from .backend import StateBackend, apply_unitary_density, apply_unitary_vector
from .disentangler import build_rank_capped, build_threshold
from .errors import AuditDisabled, BadParameter, MalformedCircuit, TooLarge
from .planner import (
    LayerPlan,
    PlannedBlock,
    eta_closest,
    eta_exact,
    p_exact,
    plan_layers,
    select_epsilon,
    solve_p_closest,
)

CIRCUIT_FORMAT_NAME = "disentangling-circuit"
CIRCUIT_FORMAT_VERSION = 2


@dataclasses.dataclass(frozen=True)
class LearnSchedule:
    """Explicit schedule override for :func:`learn` (power users and tests)."""

    plan: LayerPlan
    eta: float


@dataclasses.dataclass(frozen=True)
class CircuitUnitary:
    """One block unitary of the learned circuit (support is 1-based)."""

    layer: int
    index: int
    support: tuple[int, ...]
    matrix: np.ndarray


@dataclasses.dataclass
class CircuitDescription:
    """Everything needed to rebuild the learned state.

    The learned state is ``U_1^dagger ... U_M^dagger (|0...0> (x) residual)``
    with the zeros on ``projected_by_layer`` sites and the residual on
    ``residual_sites``.  Site labels are 1-based to match the planner.
    """

    n: int
    d: int
    p: int
    plan: LayerPlan | None
    unitaries: list[CircuitUnitary]
    projected_by_layer: tuple[tuple[int, ...], ...]
    residual_sites: tuple[int, ...]
    residual: np.ndarray
    metadata: dict

    @property
    def num_layers(self) -> int:
        return self.plan.M if self.plan is not None else 0

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

    ``snapshots[j]`` is a backend copy after layer ``j`` of ``circuit``
    (``j = 0`` is the input).  The trail can rebuild each stage as a
    sub-normalized operator on the full original register, evaluate overlaps
    against witness states, and bound how far each layer's projection can
    sink any witness's fidelity.
    """

    def __init__(self, circuit: CircuitDescription, snapshots: list[StateBackend]):
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
        snap = self.snapshots[j]
        if not snap.pure:
            raise BadParameter("stepwise vectors exist only for pure-state runs")
        return _walk_backward(self.circuit, snap.state, snap.sites, j)

    def stepwise_state(self, j: int) -> np.ndarray:
        """Stage ``j`` as a sub-normalized operator on the full register."""
        self._check_layer(j)
        d, n = self.circuit.d, self.circuit.n
        if d**n > linalg.MAX_DENSITY_DIM:
            raise TooLarge(
                f"dense stage operator of dimension {d}**{n} exceeds cap "
                f"{linalg.MAX_DENSITY_DIM}; use stepwise_vector for pure runs"
            )
        snap = self.snapshots[j]
        stage = _walk_backward(self.circuit, snap.state, snap.sites, j)
        return np.outer(stage, stage.conj()) if snap.pure else stage

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


def _as_dense_input(state, d: int) -> np.ndarray:
    if isinstance(state, mps.MatrixProductState):
        if state.d != d:
            raise BadParameter(f"state has d={state.d}, learner called with d={d}")
        return mps.expand(state)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim not in (1, 2):
        raise BadParameter(f"state must be a vector or density matrix, got ndim {arr.ndim}")
    return arr


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
        The input state: an MPS, a unit vector, or a density matrix.
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
        Record stepwise snapshots on the report for invariant checking.
    theta : float, optional
        Promise parameter recorded in the metadata; it does not change the
        algorithm.
    schedule : LearnSchedule, optional
        Explicit plan and eta override.  The default schedule is derived from
        the variant's parameter solvers.

    Returns
    -------
    tuple[CircuitDescription, LearnReport]
        The report's ``final_fidelity`` is read off the closing register by
        :meth:`StateBackend.fidelity`: ``|<r| Pi U psi>|^2``, or
        ``<r| Pi U rho U^dagger Pi |r>``, for the residual ``r``, the layers'
        unitaries ``U`` and the projections ``Pi``.  No later layer acts on a
        dropped site, so this equals the overlap of the input with
        :func:`reconstruct_state`'s output, ``|<0 (x) r| U psi>|^2``, without
        forming that d**n vector.
    """
    if variant not in ("exact", "closest"):
        raise BadParameter(f"variant must be 'exact' or 'closest', got {variant!r}")
    if not 0.0 < epsilon <= 1.0:
        raise BadParameter(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise BadParameter(f"delta must be in (0, 1), got {delta}")
    if D < 1:
        raise BadParameter(f"D must be >= 1, got {D}")
    mode = tomography.ExactMode() if mode is None else mode
    if not isinstance(mode, tomography.OracleMode):
        raise BadParameter(f"unknown oracle mode {mode!r}")

    dense = _as_dense_input(state, d)
    backend = StateBackend(dense, d)
    n = backend.n
    mass = backend.success_mass()
    if abs(mass - 1.0) > 1e-9:
        raise BadParameter(f"input state must be normalized, got mass {mass}")

    deviations: list[str] = []
    effective_epsilon = epsilon

    if schedule is not None:
        plan = schedule.plan
        if plan.n != n or plan.d != d:
            raise BadParameter("schedule plan does not match the input register")
        p = plan.p
        eta = schedule.eta
        deviations.append("custom-schedule: plan and eta supplied by caller")
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
        if n <= 2 * p:
            # No layer to run: the closing call estimates the whole register.
            plan, eta = None, effective_epsilon / 4.0
            deviations.append(
                f"trivial-path: n = {n} <= 2p = {2 * p}, estimating the whole register directly"
            )
        else:
            plan = plan_layers(n, d, p)
            if variant == "exact":
                eta = eta_exact(effective_epsilon, plan.M)
            else:
                eta = eta_closest(effective_epsilon, p, D, n)

    if plan is not None:
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

    M = plan.M if plan is not None else 0
    tau = effective_epsilon / 4.0
    mode_seed = getattr(mode, "seed", 0)
    seed_base = (seed, mode_seed)
    copies_used = 0
    per_layer: list[LayerStats] = []
    unitaries: list[CircuitUnitary] = []
    snapshots: list[StateBackend] = [backend.copy()] if audit else []

    for j in range(1, M + 1):
        blocks = plan.blocks(j)
        built: list[tuple] = []
        stats: list[BlockStats] = []
        for block in blocks:
            if not block.acted:
                continue
            call_mode = _child_mode(mode, eta, seed_base, (j, block.index))
            sigma = backend.rdm([s - 1 for s in block.support])
            outcome = tomography.estimate_block(sigma, d, call_mode)
            if isinstance(call_mode, tomography.ExactMode):
                error = 0.0  # the exact estimate is the marginal itself
            else:
                error = linalg.trace_norm(outcome.estimate - sigma)
            if variant == "exact":
                dz = build_rank_capped(outcome.estimate, d, D * D, p)
            else:
                dz = build_threshold(outcome.estimate, d, eta)
            charge = _charge(
                variant, outcome.success_mass, D, d, len(block.support), eta, delta / n
            )
            copies_used += charge
            built.append((block, dz))
            stats.append(
                BlockStats(
                    layer=j,
                    index=block.index,
                    support=block.support,
                    success_mass=outcome.success_mass,
                    estimate_error=error,
                    copies_charged=charge,
                )
            )
        for block, dz in built:
            backend.apply_unitary(dz.unitary, [s - 1 for s in block.support])
        for block in blocks:
            backend.project_zero_and_drop([s - 1 for s in block.projected])
        if variant == "exact":
            drop_bound = 2.0 * math.sqrt(2.0 * eta * 2 ** (plan.M - j))
        else:
            drop_bound = 2.0 * math.sqrt(2.0 * eta * D * D * 2 ** (plan.M - j))
        per_layer.append(
            LayerStats(
                layer=j,
                success_mass=backend.success_mass(),
                drop_bound=drop_bound,
                blocks=tuple(stats),
            )
        )
        unitaries.extend(
            CircuitUnitary(layer=j, index=b.index, support=b.support, matrix=dz.unitary.copy())
            for b, dz in built
        )
        if audit:
            snapshots.append(backend.copy())

    tail = plan.final_carried if plan is not None else tuple(range(1, n + 1))
    call_mode = _child_mode(mode, tau, seed_base, (M + 1, 0))
    if plan is None and backend.pure and isinstance(call_mode, tomography.ExactMode):
        # The exact oracle on the whole pure register returns the input itself.
        residual = linalg.fix_phase(dense / np.linalg.norm(dense))
        mass = 1.0
    else:
        if d ** len(tail) > linalg.MAX_DENSITY_DIM:
            raise TooLarge(
                f"tomography of the {len(tail)}-site tail needs a dense operator of "
                f"dimension {d ** len(tail)} > {linalg.MAX_DENSITY_DIM}"
            )
        outcome = tomography.estimate_block(backend.rdm([s - 1 for s in tail]), d, call_mode)
        residual = linalg.top_eigenvector(outcome.estimate)
        mass = outcome.success_mass
    copies_used += _charge(variant, mass, D, d, len(tail), tau, delta / n)

    circuit = CircuitDescription(
        n=n,
        d=d,
        p=p,
        plan=plan,
        unitaries=unitaries,
        projected_by_layer=tuple(
            tuple(s for b in plan.blocks(j) for s in b.projected) for j in range(1, M + 1)
        ),
        residual_sites=tail,
        residual=residual,
        metadata=_metadata(
            variant, epsilon, effective_epsilon, delta, eta, tau, seed, mode, theta,
            deviations, trivial=plan is None,
        ),
    )
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
        audit=AuditTrail(circuit, snapshots) if audit else None,
    )
    return circuit, report


def _charge(
    variant: str, mass: float, D: int, d: int, sites: int, eta: float, delta: float
) -> int:
    """Copies charged for one tomography call on ``sites`` qudits at accuracy ``eta``."""
    if variant == "exact":
        return tomography.budget_rank_constrained(mass, D, d, sites, eta, delta)
    return tomography.budget_general(mass, d, sites, eta, delta)


def _metadata(
    variant: str,
    epsilon: float,
    effective_epsilon: float,
    delta: float,
    eta: float,
    tau: float,
    seed: int,
    mode: tomography.OracleMode,
    theta: float | None,
    deviations: list[str],
    trivial: bool,
) -> dict:
    return {
        "variant": variant,
        "epsilon": epsilon,
        "effective_epsilon": effective_epsilon,
        "delta": delta,
        "eta": eta,
        "tau": tau,
        "seed": seed,
        "oracle": mode.name,
        "oracle_params": dataclasses.asdict(mode),
        "theta": theta,
        "deviations": list(deviations),
        "trivial_path": trivial,
    }


def _walk_backward(
    circuit: CircuitDescription, state: np.ndarray, sites: Sequence[int], j: int
) -> np.ndarray:
    """Undo layers ``j..1`` of the circuit on a state held on some sites.

    ``state`` is a vector, or a density operator, on the 0-based ``sites`` in
    ascending order; every other site of the register reads |0>.  The result
    lives on the full register and has the same kind as ``state``.
    """
    d, n = circuit.d, circuit.n
    sides = state.ndim
    tensor = np.zeros((d,) * (sides * n), dtype=complex)
    index = [0] * n
    for s in sites:
        index[s] = slice(None)
    tensor[tuple(index) * sides] = state.reshape((d,) * (sides * len(sites)))
    out = tensor.reshape((d**n,) * sides)
    apply = apply_unitary_vector if sides == 1 else apply_unitary_density
    for layer in range(j, 0, -1):
        for u in circuit.layer_unitaries(layer):
            out = apply(out, u.matrix.conj().T, [s - 1 for s in u.support], d)
    return out


def _walk_forward(
    circuit: CircuitDescription, vector: np.ndarray, j: int, project: bool
) -> np.ndarray:
    """Apply layers ``1..j`` of the circuit to a vector on the full register.

    With ``project`` each layer's shed sites are then projected onto |0> and
    dropped, so the result lives on the sites still held after layer ``j``.
    """
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    if vec.size != circuit.d**circuit.n:
        raise BadParameter(
            f"vector has dimension {vec.size}, expected {circuit.d}**{circuit.n}"
        )
    register = StateBackend(vec, circuit.d)
    for layer in range(1, j + 1):
        for u in circuit.layer_unitaries(layer):
            register.apply_unitary(u.matrix, [s - 1 for s in u.support])
        if project:
            register.project_zero_and_drop([s - 1 for s in circuit.projected_by_layer[layer - 1]])
    return register.state


def reconstruct_state(circuit: CircuitDescription) -> np.ndarray:
    """Dense unit vector prepared by the learned circuit."""
    d, n = circuit.d, circuit.n
    if d**n > linalg.MAX_VECTOR_DIM:
        raise TooLarge(f"dense reconstruction of dimension {d}**{n} exceeds the cap")
    sites = [s - 1 for s in circuit.residual_sites]
    return _walk_backward(circuit, circuit.residual, sites, circuit.num_layers)


def forward_transform(circuit: CircuitDescription, vector: np.ndarray) -> np.ndarray:
    """Apply the learned circuit in the forward (disentangling) direction."""
    return _walk_forward(circuit, vector, circuit.num_layers, project=False)


def stepwise_state(report: LearnReport, j: int) -> np.ndarray:
    """Stage-``j`` operator from an audited run (see :class:`AuditTrail`)."""
    if report.audit is None:
        raise AuditDisabled("run learn(..., audit=True) to record stepwise states")
    return report.audit.stepwise_state(j)


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


def _tt_split(window: np.ndarray, d: int, count: int, cutoff: float = 1e-12) -> list[np.ndarray]:
    """Split ``(D_l, d**count, D_r)`` into site tensors by repeated SVD.

    Singular values below ``cutoff`` relative to the largest are numerical
    zeros and are pruned; no other truncation happens.
    """
    left, _, right = window.shape
    tensors: list[np.ndarray] = []
    carry = window.reshape(left, d**count * right)
    bond = left
    for k in range(count - 1):
        matrix = carry.reshape(bond * d, d ** (count - 1 - k) * right)
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        keep = int(np.count_nonzero(s > cutoff * s[0])) if s.size and s[0] > 0 else 1
        keep = max(keep, 1)
        u, s, vh = u[:, :keep], s[:keep], vh[:keep]
        tensors.append(np.transpose(u.reshape(bond, d, keep), (1, 0, 2)))
        carry = s[:, None] * vh
        bond = keep
    tensors.append(np.transpose(carry.reshape(bond, d, right), (1, 0, 2)))
    return tensors


def extract_mps(circuit: CircuitDescription, cutoff: float = 1e-12) -> mps.MatrixProductState:
    """Contract the learned circuit into an open-boundary tensor train.

    Starts from the product of zeros and the residual, then applies each block
    unitary's inverse in reverse layer order by contracting the spanned window
    and re-splitting it with un-truncated SVDs (values below ``cutoff``
    relative to the largest are pruned as numerical zeros).
    """
    d, n = circuit.d, circuit.n
    zero = np.zeros((d, 1, 1), dtype=complex)
    zero[0, 0, 0] = 1.0
    tensors: list[np.ndarray] = [zero.copy() for _ in range(n)]

    sites = sorted(circuit.residual_sites)
    if sites != list(range(sites[0], sites[-1] + 1)):
        raise MalformedCircuit(f"residual sites must be contiguous, got {sites}")
    window = circuit.residual.reshape(1, -1, 1)
    for offset, tensor in enumerate(_tt_split(window, d, len(sites), cutoff)):
        tensors[sites[0] - 1 + offset] = tensor

    for layer in range(circuit.num_layers, 0, -1):
        for u in circuit.layer_unitaries(layer):
            lo, hi = u.support[0] - 1, u.support[-1] - 1
            width = hi - lo + 1
            # Contract the window into one tensor (D_l, d**width, D_r).
            carry = tensors[lo]
            block = carry.transpose(1, 0, 2)  # (D_l, d, D_r)
            left = block.shape[0]
            window = block.reshape(left, d, -1)
            for site in range(lo + 1, hi + 1):
                t = tensors[site]
                window = np.einsum("lxa,iab->lxib", window, t)
                window = window.reshape(left, -1, t.shape[2])
            if window.shape[1] * window.shape[0] * window.shape[2] > 2**24:
                raise TooLarge("window contraction exceeds the desk-scale cap")
            rel = [s - 1 - lo for s in u.support]
            y = len(u.support)
            op = u.matrix.conj().T.reshape((d,) * (2 * y))
            t3 = window.reshape((left,) + (d,) * width + (window.shape[2],))
            moved = np.tensordot(op, t3, axes=(list(range(y, 2 * y)), [1 + r for r in rel]))
            t3 = np.moveaxis(moved, list(range(y)), [1 + r for r in rel])
            window = t3.reshape(left, d**width, -1)
            for offset, tensor in enumerate(_tt_split(window, d, width, cutoff)):
                tensors[lo + offset] = tensor

    return mps.MatrixProductState(n=n, d=d, boundary="open", tensors=tensors)


def save_circuit(circuit: CircuitDescription, path: str | Path) -> None:
    """Write a versioned JSON description of the circuit.

    Unitaries and the residual are stored bit for bit by
    :func:`mpslearn.mps.complex_entries`, so save/load round-trips exactly and
    repeated saves are byte-identical.
    """
    plan = circuit.plan
    doc = {
        "format": CIRCUIT_FORMAT_NAME,
        "version": CIRCUIT_FORMAT_VERSION,
        "n": circuit.n,
        "d": circuit.d,
        "p": circuit.p,
        "plan": None
        if plan is None
        else {
            "M": plan.M,
            "ell1": plan.ell1,
            "s1": plan.s1,
            "k1": plan.k1,
            "s1_amended": plan.s1_amended,
            "layers": [
                [
                    {
                        "index": b.index,
                        "support": list(b.support),
                        "projected": list(b.projected),
                        "acted": b.acted,
                    }
                    for b in layer
                ]
                for layer in plan.layers
            ],
        },
        "unitaries": [
            {
                "layer": u.layer,
                "index": u.index,
                "support": list(u.support),
                "entries": mps.complex_entries([u.matrix]),
            }
            for u in circuit.unitaries
        ],
        "projected_by_layer": [list(layer) for layer in circuit.projected_by_layer],
        "residual_sites": list(circuit.residual_sites),
        "residual": mps.complex_entries([circuit.residual]),
        "metadata": circuit.metadata,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _site_labels(labels, n: int, what: str) -> tuple[int, ...]:
    if not isinstance(labels, list):
        raise MalformedCircuit(f"{what} must be a list of sites, got {labels!r}")
    sites = tuple(labels)
    if not all(mps.is_integer(s) and 1 <= s <= n for s in sites):
        raise MalformedCircuit(f"{what} {list(sites)} not within the sites 1..{n}")
    return sites


def _fields(raw, keys: Sequence[str], what: str) -> list:
    """The values of ``keys`` in a nested object of a circuit file."""
    if not isinstance(raw, dict) or any(key not in raw for key in keys):
        raise MalformedCircuit(f"{what} must be an object with the keys {', '.join(keys)}")
    return [raw[key] for key in keys]


def _load_plan(raw, n: int, d: int, p: int) -> LayerPlan:
    M, ell1, s1, k1, s1_amended, raw_layers = _fields(
        raw, ("M", "ell1", "s1", "k1", "s1_amended", "layers"), "plan"
    )
    if not (mps.is_integer(M) and M >= 1 and isinstance(raw_layers, list)):
        raise MalformedCircuit(f"plan needs an integer M >= 1 and a list of layers, got M={M!r}")
    if len(raw_layers) != M:
        raise MalformedCircuit(f"plan lists {len(raw_layers)} layers, expected M = {M}")
    if not (all(mps.is_integer(x) for x in (ell1, s1, k1)) and isinstance(s1_amended, bool)):
        raise MalformedCircuit(
            f"plan needs integers ell1, s1, k1 and a flag s1_amended, got "
            f"{ell1!r}, {s1!r}, {k1!r}, {s1_amended!r}"
        )
    layers = []
    for layer_number, blocks in enumerate(raw_layers, start=1):
        if not isinstance(blocks, list):
            raise MalformedCircuit(f"plan layer {layer_number} is not a list of blocks")
        built = []
        for b in blocks:
            index, support, projected, acted = _fields(
                b, ("index", "support", "projected", "acted"), "plan block"
            )
            if not (mps.is_integer(index) and isinstance(acted, bool)):
                raise MalformedCircuit(
                    f"plan block needs an integer index and a flag acted, got {index!r}, {acted!r}"
                )
            support = _site_labels(support, n, "plan block support")
            projected = _site_labels(projected, n, "plan block projected sites")
            if projected != support[: len(projected)]:
                raise MalformedCircuit("projected sites must be the leading block sites")
            built.append(
                PlannedBlock(
                    layer=layer_number,
                    index=index,
                    support=support,
                    projected=projected,
                    carried=support[len(projected) :],
                    acted=acted,
                )
            )
        layers.append(tuple(built))
    return LayerPlan(
        n=n, d=d, p=p, M=M, ell1=ell1, s1=s1, k1=k1, s1_amended=s1_amended, layers=tuple(layers)
    )


def load_circuit(path: str | Path) -> CircuitDescription:
    """Load and validate a circuit written by :func:`save_circuit`.

    Every defect in the file raises :class:`MalformedCircuit`.
    """
    keys = ("n", "d", "p", "plan", "unitaries", "projected_by_layer", "residual_sites",
            "residual", "metadata")
    doc = mps.read_document(path, CIRCUIT_FORMAT_NAME, CIRCUIT_FORMAT_VERSION, keys, MalformedCircuit)
    n, d, p = doc["n"], doc["d"], doc["p"]
    if not (all(mps.is_integer(x) for x in (n, d, p)) and n >= 1 and d >= 2 and p >= 1):
        raise MalformedCircuit(
            f"need integers n >= 1, d >= 2 and p >= 1, got n={n!r}, d={d!r}, p={p!r}"
        )

    plan = None if doc["plan"] is None else _load_plan(doc["plan"], n, d, p)
    M = plan.M if plan is not None else 0

    if not isinstance(doc["unitaries"], list):
        raise MalformedCircuit("unitaries must be a list")
    unitaries = []
    for u in doc["unitaries"]:
        layer, index, support, entries = _fields(
            u, ("layer", "index", "support", "entries"), "unitary"
        )
        if not (mps.is_integer(layer) and 1 <= layer <= M):
            raise MalformedCircuit(f"unitary layer {layer!r} not within the circuit's {M} layers")
        if not mps.is_integer(index):
            raise MalformedCircuit(f"unitary index must be an integer, got {index!r}")
        support = _site_labels(support, n, "unitary support")
        dim = d ** len(support)
        (matrix,) = mps.complex_arrays(entries, [(dim, dim)], MalformedCircuit)
        defect = float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))))
        if defect > 1e-8:
            raise MalformedCircuit(f"stored block unitary deviates from unitarity by {defect:.3e}")
        unitaries.append(CircuitUnitary(layer=layer, index=index, support=support, matrix=matrix))

    projected = doc["projected_by_layer"]
    if not (isinstance(projected, list) and len(projected) == M):
        raise MalformedCircuit(f"projected_by_layer must list the projected sites of {M} layers")
    projected = tuple(_site_labels(layer, n, "projected sites") for layer in projected)
    residual_sites = _site_labels(doc["residual_sites"], n, "residual sites")
    covered = [s for layer in projected for s in layer] + list(residual_sites)
    if len(covered) != n or sorted(covered) != list(range(1, n + 1)):
        raise MalformedCircuit(
            f"projected and residual sites must cover the sites 1..{n} exactly once"
        )
    (residual,) = mps.complex_arrays(
        doc["residual"], [(d ** len(residual_sites),)], MalformedCircuit
    )
    return CircuitDescription(
        n=n,
        d=d,
        p=p,
        plan=plan,
        unitaries=unitaries,
        projected_by_layer=projected,
        residual_sites=residual_sites,
        residual=residual,
        metadata=doc["metadata"],
    )
