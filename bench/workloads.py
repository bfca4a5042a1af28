"""The benchmark's workloads: instance generation, one job, output checks.

Every workload uses d = 2, epsilon = 0.2 and delta = 0.01.  Instances are
drawn from the benchmark seed; the learner only ever sees the generated
state.  Each workload puts most of its time in a different layer (see
README.md in this directory for the reasons and the layer map).
"""
from __future__ import annotations

import dataclasses
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from mpslearn import learner, mps, tomography

D_LOCAL = 2
EPSILON = 0.2
DELTA = 0.01
LAMBDA = 0.1  # depolarizing weight of the mixed inputs


@dataclasses.dataclass(frozen=True)
class Instance:
    seed: int
    state: object  # MatrixProductState, or the pure vector of a mixed input
    learn_kwargs: dict

    def learner_input(self):
        if isinstance(self.state, mps.MatrixProductState):
            return self.state
        dim = self.state.size
        return (1.0 - LAMBDA) * np.outer(self.state, self.state.conj()) + LAMBDA * np.eye(dim) / dim


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int
    D: int
    pool: int  # distinct instances cycled through by the closed loop
    make: Callable[[int, int, int], Instance]
    # (learner input, reconstructed output, report) -> (fidelity, problems)
    check: Callable[[object, np.ndarray, object], tuple[float, list[str]]]


@dataclasses.dataclass
class JobResult:
    circuit: object
    report: object
    loaded: object
    extracted: object
    learn_s: float
    job_s: float


def instance_seed(bench_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=[bench_seed, index])
    return int(ss.generate_state(1, np.uint32)[0])


def _pure(n: int, D: int, seed: int) -> mps.MatrixProductState:
    return mps.random_mps(mps.StateSpec(n=n, d=D_LOCAL, D=D, seed=seed))


def _make_exact(n: int, D: int, seed: int) -> Instance:
    return Instance(seed, _pure(n, D, seed), {"D": D, "variant": "exact", "seed": seed})


def _make_noisy(n: int, D: int, seed: int) -> Instance:
    mode = tomography.BoundedNoiseMode(eta=None, seed=seed)
    return Instance(seed, _pure(n, D, seed), {"D": D, "variant": "exact", "mode": mode, "seed": seed})


def _make_mixed(n: int, D: int, seed: int) -> Instance:
    phi = mps.expand(_pure(n, D, seed))
    return Instance(seed, phi, {"D": D, "variant": "closest", "seed": seed})


def _check_fidelity(floor: float) -> Callable:
    def check(state, recon: np.ndarray, report) -> list[str]:
        fid = float(abs(np.vdot(mps.expand(state), recon)) ** 2)
        return fid, [] if fid >= floor else [f"fidelity {fid!r} < {floor!r}"]

    return check


def _check_witness(rho: np.ndarray, recon: np.ndarray, report) -> list[str]:
    witness = float(np.real(recon.conj() @ rho @ recon))
    floor = (1.0 - LAMBDA) + LAMBDA / rho.shape[0] - report.effective_epsilon
    return witness, [] if witness >= floor else [f"witness {witness!r} < {floor!r}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-wide", 16, 4, 8, _make_exact, _check_fidelity(1.0 - 1e-9)),
        Workload("noisy-narrow", 16, 2, 32, _make_noisy, _check_fidelity(1.0 - EPSILON)),
        Workload("mixed-closest", 10, 2, 6, _make_mixed, _check_witness),
    )
}


def make_pool(workload: Workload, bench_seed: int, count: int, first: int = 0) -> list[Instance]:
    return [
        workload.make(workload.n, workload.D, instance_seed(bench_seed, first + i))
        for i in range(count)
    ]


def run_job(state, inst: Instance, path: Path) -> JobResult:
    """What ``mpslearn learn`` delivers: learn, save, load, extract."""
    kwargs = dict(inst.learn_kwargs)
    D = kwargs.pop("D")
    t0 = perf_counter()
    circuit, report = learner.learn(state, D_LOCAL, D, EPSILON, DELTA, **kwargs)
    t1 = perf_counter()
    learner.save_circuit(circuit, path)
    loaded = learner.load_circuit(path)
    extracted = learner.extract_mps(loaded)
    t2 = perf_counter()
    return JobResult(circuit, report, loaded, extracted, t1 - t0, t2 - t0)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_job(workload: Workload, state, job: JobResult) -> tuple[float, list[str]]:
    """The job's checked fidelity, and every check it failed (none if correct)."""
    c, back = job.circuit, job.loaded
    recon = learner.reconstruct_state(c)
    fidelity, problems = workload.check(state, recon, job.report)
    same = (
        len(c.unitaries) == len(back.unitaries)
        and all(
            u.support == v.support and _same_array(u.matrix, v.matrix)
            for u, v in zip(c.unitaries, back.unitaries)
        )
        and c.residual_sites == back.residual_sites
        and _same_array(c.residual, back.residual)
        and c.projected_by_layer == back.projected_by_layer
        and c.plan == back.plan
    )
    if not same:
        problems.append("load_circuit(save_circuit(c)) differs from c")
    overlap = float(abs(np.vdot(mps.expand(job.extracted), recon)) ** 2)
    if not overlap >= 1.0 - 1e-10:
        problems.append(f"extract_mps overlap {overlap!r} < 1 - 1e-10")
    return fidelity, problems
