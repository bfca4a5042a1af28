#!/usr/bin/env python3
"""Time-to-circuit benchmark for mpslearn.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact-wide --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

One client drives a closed loop: the next job starts only after the previous
one has finished and been checked.  A job is what ``mpslearn learn`` delivers:
``learner.learn`` -> ``save_circuit`` -> ``load_circuit`` -> ``extract_mps``.
Every job's output is checked; a job that raises or fails a check counts as
failed and the loop goes on.

A fixed reference kernel that does not use the library is timed between
jobs (about a tenth of the loop's time).  The gated job timings are given in
units of its time over the same window (``refs``), so that the drift of a
shared machine's speed cancels while any change to the library shows in
full; the plain seconds are printed beside them.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it spends half of ``--seconds`` untraced and half with the per-layer tracer
installed, and prints the per-layer metrics.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A record
with provenance (and, when traced, every span) is written under ``bench/out``.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy is imported: on a machine with a few
# shared cores a second BLAS thread mostly measures how busy the other core is.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PACKAGE = "mpslearn"
SETUP_REPS = 3
REF_SHARE = 0.1  # share of the loop's wall time spent in the reference kernel
WORKLOADS = ("exact-wide", "noisy-narrow", "mixed-closest")  # defined in workloads.py
TIE_TOL = 1e-12  # hermitian_eig's documented relative rule for tied eigenvalues

# Span name -> target path under the package.  The span name is the
# metric prefix; methods of StateBackend are named after their module.
LAYER_TARGETS = {
    "mps.expand": "mps.expand",
    "mps.block_rdm": "mps.block_rdm",
    "linalg.hermitian_eig": "linalg.hermitian_eig",
    "linalg.trace_norm": "linalg.trace_norm",
    "tomography.estimate_block": "tomography.estimate_block",
    "disentangler.build_rank_capped": "disentangler.build_rank_capped",
    "backend.apply_unitary": "backend.StateBackend.apply_unitary",
    "backend.project_zero_and_drop": "backend.StateBackend.project_zero_and_drop",
    "planner.plan_layers": "planner.plan_layers",
    "learner.reconstruct_state": "learner.reconstruct_state",
    "learner.extract_mps": "learner.extract_mps",
    "learner.save_circuit": "learner.save_circuit",
    "learner.load_circuit": "learner.load_circuit",
    "learner.learn": "learner.learn",
}


def tied_count(w) -> int:
    """Eigenvalues in clusters of two or more under hermitian_eig's tie rule."""
    scale = max([1.0] + [abs(float(x)) for x in w])
    tied, start = 0, 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and abs(w[stop] - w[start]) <= TIE_TOL * scale:
            stop += 1
        if stop - start > 1:
            tied += stop - start
        start = stop
    return tied


def _observe_eig(tracer, args, kwargs, result) -> None:
    w = result[0]
    tracer.add("eig.values", len(w))
    tracer.add("eig.tied", tied_count(w))
    tracer.add("eig.dim_cubed", float(len(w)) ** 3)


def _observe_save(tracer, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.add("save.bytes", os.path.getsize(path))


def _observe_learn(tracer, args, kwargs, result) -> None:
    errors = [b.estimate_error for layer in result[1].per_layer for b in layer.blocks]
    tracer.add("blocks", len(errors))
    tracer.add("blocks.zero_error", sum(e == 0.0 for e in errors))


OBSERVERS = {
    "linalg.hermitian_eig": _observe_eig,
    "learner.save_circuit": _observe_save,
    "learner.learn": _observe_learn,
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- provenance --------------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "blas" in line.split()[-1]})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "numpy": np.__version__,
        "blas": _blas(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- measurement -------------------------------------------------------------

Sample = collections.namedtuple("Sample", "learn_s job_s copies fidelity")


class Reference:
    """A fixed unit of work that does not use the library, timed between jobs.

    It mixes what the workloads spend their time on: interpreted Python,
    complex LAPACK and BLAS calls, and a JSON round trip of floats.  Its
    inputs are fixed, not drawn from ``--seed``.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)

        def hermitian(dim):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            return a + a.conj().T

        self.small = hermitian(256)
        self.large = hermitian(512)
        self.floats = rng.standard_normal(5_000).tolist()
        self.times: list[float] = []

    def run(self) -> None:
        import numpy as np

        t0 = perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        np.linalg.eigh(self.small)
        self.large @ self.large
        json.loads(json.dumps(self.floats))
        self.times.append(perf_counter() - t0)


class Loop:
    """Closed-loop driver for one workload: one client, one job at a time."""

    def __init__(self, workload, path: Path):
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.path = path
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, inst, tracer=None):
        """Run and check one job; returns its sample, or None if it failed.

        Only the sample is kept, so no job's arrays outlive the next job.
        """
        self.attempted += 1
        state = inst.learner_input()
        try:
            with tracer.root("job") if tracer else contextlib.nullcontext():
                job = self.wl.run_job(state, inst, self.path)
            fidelity, problems = self.wl.check_job(self.workload, state, job)
        except Exception as exc:  # a failed job is counted, never fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"instance {inst.seed}: " + "; ".join(problems))
            return None
        return Sample(job.learn_s, job.job_s, job.report.copies_used, fidelity)

    def run(self, pool, seconds: float, min_jobs: int, tracer=None, ref=None) -> list:
        """Jobs in pool order, cycling, until ``seconds`` pass and ``min_jobs`` ran.

        With ``ref``, the reference kernel runs first and then between jobs
        whenever its total time is below ``REF_SHARE`` of the elapsed time.
        """
        done: list = []
        start = perf_counter()
        deadline = start + seconds
        if ref is not None:
            ref.run()
        while len(done) < min_jobs or perf_counter() < deadline:
            while ref is not None and sum(ref.times) < REF_SHARE * (perf_counter() - start):
                ref.run()
            done.append(self.attempt(pool[len(done) % len(pool)], tracer))
        return done

    def setup(self, seed: int, pool_size: int, reps: int) -> tuple[list, list[float]]:
        """Generate the pool and run one untimed warm-up job, ``reps`` times."""
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            pool = self.wl.make_pool(self.workload, seed, pool_size)
            warm = self.wl.make_pool(self.workload, seed, 1, first=pool_size)[0]
            self.attempt(warm)
            times.append(perf_counter() - t0)
        return pool, times


def _ok(done: list) -> list:
    return [d for d in done if d is not None]


def _learn_p50(done: list) -> float | None:
    ok = _ok(done)
    return statistics.median(s.learn_s for s in ok) if ok else None


def end_to_end(loop: Loop, pool, done: list, setup_s: float,
               ref: Reference) -> tuple[dict, list[str]]:
    ok = _ok(done)
    learn = [s.learn_s for s in ok]
    jobs = [s.job_s for s in ok]
    copies = sum(s.copies for s in _ok(done[: len(pool)]))
    ref_s = statistics.median(ref.times)
    ref_mean_s = statistics.fmean(ref.times)
    seconds = {
        "learn_s.p50": statistics.median(learn) if ok else None,
        "job_s.p50": statistics.median(jobs) if ok else None,
        "jobs_per_s": len(jobs) / sum(jobs) if ok else None,
    }
    values = {
        "learn_refs.p50": seconds["learn_s.p50"] / ref_s if ok else None,
        "job_refs.p50": seconds["job_s.p50"] / ref_s if ok else None,
        # A rate over total time is matched by the kernel's mean, not its median.
        "jobs_per_ref": seconds["jobs_per_s"] * ref_mean_s if ok else None,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fidelity.min": min(s.fidelity for s in ok) if ok else None,
        "copies_used.sum": copies,
    }
    notes = [f"{name} {value!r} {unit}" for (name, value), unit
             in zip(seconds.items(), ("s", "s", "1/s"))]
    notes.append(f"ref_s.p50 {ref_s!r} s")
    notes.append(f"ref_s.mean {ref_mean_s!r} s")
    notes.append(f"ref.samples {len(ref.times)} count")
    notes.append(f"learn_s.samples {len(learn)} count")
    if len(learn) >= 100:
        notes.append(f"learn_s.p90 {statistics.quantiles(learn, n=10)[-1]!r} s")
    else:
        notes.append(f"learn_s.p90 n/a count (needs 100 samples for 10 beyond p90, have {len(learn)})")
    notes.append(f"failed_frac {len(loop.failures) / max(loop.attempted, 1)!r} frac")
    return values, notes


def per_layer(tracer, untraced_p50, traced_p50) -> dict:
    from tracer import mean_calls, median_self

    spans = tracer.spans
    rows = tracer.per_job(lambda s: s[0])
    jobs = len([s for s in spans if s[1] is None])
    values = {}
    for name in LAYER_TARGETS:
        cells = rows.get(name, [(0, 0.0)] * jobs)
        if name != "learner.learn":
            values[f"{name}.calls"] = mean_calls(cells)
        values[f"{name}.self_s"] = median_self(cells)
    estimate = tracer.per_job(
        lambda s: "estimate_error"
        if s[0] == "linalg.trace_norm" and s[1] is not None and spans[s[1]][0] == "learner.learn"
        else None
    ).get("estimate_error", [(0, 0.0)] * jobs)
    values["learner.estimate_error.self_s"] = median_self(estimate)

    def total(key):
        return sum(c.get(key, 0.0) for c in tracer.counts.values())

    values["learner.estimate_error.zero_frac"] = (
        total("blocks.zero_error") / total("blocks") if total("blocks") else 0.0
    )
    values["linalg.hermitian_eig.tied_frac"] = (
        total("eig.tied") / total("eig.values") if total("eig.values") else 0.0
    )
    values["linalg.hermitian_eig.dim_cubed"] = total("eig.dim_cubed") / max(jobs, 1)
    values["learner.save_circuit.bytes"] = total("save.bytes") / max(jobs, 1)
    values["learn_s.p50.untraced"] = untraced_p50
    values["learn_s.p50.traced"] = traced_p50
    values["trace.overhead_ratio"] = (
        traced_p50 / untraced_p50 if traced_p50 and untraced_p50 else None
    )
    return values


def measure(workload_name: str, seed: int, seconds: float, trace: int, import_s: float,
            pool_size: int | None = None, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the result, the printed notes and the record."""
    import workloads as wl
    from tracer import Tracer, wrapped

    workload = wl.WORKLOADS[workload_name]
    pool_size = pool_size or workload.pool
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(workload, tmp / "circuit.json")
        pool, setup_times = loop.setup(seed, pool_size, setup_reps if trace == 0 else 1)
        record = {"provenance": provenance(workload_name, seed, seconds, trace),
                  "instance_seeds": [inst.seed for inst in pool]}
        unwrapped = not wrapped(PACKAGE)
        if trace == 0:
            ref = Reference()
            done = loop.run(pool, seconds, min_jobs=len(pool), ref=ref)
            metrics, notes = end_to_end(loop, pool, done, import_s + statistics.median(setup_times),
                                        ref)
            record["samples"] = {
                "setup_s": [import_s + t for t in setup_times],
                "ref_s": ref.times,
                "learn_s": [x.learn_s for x in _ok(done)],
                "job_s": [x.job_s for x in _ok(done)],
            }
            tracer = None
        else:
            untraced = loop.run(pool, seconds / 2.0, min_jobs=1)
            with Tracer(PACKAGE) as tracer:
                tracer.install({
                    LAYER_TARGETS[name]: (name, OBSERVERS.get(name)) for name in LAYER_TARGETS
                })
                traced = loop.run(pool, seconds / 2.0, min_jobs=1, tracer=tracer)
            metrics = per_layer(tracer, _learn_p50(untraced), _learn_p50(traced))
            notes = [f"trace.jobs {len(traced)} count", f"untraced.jobs {len(untraced)} count"]
            record["spans"] = tracer.dump()
        unwrapped = unwrapped and not wrapped(PACKAGE)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {},
    }
    record.update(result, failures=loop.failures, notes=notes, metrics=metrics)
    return {"result": result, "metrics": metrics, "notes": notes, "record": record,
            "tracer": tracer, "unwrapped": unwrapped}


def emit(workload_name: str, run: dict, trace: int) -> None:
    spec = load_spec()
    names = spec["per_layer"] if trace else spec["end_to_end"]
    result = run["result"]
    for metric in names:
        value = run["metrics"].get(metric["name"])
        result["metrics"][metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{workload_name:14s} {metric['name']:44s} {value!r} {metric['unit']}")
    for note in run["notes"]:
        print(f"{workload_name:14s} {note}")
    for failure in run["record"]["failures"][:20]:
        print(f"{workload_name:14s} FAILED {failure}")
    print("provenance " + json.dumps(run["record"]["provenance"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    seed = run["record"]["provenance"]["seed"]
    out = OUT / f"{workload_name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(run["record"], sort_keys=True) + "\n")
    print(json.dumps(result))


# -- entry points ------------------------------------------------------------


def _import_library() -> float:
    """Import the package from this checkout's ``src``; returns seconds taken.

    The benchmark's own modules import the package too, so they are only
    imported after this has put ``src`` first on the path.
    """
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import mpslearn  # noqa: F401
    import workloads  # noqa: F401

    if not Path(mpslearn.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: {PACKAGE} imported from {mpslearn.__file__}, not {SRC}")
    return perf_counter() - t0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def smoke(import_s: float) -> int:
    """One instance per workload, untraced then traced, with self-checks."""
    import io
    from contextlib import redirect_stdout

    import workloads as wl

    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            run = measure(name, seed=0, seconds=0.0, trace=trace, import_s=import_s,
                          pool_size=1, setup_reps=1)
            printed = io.StringIO()
            with redirect_stdout(printed):
                emit(name, run, trace)
            lines = printed.getvalue().splitlines()
            for metric in spec["per_layer" if trace else "end_to_end"]:
                if not any(
                    line.split()[1:2] == [metric["name"]] and line.endswith(" " + metric["unit"])
                    for line in lines
                ):
                    problems.append(f"{name}: {metric['name']} [{metric['unit']}] not printed")
            result = json.loads(lines[-1])
            if result["failed"]:
                problems.append(f"{name}: {result['failed']} failed job(s)")
            if not run["unwrapped"]:
                problems.append(f"{name}: library functions left wrapped")
            if trace:
                bad = run["tracer"].nesting_violations()
                if bad:
                    problems.append(f"{name}: {bad} span(s) outside their parent")
                if len(run["tracer"].spans) < 2:
                    problems.append(f"{name}: traced run recorded no layer spans")
            sys.stdout.write(printed.getvalue())
    for problem in problems:
        print("SMOKE FAILED " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of the benchmark")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import_s = _import_library()
    if args.smoke:
        return smoke(import_s)
    run = measure(args.workload, args.seed, args.seconds, args.trace, import_s)
    emit(args.workload, run, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
