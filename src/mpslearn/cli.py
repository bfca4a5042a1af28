"""Command-line front end: generate, learn, verify, and budget tables.

Every run is driven by a flat JSON config plus a few flags, writes its
artifacts into ``--out``, and drops a manifest recording format versions, the
config hash, and any schedule deviations.  Outputs carry no timestamps, so a
rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 1 property failure, 2 bad input, 3 infeasible plan,
4 resource limit; each error class in :mod:`mpslearn.errors` declares its own.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import math
import sys
from pathlib import Path

from . import complexity, mps, tomography, verify
from .errors import InvalidSpec, MpslearnError
from .learner import CIRCUIT_FORMAT_NAME, CIRCUIT_FORMAT_VERSION, learn, save_circuit

MANIFEST_FORMAT_NAME = "run-manifest"
MANIFEST_FORMAT_VERSION = 1


def _format_float(x: float) -> str:
    return "%.17g" % x


def _load_config(path: str, schema: dict[str, tuple[tuple[type, ...], bool]]) -> dict:
    """Load a flat JSON config, rejecting unknown keys and bad types."""
    raw = mps.read_json(path, "config", InvalidSpec)
    if not isinstance(raw, dict):
        raise InvalidSpec("config must be a JSON object with a flat key namespace")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise InvalidSpec(f"unknown config keys: {', '.join(unknown)}")
    for key, (types, required) in schema.items():
        if key not in raw:
            if required:
                raise InvalidSpec(f"missing required config key: {key}")
            continue
        value = raw[key]
        if isinstance(value, bool) and bool not in types:
            raise InvalidSpec(f"config key {key} has wrong type bool")
        if not isinstance(value, types):
            names = "/".join(t.__name__ for t in types)
            raise InvalidSpec(f"config key {key} must be {names}, got {type(value).__name__}")
        if float in types and abs(value) > sys.float_info.max:  # float() refuses such an integer
            raise InvalidSpec(f"config key {key} is outside a float's range")
    return raw


def _write_manifest(out_dir: Path, command: str, resolved_config: dict, deviations: list[str], outputs: list[str]) -> None:
    digest = hashlib.sha256(mps.canonical_json(resolved_config).encode()).hexdigest()
    mps.write_json(
        out_dir / "manifest.json",
        {
            "format": MANIFEST_FORMAT_NAME,
            "version": MANIFEST_FORMAT_VERSION,
            "command": command,
            "config_sha256": digest,
            "formats": {
                mps.MPS_FORMAT_NAME: mps.MPS_FORMAT_VERSION,
                CIRCUIT_FORMAT_NAME: CIRCUIT_FORMAT_VERSION,
                MANIFEST_FORMAT_NAME: MANIFEST_FORMAT_VERSION,
            },
            "deviations": deviations,
            "outputs": sorted(outputs),
        },
    )


_GEN_SCHEMA = {
    "kind": ((str,), True),
    "n": ((int,), True),
    "d": ((int,), True),
    "D": ((int,), False),
    "boundary": ((str,), False),
    "seed": ((int,), False),
}


def _cmd_gen(args) -> int:
    config = _load_config(args.config, _GEN_SCHEMA)
    kind = config["kind"]
    defaults = {"ghz": config["d"], "product": 1, "w-state": 2}
    D = config.get("D", defaults.get(kind))
    if D is None:
        raise InvalidSpec("config key D is required for kind 'random'")
    resolved = {
        "kind": kind,
        "n": config["n"],
        "d": config["d"],
        "D": D,
        "boundary": config.get("boundary", "open"),
        "seed": args.seed if args.seed is not None else config.get("seed", 0),
    }
    spec = mps.StateSpec(**resolved)
    state = mps.random_mps(spec)
    profile = mps.schmidt_profile(state)  # on the open chain that random_mps has capped
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mps.save_mps(state, out_dir / "state.json")
    for cut, rank in enumerate(profile, start=1):
        print(f"cut {cut}: rank {rank}")
    _write_manifest(out_dir, "gen", resolved, [], ["state.json"])
    return 0


_LEARN_SCHEMA = {
    "state": ((str,), True),
    "D": ((int,), True),
    "epsilon": ((float, int), True),
    "delta": ((float, int), True),
    "variant": ((str,), False),
    "oracle": ((str,), False),
    "eta": ((float, int), False),
    "project_psd": ((bool,), False),
    "copies": ((int,), False),
    "seed": ((int,), False),
    "theta": ((float, int), False),
}

_MODE_ALIASES = {"exact": "exact", "noise": "bounded_noise", "sample": "finite_sample"}


def _oracle_from_config(resolved: dict) -> tomography.OracleMode:
    name = resolved["oracle"]
    if name == "exact":
        return tomography.ExactMode()
    if name == "bounded_noise":
        return tomography.BoundedNoiseMode(
            eta=resolved.get("eta"),
            seed=resolved["seed"],
            project_psd=resolved.get("project_psd", False),
        )
    if name == "finite_sample":
        if "copies" not in resolved:
            raise InvalidSpec("oracle 'finite_sample' needs the config key 'copies'")
        return tomography.FiniteSampleMode(copies=resolved["copies"], seed=resolved["seed"])
    raise InvalidSpec(f"unknown oracle {name!r}; use exact, bounded_noise, or finite_sample")


def _report_doc(report) -> dict:
    doc = dataclasses.asdict(report)
    del doc["audit"]  # the command line runs learn without audit
    return doc


def _cmd_learn(args) -> int:
    config = _load_config(args.config, _LEARN_SCHEMA)
    resolved = {
        "state": config["state"],
        "D": config["D"],
        "epsilon": float(config["epsilon"]),
        "delta": float(config["delta"]),
        "variant": config.get("variant", "exact"),
        "oracle": _MODE_ALIASES[args.mode] if args.mode else config.get("oracle", "exact"),
        "seed": args.seed if args.seed is not None else config.get("seed", 0),
    }
    for key in ("eta", "project_psd", "copies", "theta"):
        if key in config:
            resolved[key] = config[key]
    state = mps.load_mps(resolved["state"])
    mode = _oracle_from_config(resolved)
    circuit, report = learn(
        state,
        state.d,
        resolved["D"],
        resolved["epsilon"],
        resolved["delta"],
        variant=resolved["variant"],
        mode=mode,
        seed=resolved["seed"],
        theta=resolved.get("theta"),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_circuit(circuit, out_dir / "circuit.json")
    mps.write_json(out_dir / "report.json", _report_doc(report))
    _append_summary_row(out_dir / "summary.csv", report)
    _write_manifest(
        out_dir,
        "learn",
        resolved,
        list(report.deviations),
        ["circuit.json", "report.json", "summary.csv"],
    )
    print(
        f"variant={report.variant} n={report.n} fidelity={report.final_fidelity:.12f} "
        f"copies={report.copies_used}"
    )
    return 0


def _append_summary_row(path: Path, report) -> None:
    """Append the run's summary row, skipping an exact duplicate of the last row."""
    row = [
        str(report.seed),
        str(report.n),
        str(report.d),
        str(report.D),
        _format_float(report.epsilon),
        report.oracle,
        _format_float(report.final_fidelity),
        str(report.copies_used),
    ]
    header = "seed,n,d,D,epsilon,mode,fidelity,copies"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(row)
    line = buffer.getvalue()
    if path.exists():
        text = path.read_text()
        if text.endswith("\n" + line) or text == header + "\n" + line:
            return
        path.write_text(text + line)
    else:
        path.write_text(header + "\n" + line)


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    results = verify.run_suites([args.suite], seed=seed)
    failed = False
    for suite in results:
        for check in suite.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{suite.name}/{check.name}: {status} ({check.detail})")
            failed = failed or not check.passed
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = [
            {
                "suite": s.name,
                "passed": s.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail} for c in s.checks
                ],
            }
            for s in results
        ]
        mps.write_json(out_dir / "verify.json", doc)
        _write_manifest(
            out_dir, "verify", {"suite": args.suite, "seed": seed}, [], ["verify.json"]
        )
    return 1 if failed else 0


_BUDGET_SCHEMA = {
    "n_values": ((list,), True),
    "epsilon_values": ((list,), True),
    "d": ((int,), True),
    "D": ((int,), True),
    "delta": ((float, int), True),
}


def _without_d(formula):
    """An earlier learner's formula, which takes no ``d``, in the shape of ours."""
    return lambda n, d, D, epsilon, delta: formula(n, D, epsilon, delta)


_FORMULAS = {
    "exact_ours": complexity.budget_exact_ours,
    "exact_previous": _without_d(complexity.budget_exact_previous),
    "closest_ours": complexity.budget_closest_ours,
    "closest_previous": _without_d(complexity.budget_closest_previous),
}


def _cmd_budget(args) -> int:
    config = _load_config(args.config, _BUDGET_SCHEMA)
    n_values = config["n_values"]
    epsilon_values = config["epsilon_values"]
    if not n_values or not all(isinstance(n, int) and n >= 2 for n in n_values):
        raise InvalidSpec("n_values must be a non-empty list of integers >= 2")
    if not epsilon_values or not all(
        isinstance(e, (int, float)) and not isinstance(e, bool) and 0 < e <= 1
        for e in epsilon_values
    ):
        raise InvalidSpec("epsilon_values must be a non-empty list of floats in (0, 1]")
    d, D, delta = config["d"], config["D"], float(config["delta"])
    epsilons = [float(e) for e in epsilon_values]
    resolved = {
        "n_values": list(n_values),
        "epsilon_values": epsilons,
        "d": d,
        "D": D,
        "delta": delta,
    }
    # Each row is (formula, n, epsilon, value); "" leaves a column blank.
    rows, copies = [], {}
    for (name, formula), n, epsilon in itertools.product(_FORMULAS.items(), n_values, epsilons):
        copies[name, n, epsilon] = formula(n, d, D, epsilon, delta)
        rows.append((name, n, epsilon, copies[name, n, epsilon]))
    # Trailer: fitted log-log slopes, against n at the first epsilon and
    # against 1/epsilon at the first n.  The n-fit removes the log(n/delta)
    # factor first so the slope reflects the polynomial exponent alone.
    n0, epsilon0 = n_values[0], epsilons[0]
    for name in _FORMULAS:
        fits = (
            ("slope_n", "", epsilon0, n_values,
             [copies[name, n, epsilon0] / math.log(n / delta) for n in n_values]),
            ("slope_inv_eps", n0, "", [1.0 / e for e in epsilons],
             [copies[name, n0, e] for e in epsilons]),
        )
        for label, n, epsilon, xs, ys in fits:
            if len(xs) >= 2:
                rows.append((f"{label}:{name}", n, epsilon, complexity.fit_loglog_slope(xs, ys)))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["formula", "n", "d", "D", "epsilon", "delta", "value"])
    for name, n, epsilon, value in rows:
        cells = (name, n, d, D, epsilon, delta, value)
        writer.writerow([_format_float(c) if isinstance(c, float) else c for c in cells])
    (out_dir / "budget.csv").write_text(buffer.getvalue())
    _write_manifest(out_dir, "budget", resolved, [], ["budget.csv"])
    print(f"wrote {len(rows)} rows to {out_dir / 'budget.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpslearn",
        description="Learn log-depth disentangling circuits for matrix product states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a serialized instance state")
    gen.add_argument("--config", required=True, help="flat JSON config")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.add_argument("--out", required=True, help="output directory")

    learn_p = sub.add_parser("learn", help="run the learner on a stored state")
    learn_p.add_argument("--config", required=True, help="flat JSON config")
    learn_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    learn_p.add_argument("--out", required=True, help="output directory")
    learn_p.add_argument(
        "--mode",
        choices=sorted(_MODE_ALIASES),
        default=None,
        help="oracle override: exact, noise, or sample",
    )

    verify_p = sub.add_parser("verify", help="run a property suite")
    verify_p.add_argument(
        "--suite",
        required=True,
        choices=list(verify.AVAILABLE_SUITES) + ["all"],
        help="which property suite to run",
    )
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--out", default=None, help="optional report directory")

    budget = sub.add_parser("budget", help="emit copy-count tables as CSV")
    budget.add_argument("--config", required=True, help="flat JSON config")
    budget.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "learn": _cmd_learn,
        "verify": _cmd_verify,
        "budget": _cmd_budget,
    }
    try:
        return handlers[args.command](args)
    except MpslearnError as exc:
        print(f"{exc.outcome}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
