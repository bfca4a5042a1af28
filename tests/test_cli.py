"""End-to-end tests for the command-line front end.

Each test drives ``cli.main`` in process with a temp directory, so exit
codes, printed output, and the files written to ``--out`` are all checked
without spawning subprocesses.
"""
import argparse
import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mpslearn import cli, learner, mps
from mpslearn.learner import load_circuit


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def run_gen(tmp_path: Path, out_name: str = "gen", **overrides) -> Path:
    doc = {"kind": "random", "n": 6, "d": 2, "D": 2, "seed": 3}
    doc.update(overrides)
    config = write_config(tmp_path / "gen.json", doc)
    out = tmp_path / out_name
    assert cli.main(["gen", "--config", config, "--out", str(out)]) == 0
    return out


def test_gen_writes_state_and_manifest(tmp_path, capsys):
    out = run_gen(tmp_path)
    assert (out / "state.json").exists()
    assert (out / "manifest.json").exists()
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cut")]
    assert len(lines) == 5
    assert lines[0] == "cut 1: rank 2"

    state = mps.load_mps(out / "state.json")
    assert state.n == 6
    assert state.d == 2


def test_gen_manifest_contents(tmp_path):
    out = run_gen(tmp_path)
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["format"] == "run-manifest"
    assert doc["version"] == 1
    assert doc["command"] == "gen"
    assert doc["outputs"] == ["state.json"]
    assert doc["deviations"] == []
    assert len(doc["config_sha256"]) == 64
    assert int(doc["config_sha256"], 16) >= 0
    assert "timestamp" not in doc
    assert doc["formats"] == {
        mps.MPS_FORMAT_NAME: mps.MPS_FORMAT_VERSION,
        learner.CIRCUIT_FORMAT_NAME: learner.CIRCUIT_FORMAT_VERSION,
        "run-manifest": 1,
    }


def test_gen_seed_flag_overrides_config(tmp_path):
    out_a = run_gen(tmp_path, out_name="a", seed=3)
    config = write_config(tmp_path / "gen2.json", {"kind": "random", "n": 6, "d": 2, "D": 2, "seed": 99})
    out_b = tmp_path / "b"
    assert cli.main(["gen", "--config", config, "--seed", "3", "--out", str(out_b)]) == 0
    state_a = mps.load_mps(out_a / "state.json")
    state_b = mps.load_mps(out_b / "state.json")
    for ta, tb in zip(state_a.tensors, state_b.tensors):
        np.testing.assert_allclose(ta, tb)


def test_gen_ghz_defaults_bond_to_d(tmp_path, capsys):
    config = write_config(tmp_path / "ghz.json", {"kind": "ghz", "n": 4, "d": 3})
    out = tmp_path / "ghz"
    assert cli.main(["gen", "--config", config, "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cut")]
    assert lines == [f"cut {k}: rank 3" for k in (1, 2, 3)]


def test_gen_random_requires_bond_dimension(tmp_path, capsys):
    config = write_config(tmp_path / "bad.json", {"kind": "random", "n": 4, "d": 2})
    assert cli.main(["gen", "--config", config, "--out", str(tmp_path / "x")]) == 2
    assert "D" in capsys.readouterr().err


def learn_config(tmp_path: Path, state_dir: Path, **overrides) -> str:
    doc = {
        "state": str(state_dir / "state.json"),
        "D": 2,
        "epsilon": 0.25,
        "delta": 0.01,
        "seed": 5,
    }
    doc.update(overrides)
    return write_config(tmp_path / "learn.json", doc)


def test_gen_then_learn_at_n_64(tmp_path, capsys):
    # past the dense cap of 2**16 amplitudes: the profile and the learner stay on the tensors
    gen_out = run_gen(tmp_path, n=64)
    ranks = [l for l in capsys.readouterr().out.splitlines() if l.startswith("cut")]
    assert ranks == [f"cut {cut}: rank 2" for cut in range(1, 64)]
    out = tmp_path / "learn"
    assert cli.main(["learn", "--config", learn_config(tmp_path, gen_out), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["n"], report["M"]) == (64, 5)
    assert report["final_fidelity"] > 1 - 1e-9
    first = (out / "circuit.json").read_bytes()
    assert cli.main(["learn", "--config", learn_config(tmp_path, gen_out), "--out", str(out)]) == 0
    assert (out / "circuit.json").read_bytes() == first


def test_learn_pipeline_outputs(tmp_path, capsys):
    gen_out = run_gen(tmp_path)
    config = learn_config(tmp_path, gen_out)
    out = tmp_path / "learn"
    assert cli.main(["learn", "--config", config, "--out", str(out)]) == 0
    for name in ("circuit.json", "report.json", "summary.csv", "manifest.json"):
        assert (out / name).exists(), name

    printed = capsys.readouterr().out
    assert "variant=exact" in printed
    assert "fidelity=" in printed

    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 6
    assert report["oracle"] == "exact"
    assert report["final_fidelity"] > 1 - 1e-9
    assert report["copies_used"] > 0

    circuit = load_circuit(out / "circuit.json")
    assert circuit.n == 6
    assert circuit.num_layers == report["M"]


def test_learn_reruns_are_byte_identical(tmp_path):
    gen_out = run_gen(tmp_path)
    config = learn_config(tmp_path, gen_out, oracle="bounded_noise", eta=1e-4)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["learn", "--config", config, "--out", str(out_a)]) == 0
    assert cli.main(["learn", "--config", config, "--out", str(out_b)]) == 0
    for name in ("circuit.json", "report.json", "summary.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_learn_summary_csv_schema_and_dedup(tmp_path):
    gen_out = run_gen(tmp_path)
    config = learn_config(tmp_path, gen_out)
    out = tmp_path / "learn"
    assert cli.main(["learn", "--config", config, "--out", str(out)]) == 0
    assert cli.main(["learn", "--config", config, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "seed,n,d,D,epsilon,mode,fidelity,copies"
    assert len(lines) == 2, "identical rerun must not append a duplicate row"

    assert cli.main(["learn", "--config", config, "--seed", "7", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("7,6,2,2,")


def test_learn_mode_flag_overrides_oracle(tmp_path):
    gen_out = run_gen(tmp_path)
    config = learn_config(tmp_path, gen_out, oracle="exact", eta=1e-4)
    out = tmp_path / "learn"
    rc = cli.main(["learn", "--config", config, "--mode", "noise", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["oracle"] == "bounded_noise"
    assert report["eta"] == 1e-4


def test_learn_finite_sample_requires_copies(tmp_path, capsys):
    gen_out = run_gen(tmp_path)
    config = learn_config(tmp_path, gen_out, oracle="finite_sample")
    rc = cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "copies" in capsys.readouterr().err


def test_learn_missing_state_file(tmp_path, capsys):
    config = learn_config(tmp_path, tmp_path / "nowhere")
    rc = cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_learn_has_no_audit_flag_or_key(tmp_path, capsys):
    # the command line writes nothing from an audit, so it offers none
    gen_out = run_gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["learn", "--config", learn_config(tmp_path, gen_out), "--audit",
                  "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    config = learn_config(tmp_path, gen_out, audit=True)
    assert cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys: audit" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, overrides, flags",
    [
        ("learn", {"oracle": "bounded_noise", "eta": float("nan")}, []),
        ("learn", {"oracle": "bounded_noise", "eta": float("inf")}, []),
        ("learn", {"oracle": "bounded_noise", "eta": 2.5}, []),
        ("learn", {"theta": float("nan")}, []),
        ("learn", {"theta": float("inf")}, []),
        ("learn", {"oracle": "finite_sample", "copies": 2**63}, []),
        ("learn", {"oracle": "bounded_noise"}, ["--seed", "-1"]),
        ("learn", {"oracle": "finite_sample", "copies": 1000, "seed": -1}, []),
        ("learn", {"seed": -1}, []),
        ("gen", {"seed": -1}, []),
        ("verify", None, ["--suite", "rank", "--seed", "-1"]),
        # integers past a float's range
        ("learn", {"epsilon": 10**400}, []),
        ("learn", {"delta": 10**400}, []),
        ("learn", {"theta": 10**400}, []),
        ("budget", {"delta": 10**400}, []),
        ("budget", {"D": 10**400}, []),
        ("budget", {"n_values": [8, 10**400]}, []),
    ],
    ids=["eta-nan", "eta-infinity", "eta-above-2", "theta-nan", "theta-infinity", "copies-2**63",
         "seed-flag-negative-noise", "seed-negative-sample", "seed-negative-exact",
         "gen-seed-negative", "verify-seed-negative", "epsilon-10**400", "delta-10**400",
         "theta-10**400", "budget-delta-10**400", "budget-D-10**400", "budget-n-10**400"],
)
def test_a_bad_config_number_exits_2_without_a_traceback(tmp_path, capsys, command, overrides, flags):
    # JSON's NaN and Infinity parse to floats; each value is refused by a typed error
    argv = [command, *flags]
    if command == "learn":
        argv += ["--config", learn_config(tmp_path, run_gen(tmp_path), **overrides)]
    elif command == "gen":
        doc = {"kind": "random", "n": 6, "d": 2, "D": 2, **overrides}
        argv += ["--config", write_config(tmp_path / "gen.json", doc)]
    elif command == "budget":
        doc = {"n_values": [8, 16], "epsilon_values": [0.2], "d": 2, "D": 2, "delta": 0.01}
        argv += ["--config", write_config(tmp_path / "budget.json", {**doc, **overrides})]
    if command != "verify":
        argv += ["--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = write_config(
        tmp_path / "c.json", {"kind": "random", "n": 4, "d": 2, "D": 2, "bogus": 1}
    )
    assert cli.main(["gen", "--config", config, "--out", str(tmp_path / "x")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_rejects_missing_required_key(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"kind": "random", "d": 2, "D": 2})
    assert cli.main(["gen", "--config", config, "--out", str(tmp_path / "x")]) == 2
    assert "missing required config key: n" in capsys.readouterr().err


def test_config_rejects_wrong_types(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"kind": "random", "n": "four", "d": 2, "D": 2})
    assert cli.main(["gen", "--config", config, "--out", str(tmp_path / "x")]) == 2
    assert "n" in capsys.readouterr().err

    config = write_config(tmp_path / "c2.json", {"kind": "random", "n": True, "d": 2, "D": 2})
    assert cli.main(["gen", "--config", config, "--out", str(tmp_path / "x")]) == 2


def test_config_rejects_invalid_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "JSON" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert cli.main(["gen", "--config", missing, "--out", str(tmp_path / "x")]) == 2
    assert "not found" in capsys.readouterr().err


def test_gen_rejects_nonpositive_register(tmp_path):
    config = write_config(tmp_path / "c.json", {"kind": "random", "n": 0, "d": 2, "D": 2})
    assert cli.main(["gen", "--config", config, "--out", str(tmp_path / "x")]) == 2


def test_gen_past_a_resource_limit_writes_no_file(tmp_path, capsys):
    # a periodic state's profile expands it: n = 17 is past the dense cap
    doc = {"kind": "random", "n": 17, "d": 2, "D": 2, "boundary": "periodic"}
    config = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "x"
    assert cli.main(["gen", "--config", config, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("resource limit: ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "boundary, n, variant",
    [("open", 64, "closest"), ("periodic", 17, "exact")],
    ids=["closest-n64-window", "periodic-n17-dense"],
)
def test_learn_past_a_resource_limit_exits_4(tmp_path, capsys, boundary, n, variant):
    # a block window the tensor train cannot hold (BackendTooLarge), and a
    # periodic state the dense register cannot hold (TooLarge)
    state_dir = tmp_path / "gen"
    state_dir.mkdir()
    spec = mps.StateSpec(n=n, d=2, D=2, boundary=boundary, seed=52)
    mps.save_mps(mps.random_mps(spec), state_dir / "state.json")
    config = learn_config(tmp_path, state_dir, variant=variant)
    out = tmp_path / "learn"
    assert cli.main(["learn", "--config", config, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and "Traceback" not in err
    assert not out.exists()


def test_verify_all_suites_pass(tmp_path, capsys):
    out = tmp_path / "verify"
    rc = cli.main(["verify", "--suite", "all", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in printed
    assert printed.count("PASS") >= 20

    doc = json.loads((out / "verify.json").read_text())
    assert all(suite["passed"] for suite in doc)
    names = {suite["suite"] for suite in doc}
    assert "lambert" in names and "rank" in names


def test_verify_single_suite_no_out(capsys):
    rc = cli.main(["verify", "--suite", "plan"])
    printed = capsys.readouterr().out
    assert rc == 0
    assert printed.startswith("plan/")


def test_budget_csv_table(tmp_path, capsys):
    config = write_config(
        tmp_path / "b.json",
        {"n_values": [8, 16, 32], "epsilon_values": [0.5, 0.25], "d": 2, "D": 2, "delta": 0.01},
    )
    out = tmp_path / "budget"
    assert cli.main(["budget", "--config", config, "--out", str(out)]) == 0
    lines = (out / "budget.csv").read_text().splitlines()
    assert lines[0] == "formula,n,d,D,epsilon,delta,value"
    data = [l for l in lines[1:] if not l.startswith("slope_")]
    trailer = [l for l in lines[1:] if l.startswith("slope_")]
    assert len(data) == 4 * 3 * 2
    assert len(trailer) == 8

    slopes = {}
    for line in trailer:
        fields = line.split(",")
        slopes[fields[0]] = float(fields[-1])
    assert abs(slopes["slope_n:exact_ours"] - 3.0) < 0.05
    assert abs(slopes["slope_n:exact_previous"] - 5.0) < 0.05
    assert abs(slopes["slope_n:closest_previous"] - 9.0) < 0.05
    assert abs(slopes["slope_inv_eps:exact_ours"] - 4.0) < 0.05
    assert abs(slopes["slope_inv_eps:exact_previous"] - 4.0) < 0.05
    assert abs(slopes["slope_inv_eps:closest_previous"] - 8.0) < 0.05


def test_budget_rejects_bad_grid(tmp_path, capsys):
    config = write_config(
        tmp_path / "b.json",
        {"n_values": [1], "epsilon_values": [0.5], "d": 2, "D": 2, "delta": 0.01},
    )
    assert cli.main(["budget", "--config", config, "--out", str(tmp_path / "x")]) == 2

    config = write_config(
        tmp_path / "b2.json",
        {"n_values": [8], "epsilon_values": [1.5], "d": 2, "D": 2, "delta": 0.01},
    )
    assert cli.main(["budget", "--config", config, "--out", str(tmp_path / "x")]) == 2


def test_budget_reruns_are_byte_identical(tmp_path):
    config = write_config(
        tmp_path / "b.json",
        {"n_values": [8, 16], "epsilon_values": [0.5], "d": 2, "D": 2, "delta": 0.01},
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["budget", "--config", config, "--out", str(out_a)]) == 0
    assert cli.main(["budget", "--config", config, "--out", str(out_b)]) == 0
    assert (out_a / "budget.csv").read_bytes() == (out_b / "budget.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_learn_rejects_damaged_state_file(tmp_path, capsys):
    gen_out = run_gen(tmp_path)
    state = gen_out / "state.json"
    text = state.read_text()
    config = learn_config(tmp_path, gen_out)
    huge = text.replace('"n":6,', '"n":' + "9" * 5000 + ",")
    for damaged in (text[: len(text) // 2], text.replace('"n":6,', ""), huge):
        state.write_text(damaged)
        rc = cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
    state.write_text(text)
    huge_config = Path(config).read_text().replace('"seed": 5', '"seed": ' + "9" * 5000)
    Path(config).write_text(huge_config)
    rc = cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # a directory where the state file or the config file should be
    for config in (learn_config(tmp_path, gen_out, state=str(gen_out)), str(gen_out)):
        rc = cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "d, overrides",
    [
        (2, {"D": 10**200}),  # D**2 overflows the exact variant's copy budget
        (2, {"D": 10**400}),  # D is past a float
        (2, {"D": 10**400, "variant": "closest"}),
        (2, {"variant": "closest", "epsilon": 1e-200}),  # epsilon**2 underflows to zero
        (3, {"variant": "closest", "epsilon": 1.2e-152}),  # a finite scale B, but not B d ln d
    ],
    ids=["D-1e200-exact", "D-1e400-exact", "D-1e400-closest", "epsilon-1e-200-closest",
         "epsilon-1.2e-152-closest-d3"],
)
def test_learn_refuses_a_scale_past_a_float(tmp_path, capsys, d, overrides):
    gen_out = run_gen(tmp_path, n=8, d=d)
    config = learn_config(tmp_path, gen_out, **overrides)
    assert cli.main(["learn", "--config", config, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_learn_refuses_version_1_state_file(tmp_path, capsys):
    # version 1 stored the entries as a JSON list of interleaved floats
    gen_out = run_gen(tmp_path)
    state = gen_out / "state.json"
    doc = json.loads(state.read_text())
    floats = np.frombuffer(base64.b64decode(doc["entries"]), dtype="<f8")
    doc.update(version=1, entries=floats.tolist())
    state.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    rc = cli.main(["learn", "--config", learn_config(tmp_path, gen_out), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "version 1" in err and "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_command_line_names_only_real_flags_and_keys():
    # a README sentence must not outlive its flag or its config key
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start : text.index("\n## ", start)]
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for sub in commands.choices.values() for flag in sub._option_string_actions}
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert "--config" in flags and flags <= options, sorted(flags - options)
    schemas = (cli._GEN_SCHEMA, cli._LEARN_SCHEMA, cli._BUDGET_SCHEMA)
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    assert len(configs) == len(schemas)
    for config in configs:  # matched to the one schema whose required keys it holds
        (schema,) = [s for s in schemas if all(k in config for k, (_, req) in s.items() if req)]
        assert set(config) <= set(schema), sorted(set(config) - set(schema))
