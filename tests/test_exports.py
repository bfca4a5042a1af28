"""The package's export list, and the names the benchmark traces."""

import ast
import importlib
from pathlib import Path

import mpslearn

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_export_resolves_once():
    names = mpslearn.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(mpslearn, name) is not None, name


def test_every_traced_target_resolves():
    # read from the source, not imported: importing bench/run.py pins BLAS threads
    tree = ast.parse(BENCH_RUN.read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_TARGETS" for t in node.targets)
    ]
    assert targets
    for path in targets.values():
        module, *attributes = path.split(".")
        target = importlib.import_module(f"mpslearn.{module}")
        for attribute in attributes:
            assert hasattr(target, attribute), path
            target = getattr(target, attribute)
        assert callable(target), path
