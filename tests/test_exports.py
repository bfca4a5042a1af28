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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    package = Path(mpslearn.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
