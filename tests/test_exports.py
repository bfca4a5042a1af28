"""The package's modules, the names the benchmark traces, and their readers."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import mpslearn

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
PACKAGE = Path(mpslearn.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_on_its_own(module):
    # in a fresh interpreter, so no other module has been imported first and
    # an import cycle shows whichever module it starts from
    done = subprocess.run(
        [sys.executable, "-c", f"import mpslearn.{module}"],
        cwd=PACKAGE.parent, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def _traced_targets() -> dict[str, str]:
    # read from the source, not imported: importing bench/run.py pins BLAS threads
    tree = ast.parse(BENCH_RUN.read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_TARGETS" for t in node.targets)
    ]
    return targets


def test_every_traced_target_resolves():
    # resolved as the benchmark's tracer resolves it: a class member must be
    # the class's own attribute, since an inherited one is a bare KeyError there
    targets = _traced_targets()
    assert targets
    for path in targets.values():
        module, *attributes = path.split(".")
        target = importlib.import_module(f"mpslearn.{module}")
        owner = (
            f"{path!r} does not resolve; the benchmark owns this span list "
            "(LAYER_TARGETS in bench/run.py), so change it with the benchmark"
        )
        for attribute in attributes:
            names = vars(target) if isinstance(target, type) else dir(target)
            assert attribute in names, owner
            target = getattr(target, attribute)
        assert callable(target), owner


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
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _read_names() -> set[str]:
    """Every name and attribute the package, the benchmark and the acceptance criteria read.

    The criteria are the paper's spec, so what they read as a reference is
    read; the other tests are not readers.
    """
    bench = [path for path in BENCH_RUN.parent.glob("*.py") if not path.name.startswith("test_")]
    names = set()
    for path in [*PACKAGE.glob("*.py"), *bench, ACCEPTANCE]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _definitions(tree):
    """``(label, name)`` of each top-level function and class, and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_every_function_class_and_method_has_a_caller():
    # a definition is dead unless a reader (the package, the benchmark or the
    # acceptance criteria) reads it, or the benchmark traces it
    read = _read_names()
    traced = {path.split(".")[-1] for path in _traced_targets().values()}
    dead = [
        f"{path.name}: {label}"
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name in _definitions(ast.parse(path.read_text()))
        if not name.startswith("__")
        and name not in read | traced
    ]
    assert dead == []


def _constants(tree):
    """Each name a module binds by a top-level assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (t.id for t in ast.walk(target) if isinstance(t, ast.Name))


def test_every_module_constant_has_a_reader():
    # a module-level constant is dead unless a reader reads it (its own
    # assignment is no read)
    read = _read_names()
    dead = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _constants(ast.parse(path.read_text()))
        if not name.startswith("__") and name not in read
    ]
    assert dead == []
