"""In-memory span tracer that wraps library functions from the outside.

The tracer replaces each named function everywhere the package's modules can
look it up: the defining module's attribute, every ``from .x import y`` copy
in a sibling module, and methods on their class.  A wrapper records a span
(name, start, end, parent) only while a root span opened by the benchmark is
active, so calls made by the benchmark's own correctness checks are never
traced.  :meth:`Tracer.uninstall` restores every original object.

Observers compute counts from a call's arguments and result after its span
has closed.  Their own cost is recorded as a ``bench.observe`` child of the
caller's span, so it never inflates any layer's self time.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

OBSERVE = "bench.observe"


class Tracer:
    def __init__(self, package: str):
        self.package = package
        # [name, parent id or None, start, end]; a parent always precedes its children.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None, perf_counter(), None])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span (one benchmark job) for the duration of the block."""
        if self.stack:
            raise RuntimeError("root spans do not nest")
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def add(self, key: str, value: float) -> None:
        """Add to a per-job counter of the job whose span is open."""
        self.counts[self.stack[0]][key] += value

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                oid = self._open(OBSERVE)
                try:
                    observe(self, args, kwargs, result)
                finally:
                    self._close(oid)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets: dict[str, tuple[str, Callable | None]]) -> None:
        """Wrap each target, ``"module.func"`` or ``"module.Class.method"``.

        ``targets`` maps a target's path relative to the package to its span
        name and an optional observer ``observe(tracer, args, kwargs, result)``.
        """
        originals = {}
        for path, (name, observe) in targets.items():
            module, *parts = path.split(".")
            obj = sys.modules[f"{self.package}.{module}"]
            for part in parts:
                obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
            originals[id(obj)] = (obj, self._wrap(name, obj, observe))
        for owner in _owners(self.package):
            for attr, value in list(vars(owner).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans come from one thread, so the children of a span never overlap
        and the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end) in enumerate(self.spans)]

    def roots(self) -> list[int]:
        """Root span id of every span."""
        out: list[int] = []
        for i, (_, parent, _, _) in enumerate(self.spans):
            out.append(i if parent is None else out[parent])
        return out

    def nesting_violations(self) -> int:
        """Number of spans not lying inside their parent's interval."""
        bad = 0
        for name, parent, start, end in self.spans:
            if parent is not None:
                _, _, p_start, p_end = self.spans[parent]
                bad += not (p_start <= start and end <= p_end)
        return bad

    def per_job(self, select: Callable[[list], str | None]) -> dict[str, list[tuple[int, float]]]:
        """Per root job, the number of spans and summed self time by key.

        ``select`` maps a span to the key it counts under, or ``None``.
        Returns ``{key: [(calls, self_s) for each job]}`` with jobs in order,
        including jobs where the key never occurs.
        """
        jobs = [i for i, span in enumerate(self.spans) if span[1] is None]
        index = {sid: k for k, sid in enumerate(jobs)}
        table: dict[str, list[list]] = defaultdict(lambda: [[0, 0.0] for _ in jobs])
        roots = self.roots()
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            key = select(span)
            if key is not None:
                cell = table[key][index[roots[i]]]
                cell[0] += 1
                cell[1] += own
        return {key: [tuple(cell) for cell in cells] for key, cells in table.items()}

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": name, "parent": parent, "start": start, "end": end}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]


def _owners(package: str):
    """Every module of the package and every class defined in one."""
    for modname, module in list(sys.modules.items()):
        if modname == package or modname.startswith(package + "."):
            yield module
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == modname:
                    yield value


def wrapped(package: str) -> list[str]:
    """Attributes of the package currently replaced by a tracer wrapper."""
    return [
        f"{getattr(owner, '__module__', owner.__name__)}.{owner.__name__}.{attr}"
        for owner in _owners(package)
        for attr, value in vars(owner).items()
        if getattr(value, "__bench_traced__", False)
    ]


def median_self(rows: list[tuple[int, float]]) -> float:
    return statistics.median(own for _, own in rows) if rows else 0.0


def mean_calls(rows: list[tuple[int, float]]) -> float:
    return sum(calls for calls, _ in rows) / len(rows) if rows else 0.0
