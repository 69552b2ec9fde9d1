"""Span recorder for the traced benchmark run.

Every public function of the package's layer modules, and every public method
of their classes, is wrapped under each name a caller looks it up by
(``ccrsim.measures.partial_trace``, ``ccrsim.sweep.boost_by_wigner_angle``,
``WignerRotation.from_angle_axis`` ...).  ``install`` swaps the wrappers in,
``uninstall`` puts every original back.  A span records (id, parent id, name,
start, end); spans stay in memory and are written once, by the caller, at
the end of the run.  Self time (duration minus the time covered by child
spans) is accumulated per name as spans close.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import sys
import time

PACKAGE = "ccrsim"
LAYERS = ("cli", "sweep", "states", "boost", "relativity", "linalg", "measures", "checks")
ROOT_SPAN = "bench.job"

# Pure formatting helpers called once per printed float; their cost stays in
# the caller (same layer) instead of doubling the span count of a CSV row.
_NOT_WRAPPED = {"sweep.fmt_float"}


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.stats: dict[str, list[int]] = {ROOT_SPAN: [0, 0, 0]}  # calls, incl ns, self ns
        self._stack: list[list[int]] = [[0, 0]]  # [span id, child ns]; 0 = no span
        self._next_id = 1
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._class_patches: list[tuple[type, str, object, object]] = []
        self._undo: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            self._collect(sys.modules[f"{PACKAGE}.{layer}"], layer)

    def _collect(self, module, layer: str) -> None:
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                name = f"{layer}.{attr}"
                if name not in _NOT_WRAPPED:
                    self._wrappers[id(value)] = (value, self._wrap(name, value))
            elif inspect.isclass(value) and not issubclass(value, (BaseException, enum.Enum)):
                for meth, raw in vars(value).items():
                    if meth.startswith("_"):
                        continue
                    name = f"{layer}.{meth}"
                    if name in self.stats:
                        name = f"{layer}.{value.__name__}.{meth}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        patched = type(raw)(self._wrap(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        patched = self._wrap(name, raw)
                    else:
                        continue
                    self._class_patches.append((value, meth, raw, patched))

    def _wrap(self, name: str, fn):
        if name in self.stats:
            raise ValueError(f"two traced callables share the span name {name!r}")
        index = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0, 0]
        stack, spans, clock, recorder = self._stack, self.spans, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                spans.append((span_id, parent[0], index, start, end))

        return wrapper

    def install(self) -> None:
        """Replace every original under every module-level name that holds it."""
        if self._undo:
            raise RuntimeError("spans are already installed")
        prefix = PACKAGE + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, entry[1])
        for cls, meth, raw, patched in self._class_patches:
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def job(self):
        """Root span of one traced job, with every wrapper installed."""
        self.install()
        stat = self.stats[ROOT_SPAN]
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.uninstall()
            stat[0] += 1
            stat[1] += end - start
            stat[2] += end - start - frame[1]
            self.spans.append((span_id, 0, 0, start, end))

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, (_, _, self_ns) in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_ns
        return out

    def dump(self) -> dict:
        """Spans with parent links, in a compact JSON-ready form."""
        return {
            "columns": ["id", "parent", "name", "start_ns", "end_ns"],
            "names": self.names,
            "spans": self.spans,
        }
