"""Span recording for the traced benchmark run (``--trace 1``).

The program is not modified: :meth:`Tracer.install` replaces the public
functions listed in :data:`TARGETS` with wrappers, in every ``repro``
module namespace that binds them, and :meth:`Tracer.uninstall` puts the
originals back.  A wrapper records a span only while its thread has an op
open (:meth:`Tracer.op`); otherwise it calls straight through, so the
untraced ops of a traced run pay one thread-local lookup per wrapped call.

A span is ``(name, start, end, parent, op)`` with ``perf_counter_ns``
timestamps.  Spans stay in memory until :meth:`Tracer.write` dumps them as
Chrome trace-event JSON at the end of the run.  A span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

#: Span name of an op's root span.
OP = "op"

#: (module, owner, attribute, span name).  ``owner`` is None for a module
#: function (patched in every ``repro`` module that imported it) or a
#: class name for a method.
TARGETS = (
    ("repro.runtime.benchmarking", None, "prepare_kernel", "runtime.prepare"),
    ("repro.runtime.benchmarking", None, "execute_prepared", "runtime.exec"),
    ("repro.runtime.benchmarking", "PreparedKernel", "alloc", "runtime.alloc"),
    ("repro.runtime.backend", None, "checksum", "runtime.checksum"),
    ("repro.core.derive", None, "derive_shift_peel", "core.derive"),
    ("repro.core.execplan", None, "build_execution_plan", "core.execplan"),
    ("repro.dependence.analysis", None, "analyze_sequence",
     "dependence.analyze"),
    ("repro.runtime.plancache", "PlanCache", "get", "plancache.get"),
    ("repro.runtime.plancache", "PlanCache", "lookup_alias",
     "plancache.lookup_alias"),
    ("repro.codegen.emitpy", None, "emit_plan_source", "codegen.emitpy"),
    ("repro.codegen.emitpy", None, "compile_source", "codegen.pycompile"),
    ("repro.codegen.emitc", None, "emit_plan_c_source", "codegen.emitc"),
    ("repro.codegen.emitc", None, "compile_c", "codegen.cc"),
    ("repro.codegen.emitc", None, "load_native", "codegen.dlopen"),
    ("repro.codegen.emitc", "CJitModule", "run", "cjit.run"),
    ("repro.runtime.fastexec", None, "export_arrays", "pool.export"),
    ("repro.runtime.fastexec", None, "copy_back_arrays", "pool.copy_back"),
    ("repro.runtime.fastexec", None, "release_segments", "pool.release"),
    ("repro.runtime.pool", None, "get_pool", "pool.get_pool"),
    ("repro.runtime.pool", "WorkerPool", "run_module", "pool.run_module"),
    ("repro.serve.client", "ServeClient", "request", "serve.request"),
)

#: ``JitModule`` is a frozen dataclass whose ``run`` is a per-instance
#: field, so it cannot be patched on the class: the ``compile_source``
#: wrapper hands out copies whose ``run`` records this span instead.
JIT_RUN = "jit.run"


@dataclasses.dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans; -1 for an op root
    op: str
    attrs: Optional[dict] = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[int]) -> int:
        parent = stack[-1]
        span = Span(name, time.perf_counter_ns(), 0, parent,
                    self.spans[parent].op)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int, stack: list[int]) -> None:
        self.spans[index].end = time.perf_counter_ns()
        stack.pop()

    @contextmanager
    def op(self, op_id: str):
        """Open the root span of one op on this thread."""
        stack = self._stack()
        if stack:
            raise RuntimeError("ops do not nest")
        span = Span(OP, time.perf_counter_ns(), 0, -1, op_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            self._close(index, stack)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording a ``name`` span per call made inside an op,
        with the span's counters from :data:`_ANNOTATE`."""
        tracer = self
        take_before, annotate = _ANNOTATE.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            before = take_before(args) if take_before else None
            index = tracer._open(name, stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, stack)
            if annotate:
                tracer.spans[index].attrs = annotate(args, result, before)
            return result

        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, owner, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name)
            if name == "codegen.pycompile":
                wrapped = self._traced_jit_modules(wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("repro")
                        and getattr(mod, attr, None) is original):
                    self._patch(mod, attr, original, wrapped)

    def _traced_jit_modules(self, compile_source: Callable) -> Callable:
        tracer = self

        @functools.wraps(compile_source)
        def compile_traced(*args, **kwargs):
            module = compile_source(*args, **kwargs)
            return dataclasses.replace(
                module, run=tracer.wrap(module.run, JIT_RUN))

        return compile_traced

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time (ns) of every span: duration minus children's cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(index)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0
            cursor = span.start
            for child in sorted((self.spans[c] for c in children[index]),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def nesting_errors(self) -> list[str]:
        """Children that leave their parent's interval or op (empty when
        the trace is well formed)."""
        errors = []
        for index, span in enumerate(self.spans):
            if span.end < span.start:
                errors.append(f"span {index} {span.name} ends before start")
            if span.parent < 0:
                continue
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                errors.append(f"span {index} {span.name} outside parent "
                              f"{span.parent} {parent.name}")
            if span.op != parent.op:
                errors.append(f"span {index} {span.name} op {span.op} != "
                              f"parent op {parent.op}")
        return errors

    def per_op(self) -> dict[str, dict[str, dict]]:
        """op id -> span name -> {"self_ns", "calls", attr sums}."""
        selfs = self.self_times()
        table: dict[str, dict[str, dict]] = defaultdict(dict)
        for span, own in zip(self.spans, selfs):
            entry = table[span.op].setdefault(
                span.name, {"self_ns": 0, "calls": 0})
            entry["self_ns"] += own
            entry["calls"] += 1
            for key, value in (span.attrs or {}).items():
                entry[key] = entry.get(key, 0) + value
        return table

    def write(self, path: Path) -> None:
        """Dump the spans as Chrome trace-event JSON."""
        base = min((s.start for s in self.spans), default=0)
        events = [{
            "name": s.name, "ph": "X", "pid": 0, "tid": s.op,
            "ts": (s.start - base) / 1000.0, "dur": s.duration / 1000.0,
            "args": {"id": i, "parent": s.parent, "op": s.op,
                     **(s.attrs or {})},
        } for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}),
                        encoding="utf-8")


def _source_bytes(args, result, before) -> dict:
    return {"bytes": len(result)}


#: Counters recorded on spans, where the work happens: span name ->
#: (value taken from the arguments before the call, attributes made from
#: ``(args, result, that value)`` after it).
_ANNOTATE = {
    "codegen.emitpy": (None, _source_bytes),
    "codegen.emitc": (None, _source_bytes),
    "plancache.get": (
        lambda args: args[0].stats.misses,
        lambda args, result, before: {
            "miss": int(args[0].stats.misses > before)}),
}


def median_over_ops(table: dict[str, dict[str, dict]], name: str,
                    key: str = "self_ns", ops=None) -> float:
    """Median, over the ops in which ``name`` ran, of its per-op ``key``
    sum; 0.0 when it never ran."""
    values = [spans[name][key] for op, spans in table.items()
              if name in spans and (ops is None or op in ops)]
    return float(statistics.median(values)) if values else 0.0


def total(table: dict[str, dict[str, dict]], name: str,
          key: str = "self_ns", ops=None) -> float:
    return float(sum(spans[name].get(key, 0) for op, spans in table.items()
                     if name in spans and (ops is None or op in ops)))
