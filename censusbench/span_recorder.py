"""In-memory spans recorded by the benchmark around the program's entry points.

The program's own tracer stays off during every benchmark run.  Instead,
:class:`Hooks` swaps each public entry point named in the layer table
(``census_layers.HOOKS``) for a thin wrapper that opens a span in a
:class:`SpanRecorder`, calls the original and closes the span.  Spans
carry a name, a layer key, start/end (``perf_counter``), the index of
the enclosing span and the run id; they stay in memory and are written
out once, when the benchmark ends.

Entry points are resolved by name at install time.  A name that no
longer resolves to a callable (a later change removed or reshaped it)
is reported as an absent hook instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span record fields, stored as lists to keep the wrapper cheap.
NAME, KEY, START, END, PARENT, CPU0, CPU1, OP = range(8)


class SpanRecorder:
    """Append-only span store plus per-operation counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        #: One entry per operation root: (kind, span index, counters).
        self.ops: List[Tuple[str, int, Dict[str, float]]] = []
        self._stack: List[int] = []
        self._op: int = -1

    # -- spans -----------------------------------------------------------

    def open(self, name: str, key: str, cpu: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, key, time.perf_counter(), 0.0, parent,
             time.process_time() if cpu else 0.0, 0.0, self._op]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, cpu: bool = False) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        if cpu:
            span[CPU1] = time.process_time()
        self._stack.pop()

    def current_key(self) -> Optional[str]:
        """Layer key of the innermost open span."""
        return self.spans[self._stack[-1]][KEY] if self._stack else None

    @contextmanager
    def op(self, kind: str) -> Iterator[Dict[str, float]]:
        """Root span of one benchmark operation; yields its counters."""
        counters: Dict[str, float] = {}
        self.ops.append((kind, len(self.spans), counters))
        self._op = len(self.ops) - 1
        index = self.open("op." + kind, "op")
        try:
            yield counters
        finally:
            self.close(index)
            self._op = -1

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the operation currently open (if any)."""
        if self._op >= 0:
            counters = self.ops[self._op][2]
            counters[name] = counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen in the operation currently open."""
        if self._op >= 0:
            counters = self.ops[self._op][2]
            counters[name] = max(counters.get(name, 0), value)

    # -- derived views ---------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[END] - span[START]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for i, s in enumerate(self.spans):
                fp.write(json.dumps({
                    "run": self.run_id, "id": i, "parent": s[PARENT],
                    "name": s[NAME], "key": s[KEY], "op": s[OP],
                    "start": s[START], "end": s[END],
                    **({"cpu_s": s[CPU1] - s[CPU0]} if s[CPU1] else {}),
                }) + "\n")


def resolve(target: str) -> Tuple[Optional[Any], Optional[Any], str]:
    """``"pkg.mod:Class.attr"`` -> (owner, original callable, attr name).

    Returns ``(None, None, reason)`` when any part no longer resolves.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        return None, None, f"module {module_name} not importable: {exc}"
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, f"{module_name}.{part} is gone"
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None, None, f"{target} is gone or not callable"
    return owner, original, parts[-1]


class Hooks:
    """Installs span wrappers for a hook table; restores the originals."""

    def __init__(self, recorder: SpanRecorder, table) -> None:
        self.recorder = recorder
        self.table = table
        self.absent: Dict[str, str] = {}
        #: Observer failures (target -> error), e.g. a reshaped return value.
        self.observer_errors: Dict[str, str] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, hook, original: Callable) -> Callable:
        recorder = self.recorder
        name, key, cpu = hook.target, hook.key, hook.cpu
        before, after = hook.before, hook.after
        errors = self.observer_errors

        def observe(fn, *fn_args):
            # Counting must never break the program call it rides on: a
            # failed observer is reported and its counts are missing.
            try:
                return fn(recorder, *fn_args)
            except Exception as exc:  # noqa: BLE001 - boundary, reported
                errors.setdefault(name, f"{type(exc).__name__}: {exc}")
                return None

        def wrapper(*args, **kwargs):
            state = observe(before, args, kwargs) if before else None
            index = recorder.open(name, key, cpu)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index, cpu)
            if after:
                observe(after, args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for hook in self.table:
            owner, original, attr = resolve(hook.target)
            if original is None:
                self.absent[hook.target] = attr
                continue
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            # A module-level function is also bound by name in every module
            # that imported it (``from .x import f``): replace each binding.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()
