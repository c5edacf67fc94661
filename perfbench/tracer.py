"""Spans and call counts at the boundaries of ``repro``'s layers.

The traced run wraps public functions of the program from the outside: a
wrapper replaces the function under every name a caller looks it up by.
Modules that did ``from repro.kernel.batch import ...`` at import hold their
own reference (``repro.engine.pool`` binds ``execute_batch``,
``repro.kernel.batch`` binds ``first_fit_shift``, ``lifetime_bounds`` and
``greedy_swap_search``), so :meth:`Tracer.install` patches every loaded
``repro`` module attribute that *is* the original function, not just the
defining module.  Methods are patched on their class.

Each call records a span ``(name, start, end, parent, request)`` in memory;
spans of one serve request share a request id.  Self time is a span's
duration minus the time its child spans cover, accumulated as spans close.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: Traced functions: metric prefix -> (module, attribute path).
TARGETS: dict[str, tuple[str, str]] = {
    "workloads.perfect_club_like": ("repro.workloads.suite", "perfect_club_like"),
    "engine.run_jobs": ("repro.engine.pool", "run_jobs"),
    "engine.execute_batch": ("repro.engine.jobs", "execute_batch"),
    "engine.cache_get": ("repro.engine.cache", "ResultCache.get"),
    "engine.cache_put": ("repro.engine.cache", "ResultCache.put"),
    "kernel.lower_loop": ("repro.kernel.loop", "lower_loop"),
    "kernel.array_mii": ("repro.kernel.batch", "array_mii"),
    "kernel.attempt": ("repro.kernel.modulo", "attempt"),
    "kernel.heights": ("repro.kernel.modulo", "heights"),
    "kernel.lifetime_bounds": ("repro.kernel.lifetimes", "lifetime_bounds"),
    "kernel.live_profile_spans": ("repro.kernel.lifetimes", "live_profile_spans"),
    "kernel.first_fit_shift": ("repro.kernel.firstfit", "first_fit_shift"),
    "kernel.dual_registers": ("repro.kernel.dual", "dual_registers"),
    "kernel.dual_max_live": ("repro.kernel.dual", "dual_max_live"),
    "kernel.greedy_swap_search": ("repro.kernel.swap", "greedy_swap_search"),
    "kernel.LoopChain": ("repro.kernel.batch", "LoopChain.__init__"),
    "kernel.LoopChain.evaluate": ("repro.kernel.batch", "LoopChain.evaluate"),
    "pipeline.run_evaluation": ("repro.pipeline.pipelines", "run_evaluation"),
    "pipeline.policy_select": ("repro.pipeline.policies", "*.select"),
    "sched.modulo_schedule": ("repro.sched.modulo", "modulo_schedule"),
    "spill.spill_value": ("repro.spill.spiller", "spill_value"),
    "check.check_evaluation": ("repro.check.invariants", "check_evaluation"),
}

#: Spans kept for the written trace (about 12 MB); calls and self time
#: keep counting past it.
MAX_SPANS = 250_000


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        #: ``(seconds, jobs, results)`` of every ``execute_batch`` call,
        #: for the per-loop tail report.
        self.groups: list[tuple[float, Any, Any]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array.array("q")
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_request = array.array("q")
        self.dropped = 0
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def span(self, name: str, fn: Callable, *args: Any, request: int = -1,
             **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``; returns its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and request < 0:
            request = parent[2]
        frame = [self._next_id, 0.0, request]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.total_s[name] += duration
            if parent is not None:
                parent[1] += duration
            if len(self.span_start) < MAX_SPANS:
                self.span_id.append(frame[0])
                self.span_name.append(self._name_id(name))
                self.span_start.append(start - self._origin)
                self.span_end.append(end - self._origin)
                self.span_parent.append(parent[0] if parent else -1)
                self.span_request.append(request)
            else:
                self.dropped += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if name == "kernel.attempt":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.counters["kernel.attempt.success"] += result is not None
                return result
        elif name == "engine.execute_batch":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.groups.append(
                    (time.perf_counter() - start, args[0], result)
                )
                tracer.counters["engine.execute_batch.points"] += len(args[0])
                return result
        elif name == "engine.cache_get":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.counters["engine.cache_get.hits"] += result is not None
                return result
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target under all the names it is looked up by."""
        for name, (module_name, path) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*":
                # A method of every class in the module that defines it.
                for owner in list(vars(module).values()):
                    if (
                        isinstance(owner, type)
                        and attr in vars(owner)
                        and not getattr(owner, "_is_protocol", False)
                    ):
                        self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    @property
    def active(self) -> bool:
        """Whether the wrappers are installed."""
        return bool(self._patches)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write(self, directory: Path, extra: dict) -> None:
        """Write the span columns and a JSON summary under ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        for column in ("id", "name", "start", "end", "parent", "request"):
            with open(directory / f"spans.{column}.bin", "wb") as handle:
                getattr(self, f"span_{column}").tofile(handle)
        summary = {
            "names": self.names,
            "spans": len(self.span_start),
            "dropped": self.dropped,
            "columns": {
                "id": "int64 span id, in start order",
                "name": "uint16 index into names",
                "start": "float64 s since tracer start",
                "end": "float64 s since tracer start",
                "parent": "int64 parent span id, -1 at top level",
                "request": "int64 request id, -1 outside requests",
            },
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
            **extra,
        }
        (directory / "trace.json").write_text(json.dumps(summary, indent=1))
