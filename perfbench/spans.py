"""In-memory span log for the benchmark's traced run.

:class:`SpanLog` installs timing wrappers around layer entry points (class
methods and module functions) and records one span per call: name, start,
end, and parent. Spans live in flat ``array`` columns so a traced window
of a few hundred thousand calls stays a few megabytes; they are written
out once, after the run, by :meth:`SpanLog.save`.

Two span trees share the log:

- **Synchronous calls** nest on the one thread's call stack (the event
  loop thread or the replay loop), so a span's parent is the enclosing
  wrapped call and the self times of all synchronous spans partition the
  time covered by the root spans.
- **Coroutine calls** (``AsyncOsdClient.submit``, ``RouterClient.read``)
  interleave with other tasks, so their parent is tracked per task through
  a context variable, and their self time is the span minus the *union*
  of their child spans (parallel stripe legs overlap).

Probes count calls (per enclosing span name) or record one argument per
call without opening a span. :meth:`SpanLog.uninstall` puts every
original attribute back, so a run after the traced one executes the
unmodified program.
"""

from __future__ import annotations

import contextvars
import inspect
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SpanLog", "SpanStats"]


class SpanStats:
    """Per-name aggregates of a finished span log."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_seconds: Dict[str, float] = {}
        self.total_seconds: Dict[str, float] = {}
        #: Self seconds of all synchronous spans: the time their roots cover.
        self.sync_self_seconds = 0.0

    def mean_self_us(self, *names: str) -> float:
        """Mean self time per call across ``names``, in microseconds."""
        calls = sum(self.calls.get(name, 0) for name in names)
        if not calls:
            return 0.0
        return sum(self.self_seconds.get(name, 0.0) for name in names) / calls * 1e6

    def self_sum(self, prefix: str = "") -> float:
        """Total self seconds of every span whose name starts with ``prefix``."""
        return sum(
            seconds for name, seconds in self.self_seconds.items()
            if name.startswith(prefix)
        )


class SpanLog:
    """Records spans from wrappers it installs; removes them on uninstall."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.is_async = array("b")
        self.start = array("d")
        self.end = array("d")
        #: Probe name -> enclosing span name (or "") -> [calls, weight sum].
        self.tallies: Dict[str, Dict[str, List[float]]] = {}
        #: Probe name -> one recorded argument value per call.
        self.samples: Dict[str, "array[float]"] = {}
        self._stack: List[int] = [-1]
        self._task_span: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _original(self, owner: Any, attr: str) -> Callable:
        original = vars(owner)[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        return original

    def _patch(self, owner: Any, attr: str, replacement: Callable, original: Callable) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def span(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = self._original(owner, attr)
        name_id = self._name_id(name)
        names, parents, kinds = self.name, self.parent, self.is_async
        starts, ends = self.start, self.end
        clock = time.perf_counter
        if inspect.iscoroutinefunction(original):
            task_span = self._task_span

            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index = len(starts)
                names.append(name_id)
                parents.append(task_span.get())
                kinds.append(1)
                ends.append(0.0)
                token = task_span.set(index)
                starts.append(clock())
                try:
                    return await original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    task_span.reset(token)

            self._patch(owner, attr, traced_async, original)
            return
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            kinds.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        self._patch(owner, attr, traced, original)

    def tally(
        self,
        owner: Any,
        attr: str,
        name: str,
        weight: Optional[Callable[[tuple], float]] = None,
    ) -> None:
        """Count calls of ``owner.attr`` per enclosing span, summing ``weight(args)``."""
        original = self._original(owner, attr)
        by_parent = self.tallies.setdefault(name, {})
        stack, names, span_names = self._stack, self.name, self.names

        def counted(*args: Any, **kwargs: Any) -> Any:
            top = stack[-1]
            key = span_names[names[top]] if top >= 0 else ""
            cell = by_parent.get(key)
            if cell is None:
                cell = by_parent[key] = [0, 0.0]
            cell[0] += 1
            if weight is not None:
                cell[1] += weight(args)
            return original(*args, **kwargs)

        self._patch(owner, attr, counted, original)

    def record(self, owner: Any, attr: str, name: str, position: int) -> None:
        """Record positional argument ``position`` of every call of ``owner.attr``."""
        original = self._original(owner, attr)
        values = self.samples.setdefault(name, array("d"))

        def recorded(*args: Any, **kwargs: Any) -> Any:
            values.append(args[position])
            return original(*args, **kwargs)

        self._patch(owner, attr, recorded, original)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def tally_count(self, name: str, within: Optional[str] = None) -> Tuple[int, float]:
        """``(calls, weight)`` of a probe, optionally only inside span ``within``."""
        by_parent = self.tallies.get(name, {})
        cells = [by_parent[within]] if within in by_parent else (
            [] if within is not None else list(by_parent.values())
        )
        return int(sum(cell[0] for cell in cells)), float(sum(cell[1] for cell in cells))

    def _columns(self) -> Tuple[np.ndarray, ...]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        kind = np.frombuffer(self.is_async, dtype=np.int8)
        name = np.frombuffer(self.name, dtype=np.int32)
        return name, parent, kind, start, end

    def stats(self) -> SpanStats:
        """Self and total time per span name (spans must all have ended)."""
        name, parent, kind, start, end = self._columns()
        if np.any(end < start):
            raise RuntimeError("span log has unfinished spans")
        duration = end - start
        covered = np.zeros(len(duration))
        has_parent = parent >= 0
        sync_children = has_parent & (kind == 0)
        # Synchronous children never overlap: their parent's covered time
        # is the plain sum of their durations.
        np.add.at(covered, parent[sync_children], duration[sync_children])
        # Coroutine children may overlap (parallel legs): cover their union.
        async_children = np.flatnonzero(has_parent & (kind == 1))
        by_parent: Dict[int, List[Tuple[float, float]]] = {}
        for child in async_children.tolist():
            by_parent.setdefault(int(parent[child]), []).append((start[child], end[child]))
        for owner, intervals in by_parent.items():
            intervals.sort()
            union = 0.0
            run_start, run_end = intervals[0]
            for lo, hi in intervals[1:]:
                if lo > run_end:
                    union += run_end - run_start
                    run_start, run_end = lo, hi
                else:
                    run_end = max(run_end, hi)
            covered[owner] = union + run_end - run_start
        self_time = duration - covered
        result = SpanStats()
        result.sync_self_seconds = float(self_time[kind == 0].sum())
        count = np.bincount(name, minlength=len(self.names))
        self_sum = np.bincount(name, weights=self_time, minlength=len(self.names))
        total_sum = np.bincount(name, weights=duration, minlength=len(self.names))
        for name_id, span_name in enumerate(self.names):
            result.calls[span_name] = int(count[name_id])
            result.self_seconds[span_name] = float(self_sum[name_id])
            result.total_seconds[span_name] = float(total_sum[name_id])
        return result

    def count_children(self, parent_names: Tuple[str, ...], child_name: str) -> int:
        """Spans named ``child_name`` whose parent span is one of ``parent_names``."""
        name, parent, _kind, _start, _end = self._columns()
        wanted = {self._name_ids[n] for n in parent_names if n in self._name_ids}
        child_id = self._name_ids.get(child_name)
        if child_id is None or not wanted:
            return 0
        children = np.flatnonzero(name == child_id)
        owners = parent[children]
        owners = owners[owners >= 0]
        return int(np.isin(name[owners], list(wanted)).sum())

    def save(self, path: "Any") -> None:
        """Write the raw spans (and the name table) as one ``.npz`` file."""
        name, parent, kind, start, end = self._columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            is_async=kind,
            start=start,
            end=end,
        )
