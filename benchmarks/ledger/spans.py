"""Benchmark-side span recording for the served-path ledger.

The program under test is not edited: :class:`SpanRecorder` wraps bound
*public* methods on the live objects of a started service (and a few
classes, for calls that happen inside ``start()``) and records
``(name, start, end, parent, ordinal, section)`` in memory. Targets are
resolved by dotted path at run time, so a name a later PR deletes turns
into a warning and a ``null`` metric, never a crash.

A span's *self time* is its duration minus the part its child spans
cover. The loop under test is single-threaded, so children nest inside
their parent and never overlap each other: child coverage is the sum of
the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: name, start, end, parent index (-1 for a root), ordinal, section
Span = Tuple[str, float, float, int, int, str]


class SpanRecorder:
    """In-memory span store with a parent stack.

    ``ordinal`` and ``section`` are stamped on every span as it closes:
    the harness sets them before each batch or edit, so spans of one
    operation share its ordinal.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.warnings: List[str] = []
        self.ordinal = 0
        self.section = "setup"
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-side span around a call into the program."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), 0.0, parent, self.ordinal, self.section))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        name, start, _, parent, ordinal, section = self.spans[index]
        self.spans[index] = (name, start, end, parent, ordinal, section)
        self._stack.pop()

    # -- wrapping -----------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Callable[[Any], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``count`` maps the call's public return value to counter
        increments (``ExecutionStats.rule_evaluations`` and the like).
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if count is not None:
                for key, value in count(result).items():
                    recorder.counts[key] += value
            return result

        had_own = attr in getattr(owner, "__dict__", {})
        previous = owner.__dict__[attr] if had_own else None
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, previous, had_own))

    def wrap_path(
        self,
        base: Any,
        path: str,
        name: str,
        count: Optional[Callable[[Any], Dict[str, float]]] = None,
        on_class: bool = False,
    ) -> bool:
        """Resolve ``path`` from ``base`` and wrap its last component.

        ``base=None`` starts from an importable module
        (``"repro.chimera.pipeline:Chimera.retrain"``). Integer components
        index into sequences. ``on_class`` wraps the attribute on the
        resolved owner's class, for methods called on instances that do
        not exist yet (a resumed service). Returns False — after one
        warning — when any component is missing.
        """
        try:
            if base is None:
                module_name, _, path = path.partition(":")
                base = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            owner = base
            for part in owners:
                owner = owner[int(part)] if part.isdigit() else getattr(owner, part)
            if on_class:
                owner = type(owner)
            self.wrap(owner, attr, name, count)
            return True
        except (ImportError, AttributeError, IndexError, TypeError) as exc:
            self.warnings.append(f"span {name}: cannot wrap {path!r} ({exc})")
            return False

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (class-level wraps outlive a service)."""
        for owner, attr, previous, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- aggregation --------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time, index-aligned with :attr:`spans`."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(
        self,
        section: Optional[str] = None,
        min_ordinal: Optional[int] = None,
    ) -> Dict[str, Tuple[float, int]]:
        """``name -> (summed self seconds, span count)``, optionally
        restricted to one section and to ordinals from ``min_ordinal``."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for span, self_time in zip(self.spans, self.self_times()):
            if section is not None and span[5] != section:
                continue
            if min_ordinal is not None and span[4] < min_ordinal:
                continue
            slot = out[span[0]]
            slot[0] += self_time
            slot[1] += 1
        return {name: (value[0], int(value[1])) for name, value in out.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, ordinal, section in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "ordinal": ordinal, "section": section,
                }) + "\n")


def per_span_cost(repeats: int = 4000, rounds: int = 7) -> float:
    """Seconds one wrapped call adds, measured on a no-op.

    The calibration behind ``ledger.trace_overhead_share``: a traced run
    cannot also be its own untraced control, so the share is estimated as
    spans recorded × this cost. Each side is the fastest of ``rounds``
    loops, so a host stall during calibration does not read as overhead.
    """

    class _Target:
        def noop(self) -> None:
            return None

    bare = _Target()
    traced = _Target()
    SpanRecorder().wrap(traced, "noop", "calibration")
    fastest = []
    for target in (bare, traced):
        call = target.noop
        timings = []
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(repeats):
                call()
            timings.append(time.perf_counter() - started)
        fastest.append(min(timings))
    return max(0.0, fastest[1] - fastest[0]) / repeats
