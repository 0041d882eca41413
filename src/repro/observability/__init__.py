"""Unified observability: tracing + metrics + profiling hooks (§2.2/§4).

The paper's ongoing-system requirements boil down to *visibility*: before
an analyst can scale down, repair, or even trust a never-ending rule
pipeline, they must see which rules fire, which stages degrade, and where
time goes. This package is that one instrumented path:

* :mod:`~repro.observability.tracer` — nested spans over an injectable
  monotonic clock, with ``on_span_end`` profiling hooks;
* :mod:`~repro.observability.metrics` — counters/gauges/histograms fed by
  the existing accounting objects (``ExecutionStats``, stage health,
  the text caches) rather than duplicating them;
* :mod:`~repro.observability.exporters` — JSON-lines and Chrome-trace
  dumps plus the CLI's plain-text reports;
* :mod:`~repro.observability.provenance` — the per-label attribution
  chain (``why(item_id)`` / ``blame(rule_id)``) in a bounded ring buffer;
* :mod:`~repro.observability.quality` — per-rule health windows (fire
  rate, win-rate, overlap, crowd precision) folded from the provenance
  records alone, with drift/precision-floor alerts that
  :meth:`~repro.chimera.incidents.IncidentManager.watch_quality` turns
  into incidents.

A :class:`~repro.chimera.pipeline.Chimera` holds its provenance log and
health tracker itself (``enable_quality_telemetry``).
:class:`Observability` bundles one tracer and one registry, which is the
object executors, the Chimera pipeline, the synonym session, and the
rulegen pipeline accept (``observability=``). Passing nothing costs
(almost) nothing: the shared :data:`NULL_OBSERVABILITY` records no spans
and no metrics, and instrumentation never changes results — fired maps
are byte-identical with observability on or off.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro import lazy_exports
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.provenance import (
    ProvenanceLog,
    ProvenanceRecord,
    StageTrace,
)
from repro.observability.quality import (
    PRECISION_FLOOR,
    RuleAlert,
    RuleHealth,
    RuleHealthTracker,
)
from repro.observability.tracer import NULL_TRACER, Span, Tracer

# Read on first access (:func:`repro.lazy_exports`): a served daemon never
# reads these names, so it never compiles their modules.
__getattr__ = lazy_exports(__name__, {
    "exporters": (
        "chrome_trace_events",
        "health_snapshot",
        "render_health_report",
        "render_report",
        "render_span_tree",
        "span_to_dict",
        "write_chrome_trace",
        "write_health_json",
        "write_trace_jsonl",
    ),
})


class Observability:
    """One tracer + one metrics registry, bundled for threading through.

    ``clock`` feeds the tracer (default :func:`time.perf_counter`); tests
    pass a :class:`repro.utils.clock.TickClock` for deterministic spans.
    A disabled instance (``enabled=False``) short-circuits both sides.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.tracer = Tracer(clock=clock, enabled=enabled)
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attributes: object):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attributes)

    def observe_execution(self, stats, executor: str) -> None:
        """Feed run stats to the registry (no-op when disabled)."""
        if self.enabled:
            self.metrics.observe_execution(stats, executor=executor)

    def observe_fired(self, fired) -> None:
        """Feed per-rule fire counts to the registry (no-op when disabled)."""
        if self.enabled:
            self.metrics.observe_fired(fired)

    def report(self, title: str = "observability report") -> str:
        """Plain-text span tree + metrics dump."""
        from repro.observability import exporters

        return exporters.render_report(self.tracer, self.metrics, title=title)

    def write_chrome_trace(self, target) -> int:
        from repro.observability import exporters

        return exporters.write_chrome_trace(self.tracer.spans, target)

    def write_trace_jsonl(self, target) -> int:
        from repro.observability import exporters

        return exporters.write_trace_jsonl(self.tracer.spans, target)


#: Shared disabled instance: the default for every instrumented component.
NULL_OBSERVABILITY = Observability(enabled=False)


def ensure_observability(observability: Optional[Observability]) -> Observability:
    """``observability`` itself, or the shared disabled instance."""
    return observability if observability is not None else NULL_OBSERVABILITY


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVABILITY",
    "NULL_TRACER",
    "Observability",
    "PRECISION_FLOOR",
    "ProvenanceLog",
    "ProvenanceRecord",
    "RuleAlert",
    "RuleHealth",
    "RuleHealthTracker",
    "Span",
    "StageTrace",
    "Tracer",
    "chrome_trace_events",
    "ensure_observability",
    "health_snapshot",
    "render_health_report",
    "render_report",
    "render_span_tree",
    "span_to_dict",
    "write_chrome_trace",
    "write_health_json",
    "write_trace_jsonl",
]
