"""Counters, gauges, and histograms for the rule system's vitals.

One :class:`MetricsRegistry` per deployment (or per test) collects the
signals §2.2/§4 say an analyst must be able to see before they can scale
down or repair: rules evaluated and fired (per rule), cache hit rates,
retries, breaker states, stage health. Existing accounting objects feed
the registry instead of duplicating it:

* :meth:`MetricsRegistry.observe_execution` folds an
  :class:`~repro.execution.executor.ExecutionStats` in after a run/delta;
* :meth:`MetricsRegistry.observe_text_cache` snapshots the bounded
  tokenizer/normalizer LRU caches (:func:`repro.utils.text.cache_stats`),
  so a long-running incremental session has a memory-pressure signal;
* :class:`~repro.chimera.monitoring.StageHealthMonitor` mirrors stage
  successes/failures and breaker states when given a registry.

Instruments are cheap plain-Python objects; names follow a
``<subsystem>_<what>_total`` convention with optional label sets
(``registry.counter("rule_fired_total", rule_id="r-1")``), documented in
DESIGN.md §8.

>>> registry = MetricsRegistry()
>>> registry.counter("rules_fired_total").inc(3)
>>> registry.counter("rules_fired_total").value
3
>>> registry.gauge("breaker_state", stage="learning").set(2)
>>> sorted(registry.snapshot()["gauges"])
['breaker_state{stage=learning}']
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured, log-ish scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def _labels_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_name(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depth, breaker state)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bucketed observations (durations, batch sizes).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the last
    slot is the overflow bucket. ``sum``/``count``/``min``/``max`` give
    the summary view reports print.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be a sorted non-empty sequence: {buckets}")
        self.name = name
        self.labels = labels
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


#: Default cap on distinct ``rule_id`` label values (see ``observe_rule_fires``).
DEFAULT_MAX_RULE_LABELS = 512

#: The catch-all label value for rules beyond the cardinality cap.
OTHER_RULE_LABEL = "__other__"


class MetricsRegistry:
    """Named, optionally-labelled instruments, created on first touch.

    ``max_rule_labels`` bounds the per-rule label cardinality of
    :meth:`observe_rule_fires`: a 10k-rule ruleset must not mint 10k counter
    series. The first ``max_rule_labels`` distinct rule ids (highest
    fire counts first within each call) get their own
    ``rule_fired_total{rule_id=}`` series; everything beyond the cap
    aggregates into the ``__other__`` bucket, so totals are conserved
    while the instrument table stays bounded.
    """

    def __init__(self, max_rule_labels: int = DEFAULT_MAX_RULE_LABELS) -> None:
        if max_rule_labels < 1:
            raise ValueError(f"max_rule_labels must be >= 1, got {max_rule_labels}")
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self.max_rule_labels = max_rule_labels
        self._rule_label_ids: set = set()

    # -- instrument access --------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], buckets)
        return instrument

    def series(self, name: str) -> Dict[str, Counter]:
        """All children of a labelled counter family, by rendered name."""
        return {
            _render_name(name, key[1]): counter
            for key, counter in self._counters.items()
            if key[0] == name
        }

    # -- feeders ------------------------------------------------------------------

    def observe_execution(self, stats, executor: str = "unknown") -> None:
        """Fold one run's/delta's :class:`ExecutionStats` into the registry.

        The stats object stays the per-run source of truth; the registry
        accumulates across runs (the long-running deployment view). Time
        splits land on histograms so degradation shows up as a shifting
        distribution, not just a growing total.
        """
        self.counter("exec_runs_total", executor=executor).inc()
        self.counter("exec_items_total", executor=executor).inc(stats.items)
        self.counter("exec_rule_evaluations_total", executor=executor).inc(
            stats.rule_evaluations
        )
        self.counter("exec_matches_total", executor=executor).inc(stats.matches)
        self.counter("exec_retries_total", executor=executor).inc(stats.retries)
        self.counter("exec_skipped_items_total", executor=executor).inc(
            stats.skipped_items
        )
        self.counter("exec_cache_hits_total", executor=executor).inc(stats.cache_hits)
        self.counter("exec_cache_misses_total", executor=executor).inc(
            stats.cache_misses
        )
        self.counter("exec_invalidations_total", executor=executor).inc(
            stats.invalidations
        )
        self.counter("exec_delta_rules_total", executor=executor).inc(stats.delta_rules)
        self.counter("exec_delta_items_total", executor=executor).inc(stats.delta_items)
        self.histogram("exec_wall_seconds", executor=executor).observe(stats.wall_time)
        self.histogram("exec_prepare_seconds", executor=executor).observe(
            stats.prepare_time
        )
        self.histogram("exec_match_seconds", executor=executor).observe(
            stats.match_time
        )

    def rule_label(self, rule_id: str) -> str:
        """The bounded label value for one rule id (top-K + ``__other__``).

        Admission is first-come once the registry exists, so a rule that
        already owns a series keeps it for the life of the registry — a
        counter must never split across two label values.
        """
        if rule_id in self._rule_label_ids:
            return rule_id
        if len(self._rule_label_ids) < self.max_rule_labels:
            self._rule_label_ids.add(rule_id)
            return rule_id
        return OTHER_RULE_LABEL

    def observe_fired(self, fired: Dict[str, List[str]]) -> None:
        """Accumulate per-rule fire counts from one whole fired map (a
        batch executor's run)."""
        totals: Dict[str, int] = {}
        for rule_ids in fired.values():
            for rule_id in rule_ids:
                totals[rule_id] = totals.get(rule_id, 0) + 1
        self.observe_rule_fires(totals)

    def observe_rule_fires(self, fires: Dict[str, int]) -> None:
        """Add ``rule_id -> count`` to ``rule_fired_total``.

        Per-rule series are cardinality-bounded: within each call the
        hottest not-yet-admitted rules claim the remaining label slots
        (count-descending, id-ascending for determinism); the rest fold
        into ``rule_fired_total{rule_id=__other__}``.
        """
        ranked = sorted(fires.items(), key=lambda kv: (-kv[1], kv[0]))
        for rule_id, count in ranked:
            self.counter("rule_fired_total", rule_id=self.rule_label(rule_id)).inc(
                count
            )

    def observe_text_cache(self) -> None:
        """Snapshot the bounded tokenizer/normalizer LRU caches as gauges.

        Surfaces the §2.2 "never-ending session" memory signal: a cache
        pinned at ``maxsize`` with a falling hit rate means the vocabulary
        outgrew the bound — an operator signal, not a silent OOM.
        """
        from repro.utils.text import cache_stats

        for fn_name, info in cache_stats().items():
            for stat_name, value in info.items():
                self.gauge(f"text_cache_{stat_name}", fn=fn_name).set(value)

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict view of every instrument (stable key order)."""
        counters = {
            _render_name(*key): counter.value
            for key, counter in sorted(self._counters.items())
        }
        gauges = {
            _render_name(*key): gauge.value
            for key, gauge in sorted(self._gauges.items())
        }
        histograms = {
            _render_name(*key): {
                "count": hist.count,
                "sum": hist.sum,
                "mean": hist.mean,
                "min": hist.min,
                "max": hist.max,
            }
            for key, hist in sorted(self._histograms.items())
        }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def delta(
        self,
        prev: Dict[str, Dict[str, object]],
        current: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> Dict[str, Dict[str, object]]:
        """What changed since ``prev`` (a prior :meth:`snapshot`).

        Copy-free with respect to the instruments: reads values, never
        resets them, so a poller can sample every N batches without
        perturbing the registry (counters keep accumulating). Counters
        report the increase since ``prev`` (new series count from zero);
        gauges report their current value (a gauge has no rate); histogram
        entries report the observation count/sum added in the interval,
        with the interval mean derived from those. ``current`` is a
        :meth:`snapshot` the caller already holds; without it one is taken.
        """
        snap = current if current is not None else self.snapshot()
        prev_counters = prev.get("counters", {})
        counters = {
            name: value - prev_counters.get(name, 0)
            for name, value in snap["counters"].items()
        }
        prev_hists = prev.get("histograms", {})
        histograms: Dict[str, object] = {}
        for name, summary in snap["histograms"].items():
            before = prev_hists.get(name, {})
            d_count = summary["count"] - before.get("count", 0)
            d_sum = summary["sum"] - before.get("sum", 0.0)
            histograms[name] = {
                "count": d_count,
                "sum": d_sum,
                "mean": d_sum / d_count if d_count else 0.0,
            }
        return {
            "counters": counters,
            "gauges": dict(snap["gauges"]),
            "histograms": histograms,
        }

    def dump(self) -> Dict[str, object]:
        """Full-fidelity, JSON-safe registry state for checkpointing.

        Unlike :meth:`snapshot` (the human/report view, which collapses
        histograms to summaries), this keeps bucket bounds and counts so
        :meth:`load` reconstructs instruments exactly — a resumed daemon
        continues accumulating where the crashed one stopped.
        """
        return {
            "max_rule_labels": self.max_rule_labels,
            "rule_label_ids": sorted(self._rule_label_ids),
            "counters": [
                {"name": key[0], "labels": [list(kv) for kv in key[1]],
                 "value": counter.value}
                for key, counter in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": key[0], "labels": [list(kv) for kv in key[1]],
                 "value": gauge.value}
                for key, gauge in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": key[0],
                    "labels": [list(kv) for kv in key[1]],
                    "buckets": list(hist.buckets),
                    "bucket_counts": list(hist.bucket_counts),
                    "count": hist.count,
                    "sum": hist.sum,
                    "min": hist.min,
                    "max": hist.max,
                }
                for key, hist in sorted(self._histograms.items())
            ],
        }

    @classmethod
    def load(cls, state: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`dump` form."""
        registry = cls(max_rule_labels=state.get("max_rule_labels",
                                                 DEFAULT_MAX_RULE_LABELS))
        registry._rule_label_ids = set(state.get("rule_label_ids", ()))
        for entry in state.get("counters", ()):
            labels = tuple((k, v) for k, v in entry["labels"])
            counter = Counter(entry["name"], labels)
            counter.value = entry["value"]
            registry._counters[(entry["name"], labels)] = counter
        for entry in state.get("gauges", ()):
            labels = tuple((k, v) for k, v in entry["labels"])
            gauge = Gauge(entry["name"], labels)
            gauge.value = entry["value"]
            registry._gauges[(entry["name"], labels)] = gauge
        for entry in state.get("histograms", ()):
            labels = tuple((k, v) for k, v in entry["labels"])
            hist = Histogram(entry["name"], labels, entry["buckets"])
            hist.bucket_counts = list(entry["bucket_counts"])
            hist.count = entry["count"]
            hist.sum = entry["sum"]
            hist.min = entry["min"]
            hist.max = entry["max"]
            registry._histograms[(entry["name"], labels)] = hist
        return registry

    def report_lines(self) -> List[str]:
        """Plain-text rows for the CLI report (sorted, diff-friendly)."""
        snapshot = self.snapshot()
        lines: List[str] = []
        for name, value in snapshot["counters"].items():
            lines.append(f"counter   {name} = {value}")
        for name, value in snapshot["gauges"].items():
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"gauge     {name} = {rendered}")
        for name, summary in snapshot["histograms"].items():
            lines.append(
                f"histogram {name} count={summary['count']} "
                f"sum={summary['sum']:.6f} mean={summary['mean']:.6f}"
            )
        return lines
