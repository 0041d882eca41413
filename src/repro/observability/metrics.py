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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

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

    __slots__ = ("name", "labels", "rendered", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.rendered = _render_name(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depth, breaker state)."""

    __slots__ = ("name", "labels", "rendered", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.rendered = _render_name(name, labels)
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

    __slots__ = ("name", "labels", "rendered", "buckets", "bucket_counts",
                 "count", "sum", "min", "max")

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
        self.rendered = _render_name(name, labels)
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

#: The per-rule counter family :meth:`MetricsRegistry.observe_rule_fires` feeds.
RULE_FIRED_TOTAL = "rule_fired_total"


#: A family's key: ``(name, label keys, histogram buckets or None)``.
FamilyKey = Tuple[str, Tuple[str, ...], Optional[Tuple[float, ...]]]


class _Instruments(dict):
    """One kind of instrument by ``(name, labels)`` key, plus what every
    export walks — the key-sorted order and its grouping into families —
    built again only after an instrument is created."""

    __slots__ = ("_ordered", "_families")

    def __init__(self) -> None:
        super().__init__()
        self._ordered: Optional[list] = None
        self._families: Optional[Dict[FamilyKey, List[Tuple[list, Any]]]] = None

    def add(self, key: Tuple[str, LabelItems], instrument):
        self[key] = instrument
        self._ordered = self._families = None
        return instrument

    def ordered(self) -> list:
        if self._ordered is None:
            self._ordered = [self[key] for key in sorted(self)]
        return self._ordered

    def families(self) -> Dict[FamilyKey, List[Tuple[list, Any]]]:
        """``family key -> [(label values, instrument), …]`` in key order."""
        if self._families is None:
            families: Dict[FamilyKey, List[Tuple[list, Any]]] = {}
            for instrument in self.ordered():
                family = (
                    instrument.name,
                    tuple(key for key, _ in instrument.labels),
                    getattr(instrument, "buckets", None),
                )
                families.setdefault(family, []).append(
                    ([value for _, value in instrument.labels], instrument)
                )
            self._families = families
        return self._families


def _section(state: Dict[str, Any], key: str) -> Any:
    if not isinstance(state, dict) or key not in state:
        raise ValueError(f"checkpoint field 'metrics.{key}' is missing")
    return state[key]


def _load_families(
    state: Dict[str, Any], kind: str, tail_width: int, family_extras: int = 0
) -> Iterator[Tuple[str, str, LabelItems, list, list]]:
    """Decode one kind's families: ``(field, name, labels, row tail,
    family extras)`` per row, refusing any family or row whose shape does
    not match, with the field named."""
    families = _section(state, kind)
    if not isinstance(families, list):
        raise ValueError(f"checkpoint field 'metrics.{kind}' is not a list of families")
    for index, family in enumerate(families):
        where = f"metrics.{kind}[{index}]"
        if not (
            isinstance(family, list)
            and 3 <= len(family) <= 3 + family_extras
            and isinstance(family[1], list)
            and isinstance(family[2], list)
        ):
            raise ValueError(
                f"checkpoint field {where!r} is not [name, label_keys, rows]"
            )
        name, keys, rows, *extras = family
        width = len(keys) + tail_width
        for position, row in enumerate(rows):
            field = f"{where}.rows[{position}]"
            if not isinstance(row, list) or len(row) != width:
                raise ValueError(
                    f"checkpoint field {field!r} has "
                    f"{len(row) if isinstance(row, list) else 'no'} values; family "
                    f"{name!r} with label keys {keys} needs {width}"
                )
            labels = tuple(sorted(zip(keys, map(str, row[:len(keys)]))))
            yield field, name, labels, row[len(keys):], extras


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
        self._counters = _Instruments()
        self._gauges = _Instruments()
        self._histograms = _Instruments()
        self.max_rule_labels = max_rule_labels
        self._rule_label_ids: set = set()

    # -- instrument access --------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters.add(key, Counter(name, key[1]))
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges.add(key, Gauge(name, key[1]))
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
            instrument = self._histograms.add(key, Histogram(name, key[1], buckets))
        return instrument

    def series(self, name: str) -> Dict[str, Counter]:
        """All children of a labelled counter family, by rendered name."""
        return {
            counter.rendered: counter
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
            self.counter(RULE_FIRED_TOTAL, rule_id=self.rule_label(rule_id)).inc(
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
            counter.rendered: counter.value for counter in self._counters.ordered()
        }
        gauges = {gauge.rendered: gauge.value for gauge in self._gauges.ordered()}
        histograms = {
            hist.rendered: {
                "count": hist.count,
                "sum": hist.sum,
                "mean": hist.mean,
                "min": hist.min,
                "max": hist.max,
            }
            for hist in self._histograms.ordered()
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

    def _rule_label_series(self) -> set:
        """The rule ids that own a ``rule_fired_total{rule_id=…}`` series."""
        family = self._counters.families().get(
            (RULE_FIRED_TOTAL, ("rule_id",), None), ()
        )
        return {values[0] for values, _ in family}

    def dump(self) -> Dict[str, object]:
        """Full-fidelity, JSON-safe registry state for checkpointing.

        Unlike :meth:`snapshot` (the human/report view, which collapses
        histograms to summaries), this keeps bucket counts so :meth:`load`
        reconstructs instruments exactly — a resumed daemon continues
        accumulating where the crashed one stopped. Instruments are
        written as columns: one ``[name, label_keys, rows]`` family per
        name and label-key set, a row ``[label values…, value]`` (a
        histogram's ``[label values…, bucket_counts, count, sum, min,
        max]``, its family followed by ``buckets`` when they are not
        :data:`DEFAULT_BUCKETS`). The rule-label admission set is not
        written: :meth:`load` derives it from the ``rule_fired_total``
        series, and ``rule_label_exceptions`` holds only where the two
        differ — admitted ids without a series, series ids never admitted
        (``__other__``) — so the codec is lossless whatever the registry
        holds.
        """
        return {
            "max_rule_labels": self.max_rule_labels,
            "rule_label_exceptions": sorted(
                self._rule_label_ids ^ self._rule_label_series()
            ),
            "counters": [
                [name, list(keys), [values + [counter.value] for values, counter in rows]]
                for (name, keys, _), rows in self._counters.families().items()
            ],
            "gauges": [
                [name, list(keys), [values + [gauge.value] for values, gauge in rows]]
                for (name, keys, _), rows in self._gauges.families().items()
            ],
            "histograms": [
                [
                    name,
                    list(keys),
                    [
                        values + [
                            list(hist.bucket_counts),
                            hist.count, hist.sum, hist.min, hist.max,
                        ]
                        for values, hist in rows
                    ],
                    *([] if buckets == DEFAULT_BUCKETS else [list(buckets)]),
                ]
                for (name, keys, buckets), rows in self._histograms.families().items()
            ],
        }

    @classmethod
    def load(cls, state: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`dump` form; a missing field
        or a row of the wrong shape raises ``ValueError`` naming it."""
        registry = cls(max_rule_labels=_section(state, "max_rule_labels"))
        for _, name, labels, (value,), _ in _load_families(state, "counters", 1):
            registry._counters.add((name, labels), Counter(name, labels)).value = value
        for _, name, labels, (value,), _ in _load_families(state, "gauges", 1):
            registry._gauges.add((name, labels), Gauge(name, labels)).value = value
        for where, name, labels, row, buckets in _load_families(
            state, "histograms", 5, family_extras=1
        ):
            hist = Histogram(name, labels, *buckets)
            bucket_counts, hist.count, hist.sum, hist.min, hist.max = row
            if len(bucket_counts) != len(hist.buckets) + 1:
                raise ValueError(
                    f"checkpoint field {where!r} has {len(bucket_counts)} bucket "
                    f"counts for {len(hist.buckets)} buckets (expected "
                    f"{len(hist.buckets) + 1})"
                )
            hist.bucket_counts = list(bucket_counts)
            registry._histograms.add((name, labels), hist)
        registry._rule_label_ids = registry._rule_label_series() ^ set(
            _section(state, "rule_label_exceptions")
        )
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
