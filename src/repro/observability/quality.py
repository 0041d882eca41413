"""Per-rule health windows and degradation alerting (§2.2's quality loop).

The never-ending pipeline's quality question is always *per rule*: which
rule's behaviour changed, and is that change making labels worse? This
module maintains the per-rule signals the paper's ongoing-system
requirements ask for, fed entirely from values the system already
computes (Chimera's provenance records and crowd verdicts):

* **fire rate** — fraction of batch items a rule fired on, kept as a
  sliding window of per-batch observations;
* **vote win-rate** — of the items a rule fired on, how often its vote
  became the final label (undefined until a labelled record arrives);
* **overlap** — co-fire counts with other rules, the §4 redundancy
  signal the per-rule crowd evaluator exploits;
* **precision estimates** — joined from
  :class:`~repro.evaluation.per_rule.PerRuleReport` crowd verdicts;
* **drift** — a baseline-vs-current detector that flags rules whose fire
  rate shifts anomalously between batches (a rule that suddenly stops
  firing after a vocabulary drift, or fires everywhere after a bad edit).

Degradations become :class:`RuleAlert` events fanned out to ``on_alert``
callbacks — the same subscription shape as
:class:`~repro.chimera.monitoring.StageHealthMonitor.on_breaker_open` —
and :meth:`~repro.chimera.incidents.IncidentManager.watch_quality` is the
one subscriber that turns them into rule-level incidents carrying the
offending rule ids.

Everything here is strictly observational: the tracker never feeds back
into classification, so labels and fired maps are byte-identical with
telemetry on or off.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.observability.provenance import ProvenanceRecord

#: The §2.2 quality bar: estimated precision at or above this is healthy.
PRECISION_FLOOR = 0.92


@dataclass(frozen=True)
class RuleAlert:
    """One degradation event naming the responsible rules.

    ``kind`` is ``"precision-floor"`` (crowd-estimated precision fell
    below the floor) or ``"fire-rate-drift"`` (current fire rate moved
    anomalously away from the frozen baseline).
    """

    kind: str
    rule_ids: Tuple[str, ...]
    batch_id: str
    detail: str


@dataclass(frozen=True)
class BatchHealth:
    """Per-rule activity observed over one batch."""

    batch_id: str
    n_items: int
    fires: Tuple[Tuple[str, int], ...]
    wins: Tuple[Tuple[str, int], ...] = ()
    has_votes: bool = False

    def fire_rate(self, rule_id: str) -> float:
        if not self.n_items:
            return 0.0
        return dict(self.fires).get(rule_id, 0) / self.n_items


@dataclass(frozen=True)
class RuleHealth:
    """The current health summary for one rule (see ``report()``)."""

    rule_id: str
    fires: int
    items_seen: int
    fire_rate: float
    baseline_rate: Optional[float]
    win_rate: Optional[float]
    precision: Optional[float]
    precision_low: Optional[float]
    precision_sample: int
    drifted: bool
    below_floor: bool
    top_overlap: Tuple[Tuple[str, int], ...]


class RuleHealthTracker:
    """Sliding-window per-rule health with baseline-drift detection.

    The tracker learns through exactly two doors:

    * :meth:`observe_record` per classified item (the provenance record
      Chimera writes) and :meth:`finish_batch` at batch boundaries — the
      only source of fire counts, wins and overlap, so every item of a
      batch, fired on or not, is in its denominator;
    * :meth:`ingest_precision` to join crowd verdicts from
      :class:`~repro.evaluation.per_rule.PerRuleCrowdEvaluator`.

    The first ``baseline_batches`` finished batches freeze the per-rule
    baseline fire rates; every later batch is compared against that
    baseline and rules whose rate moved by at least ``drift_min_delta``
    *and* by at least ``drift_tolerance`` of ``max(baseline, current)``
    are flagged. ``window`` bounds the retained per-batch history, so the
    tracker's memory is O(rules + window) regardless of run length.
    """

    def __init__(
        self,
        window: int = 8,
        baseline_batches: int = 3,
        precision_floor: float = PRECISION_FLOOR,
        drift_min_delta: float = 0.1,
        drift_tolerance: float = 0.5,
        metrics=None,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if baseline_batches < 1:
            raise ValueError(f"baseline_batches must be >= 1, got {baseline_batches}")
        if not 0.0 < precision_floor <= 1.0:
            raise ValueError(f"precision_floor must be in (0, 1], got {precision_floor}")
        self.window = window
        self.baseline_batches = baseline_batches
        self.precision_floor = precision_floor
        self.drift_min_delta = drift_min_delta
        self.drift_tolerance = drift_tolerance
        # Optional MetricsRegistry: alerts are mirrored as
        # rule_quality_alerts_total{kind=} counters (bounded label set).
        self.metrics = metrics

        self.batches: Deque[BatchHealth] = deque(maxlen=window)
        self.total_batches = 0
        self.total_items = 0
        self.total_fires: Counter = Counter()
        self.total_wins: Counter = Counter()
        # Co-fire pair counts, keyed by (rule, rule) tuples in arrival
        # orientation; overlap_for sums both orientations.
        self.overlap: Counter = Counter()
        self.precision_estimates: Dict[str, Tuple[float, float, float, int]] = {}
        self.baseline: Optional[Dict[str, float]] = None
        self.drifted_rules: Dict[str, str] = {}  # rule_id -> last drift detail
        self.alerts: List[RuleAlert] = []
        self.on_alert: List[Callable[[RuleAlert], None]] = []

        self._cur_fires: Counter = Counter()
        self._cur_wins: Counter = Counter()
        self._cur_items = 0
        self._cur_has_votes = False
        self._cur_records: List[ProvenanceRecord] = []

    # -- feeding -----------------------------------------------------------------

    def observe_record(self, record: ProvenanceRecord) -> None:
        """Queue one item's provenance record for the current batch.

        This runs once per classified item, so it does the cheapest thing
        possible — one list append — and :meth:`finish_batch` folds the
        whole batch with a handful of C-level ``Counter.update`` calls
        over chained iterables. Amortizing the per-call overhead across
        the batch is what keeps the tracker inside the 5% telemetry
        overhead budget (``benchmarks/bench_quality_overhead.py``).
        """
        self._cur_records.append(record)

    def _fold_pending(self) -> None:
        """Fold queued records into the current batch counters.

        Overlap pairs are stored in whatever orientation they arrive;
        :meth:`overlap_for` sums both orientations, so no per-item sort
        is needed.
        """
        records = self._cur_records
        if not records:
            return
        fired_tuples: List[Tuple[str, ...]] = []
        multi_fired: List[Tuple[str, ...]] = []
        win_tuples: List[Tuple[str, ...]] = []
        has_votes = self._cur_has_votes
        for record in records:
            fired = record.fired_rule_ids()
            if fired:
                fired_tuples.append(fired)
                if len(fired) > 1:
                    multi_fired.append(fired)
            if record.label is not None:
                has_votes = True
                winners = record.winning_rule_ids()
                if winners:
                    win_tuples.append(winners)
        if fired_tuples:
            self._cur_fires.update(chain.from_iterable(fired_tuples))
        if multi_fired:
            self.overlap.update(
                chain.from_iterable(combinations(f, 2) for f in multi_fired)
            )
        if win_tuples:
            self._cur_wins.update(chain.from_iterable(win_tuples))
        self._cur_items += len(records)
        self._cur_has_votes = has_votes
        self._cur_records = []

    def finish_batch(
        self, batch_id: str, n_items: Optional[int] = None
    ) -> BatchHealth:
        """Close the current batch window and run the drift check."""
        self._fold_pending()
        items = self._cur_items if n_items is None else n_items
        batch = BatchHealth(
            batch_id=batch_id,
            n_items=items,
            fires=tuple(sorted(self._cur_fires.items())),
            wins=tuple(sorted(self._cur_wins.items())),
            has_votes=self._cur_has_votes,
        )
        self.batches.append(batch)
        self.total_batches += 1
        self.total_items += items
        self.total_fires.update(self._cur_fires)
        self.total_wins.update(self._cur_wins)
        self._cur_fires = Counter()
        self._cur_wins = Counter()
        self._cur_items = 0
        self._cur_has_votes = False

        if self.baseline is None:
            if self.total_batches >= self.baseline_batches:
                self._freeze_baseline()
        else:
            self._check_drift(batch)
        return batch

    def _freeze_baseline(self) -> None:
        """Baseline = mean fire rate over the first ``baseline_batches``."""
        rates: Dict[str, List[float]] = {}
        observed = list(self.batches)[-self.baseline_batches:]
        for batch in observed:
            for rule_id, fires in batch.fires:
                rates.setdefault(rule_id, [])
        for batch in observed:
            by_rule = dict(batch.fires)
            for rule_id in rates:
                if batch.n_items:
                    rates[rule_id].append(by_rule.get(rule_id, 0) / batch.n_items)
        self.baseline = {
            rule_id: (sum(values) / len(values)) if values else 0.0
            for rule_id, values in rates.items()
        }

    def set_baseline(self, baseline: Dict[str, float]) -> None:
        """Pin the baseline explicitly (e.g. from a blessed golden run)."""
        self.baseline = dict(baseline)

    def _check_drift(self, batch: BatchHealth) -> None:
        assert self.baseline is not None
        if not batch.n_items:
            return
        offenders: List[Tuple[str, str]] = []
        by_rule = dict(batch.fires)
        for rule_id in sorted(set(self.baseline) | set(by_rule)):
            base = self.baseline.get(rule_id, 0.0)
            current = by_rule.get(rule_id, 0) / batch.n_items
            delta = abs(current - base)
            scale = max(base, current)
            if delta >= self.drift_min_delta and scale > 0 and (
                delta / scale >= self.drift_tolerance
            ):
                detail = f"fire rate {base:.3f} -> {current:.3f}"
                offenders.append((rule_id, detail))
                self.drifted_rules[rule_id] = detail
        if offenders:
            self._emit(RuleAlert(
                kind="fire-rate-drift",
                rule_ids=tuple(rule_id for rule_id, _ in offenders),
                batch_id=batch.batch_id,
                detail="; ".join(
                    f"{rule_id}: {detail}" for rule_id, detail in offenders
                ),
            ))

    def ingest_precision(self, report, batch_id: str = "crowd") -> List[str]:
        """Join a :class:`PerRuleReport`'s crowd estimates; returns breaches.

        Every estimate is retained (``precision``, Wilson ``low``/``high``,
        sample size); rules whose point estimate falls below the precision
        floor raise one combined ``precision-floor`` alert naming them all.
        """
        breaches: List[str] = []
        for rule_id, estimate in sorted(report.estimates.items()):
            self.precision_estimates[rule_id] = (
                estimate.precision, estimate.low, estimate.high, estimate.sample_size,
            )
            if estimate.precision < self.precision_floor:
                breaches.append(rule_id)
        if breaches:
            rendered = ", ".join(
                f"{rule_id}={self.precision_estimates[rule_id][0]:.2f}"
                for rule_id in breaches
            )
            self._emit(RuleAlert(
                kind="precision-floor",
                rule_ids=tuple(breaches),
                batch_id=batch_id,
                detail=(
                    f"precision below floor {self.precision_floor:.2f}: {rendered}"
                ),
            ))
        return breaches

    def _emit(self, alert: RuleAlert) -> None:
        self.alerts.append(alert)
        if self.metrics is not None:
            self.metrics.counter("rule_quality_alerts_total", kind=alert.kind).inc()
        for callback in list(self.on_alert):
            callback(alert)

    # -- the whole state, comparable ---------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the full tracker state.

        The tracker is a pure fold over the records and batch boundaries
        it was fed, so nothing loads this back: the durable service
        rebuilds its tracker by replaying its provenance spool, and this
        document (part of its identity surface) is how two trackers are
        proved equal. Pending (``_cur_*``) accumulators are folded and
        included, so a mid-batch snapshot loses nothing. ``on_alert``
        callbacks and the ``metrics`` registry are not part of the state.
        """
        self._fold_pending()
        return {
            "window": self.window,
            "baseline_batches": self.baseline_batches,
            "precision_floor": self.precision_floor,
            "drift_min_delta": self.drift_min_delta,
            "drift_tolerance": self.drift_tolerance,
            "batches": [
                {
                    "batch_id": b.batch_id,
                    "n_items": b.n_items,
                    "fires": [list(pair) for pair in b.fires],
                    "wins": [list(pair) for pair in b.wins],
                    "has_votes": b.has_votes,
                }
                for b in self.batches
            ],
            "total_batches": self.total_batches,
            "total_items": self.total_items,
            "total_fires": dict(sorted(self.total_fires.items())),
            "total_wins": dict(sorted(self.total_wins.items())),
            "overlap": [
                [left, right, count]
                for (left, right), count in sorted(self.overlap.items())
            ],
            "precision_estimates": {
                rule_id: list(estimate)
                for rule_id, estimate in sorted(self.precision_estimates.items())
            },
            "baseline": (
                dict(sorted(self.baseline.items()))
                if self.baseline is not None else None
            ),
            "drifted_rules": dict(sorted(self.drifted_rules.items())),
            "alerts": [
                {
                    "kind": a.kind,
                    "rule_ids": list(a.rule_ids),
                    "batch_id": a.batch_id,
                    "detail": a.detail,
                }
                for a in self.alerts
            ],
            "cur_fires": dict(sorted(self._cur_fires.items())),
            "cur_wins": dict(sorted(self._cur_wins.items())),
            "cur_items": self._cur_items,
            "cur_has_votes": self._cur_has_votes,
            # Always 0; kept so service identity documents stay comparable
            # with those written by earlier commits.
            "auto_batch": 0,
        }

    # -- queries -----------------------------------------------------------------

    def windowed_items(self) -> int:
        return sum(batch.n_items for batch in self.batches)

    def fire_rate(self, rule_id: str) -> float:
        """Fire rate over the retained window (fires / items)."""
        items = self.windowed_items()
        if not items:
            return 0.0
        fires = sum(dict(batch.fires).get(rule_id, 0) for batch in self.batches)
        return fires / items

    def win_rate(self, rule_id: str) -> Optional[float]:
        """Windowed wins / fires, or None when no vote feed exists."""
        if not any(batch.has_votes for batch in self.batches):
            return None
        fires = sum(dict(batch.fires).get(rule_id, 0) for batch in self.batches)
        if not fires:
            return None
        wins = sum(dict(batch.wins).get(rule_id, 0) for batch in self.batches)
        return wins / fires

    def overlap_for(self, rule_id: str, top: int = 5) -> List[Tuple[str, int]]:
        """The rules this rule co-fires with most, strongest first."""
        partners: Counter = Counter()
        for (left, right), count in self.overlap.items():
            if left == rule_id:
                partners[right] += count
            elif right == rule_id:
                partners[left] += count
        return partners.most_common(top)

    def rules_below_floor(self) -> List[str]:
        return sorted(
            rule_id
            for rule_id, (precision, _low, _high, _n) in self.precision_estimates.items()
            if precision < self.precision_floor
        )

    def seen_rules(self) -> List[str]:
        seen = set(self.total_fires) | set(self.precision_estimates)
        if self.baseline:
            seen |= set(self.baseline)
        return sorted(seen)

    def health(self, rule_id: str) -> RuleHealth:
        estimate = self.precision_estimates.get(rule_id)
        return RuleHealth(
            rule_id=rule_id,
            fires=self.total_fires.get(rule_id, 0),
            items_seen=self.total_items,
            fire_rate=self.fire_rate(rule_id),
            baseline_rate=(
                self.baseline.get(rule_id) if self.baseline is not None else None
            ),
            win_rate=self.win_rate(rule_id),
            precision=estimate[0] if estimate else None,
            precision_low=estimate[1] if estimate else None,
            precision_sample=estimate[3] if estimate else 0,
            drifted=rule_id in self.drifted_rules,
            below_floor=(
                estimate is not None and estimate[0] < self.precision_floor
            ),
            top_overlap=tuple(self.overlap_for(rule_id, top=3)),
        )

    def report(self) -> Dict[str, Dict[str, object]]:
        """Per-rule health as plain dicts (the JSON export shape)."""
        out: Dict[str, Dict[str, object]] = {}
        for rule_id in self.seen_rules():
            health = self.health(rule_id)
            out[rule_id] = {
                "fires": health.fires,
                "fire_rate": round(health.fire_rate, 6),
                "baseline_rate": (
                    round(health.baseline_rate, 6)
                    if health.baseline_rate is not None else None
                ),
                "win_rate": (
                    round(health.win_rate, 6) if health.win_rate is not None else None
                ),
                "precision": health.precision,
                "precision_low": health.precision_low,
                "precision_sample": health.precision_sample,
                "drifted": health.drifted,
                "below_floor": health.below_floor,
                "top_overlap": [list(pair) for pair in health.top_overlap],
            }
        return out


__all__ = [
    "BatchHealth",
    "PRECISION_FLOOR",
    "RuleAlert",
    "RuleHealth",
    "RuleHealthTracker",
]
