"""Unit tests for the rule-quality telemetry subsystem.

Covers the provenance layer (ring buffer, write-ahead spool, why/blame),
the per-rule health tracker (windows, baseline drift, precision joins,
alert fan-out), the incident wiring (watch_quality auto-open, scale-down
policy, rule-level scale-down/restore), the bounded-history satellites (PrecisionMonitor
retention, MetricsRegistry label cardinality), and the ``repro monitor``
CLI. The cross-cutting byte-identity properties live in
``tests/test_quality_properties.py``.
"""

from __future__ import annotations

import io
import json
import pathlib
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chimera import Chimera
from repro.chimera.incidents import IncidentManager
from repro.chimera.monitoring import PrecisionMonitor
from repro.core import parse_rules
from repro.observability.metrics import (
    DEFAULT_MAX_RULE_LABELS,
    OTHER_RULE_LABEL,
    MetricsRegistry,
)
from repro.observability.provenance import (
    ProvenanceLog,
    ProvenanceRecord,
    StageTrace,
    render_record,
    vote_rule_id,
)
from repro.observability.quality import RuleAlert, RuleHealthTracker

GOLDEN = pathlib.Path(__file__).parent / "golden"


def make_record(
    item_id,
    label,
    *,
    seq=0,
    batch_id="b0",
    source="pipeline",
    stages=(),
    ranked=(),
    final=None,
    filter_fired=(),
    filter_vetoed=(),
):
    return ProvenanceRecord(
        seq,
        item_id,
        batch_id,
        label,
        source,
        "classify",
        "",
        tuple(stages),
        tuple(ranked),
        final,
        tuple(filter_fired),
        tuple(filter_vetoed),
    )


# Ids for the ring-equivalence property: ``r1`` is a prefix of ``r10``,
# ``rings`` is a rule and a type, ``ring`` is a prefix of that type, ``r1``
# is also a label and an item, and five ids need JSON escapes.
_RING_RULES = ("r1", "r10", "rings", "ring", 'q"uote', "back\\slash", "règle-ü")
_RING_LABELS = ("rings", "jeans", "r1", None)
_RING_ITEMS = ("a", "b", 'i"tem', "é", "r1")
_RING_NEEDLES = _RING_RULES + ("jeans", "missing")


def rule_trace(stage, fired, label=None, weight=1.0):
    votes = (
        tuple((label, weight, f"{stage}:{rule_id}") for rule_id in fired)
        if label is not None
        else ()
    )
    return StageTrace(stage, tuple(fired), votes)


def observe_batch(tracker, fired, batch_id="b0"):
    """One finished batch of unlabelled records, item ``i`` firing
    ``fired[i]`` — the tracker's only feed, written out by hand."""
    for item_id, rule_ids in fired.items():
        tracker.observe_record(make_record(
            item_id, None, batch_id=batch_id, source="no-votes",
            stages=(rule_trace("rule-based", rule_ids),),
        ))
    return tracker.finish_batch(batch_id)


# ---------------------------------------------------------------------------
# ProvenanceRecord / StageTrace
# ---------------------------------------------------------------------------


class TestProvenanceRecord:
    def test_fired_rule_ids_merges_stages_and_filter(self):
        record = make_record(
            "i1",
            "rings",
            stages=(
                rule_trace("rule-based", ("r1", "r2")),
                rule_trace("attr-value", ("r2", "r3")),
            ),
            filter_fired=("r3", "r4"),
        )
        # First-seen order, duplicates across stages collapsed.
        assert record.fired_rule_ids() == ("r1", "r2", "r3", "r4")

    def test_fired_rule_ids_single_stage_fast_path(self):
        trace = rule_trace("rule-based", ("r1", "r2"))
        record = make_record("i1", "rings", stages=(trace,))
        assert record.fired_rule_ids() == ("r1", "r2")
        # Memoized: the same tuple comes back on re-query.
        assert record.fired_rule_ids() is record.fired_rule_ids()

    def test_winning_rule_ids_match_final_label(self):
        record = make_record(
            "i1",
            "rings",
            stages=(
                rule_trace("rule-based", ("r1",), label="rings"),
                rule_trace("attr-value", ("r2",), label="jeans"),
            ),
        )
        assert record.winning_rule_ids() == ("r1",)

    def test_winning_rule_ids_empty_without_label(self):
        record = make_record(
            "i1", None, source="low-confidence-or-filtered",
            stages=(rule_trace("rule-based", ("r1",), label="rings"),),
        )
        assert record.winning_rule_ids() == ()

    def test_learning_votes_never_win_as_rules(self):
        # A learning vote's source names the model, not a fired rule, so
        # it must not show up as a winning *rule* id.
        trace = StageTrace("learning", (), (("rings", 0.8, "learning:nb"),))
        record = make_record("i1", "rings", stages=(trace,))
        assert record.winning_rule_ids() == ()
        assert vote_rule_id("learning:nb") == "nb"

    def test_round_trip_dict(self):
        record = make_record(
            "i1",
            "rings",
            seq=7,
            stages=(
                StageTrace(
                    "rule-based",
                    ("r1",),
                    (("rings", 1.0, "rule-based:r1"),),
                    ("jeans",),
                    ("rings", "jewelry"),
                ),
            ),
            ranked=(("rings", 0.9), ("jeans", 0.1)),
            final=("rings", 0.9),
            filter_fired=("f1",),
            filter_vetoed=("jeans",),
        )
        clone = ProvenanceRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone == record
        assert clone.stages[0].constrained_to == ("rings", "jewelry")

    def test_render_record_names_the_chain(self):
        record = make_record(
            "i1",
            "rings",
            stages=(rule_trace("rule-based", ("r1",), label="rings"),),
            ranked=(("rings", 1.0),),
            final=("rings", 1.0),
        )
        rendered = "\n".join(render_record(record))
        assert "item i1" in rendered
        assert "r1" in rendered
        assert "voting master" in rendered


# ---------------------------------------------------------------------------
# ProvenanceLog
# ---------------------------------------------------------------------------


class TestProvenanceLog:
    def test_seq_assignment_is_monotonic(self):
        log = ProvenanceLog(capacity=10)
        first = log.record(make_record("a", "rings"))
        second = log.record(make_record("b", "rings"))
        assert (first.seq, second.seq) == (1, 2)
        # An explicit seq keeps later auto-assignment monotonic past it.
        log.record(make_record("c", "rings", seq=10))
        assert log.record(make_record("d", "rings")).seq == 11

    def test_why_returns_item_history_oldest_first(self):
        log = ProvenanceLog(capacity=10)
        log.record(make_record("a", None, source="no-votes"))
        log.record(make_record("b", "jeans"))
        log.record(make_record("a", "rings"))
        labels = [record.label for record in log.why("a")]
        assert labels == [None, "rings"]
        assert log.why("missing") == []

    def test_ring_eviction_keeps_capacity_and_deindexes(self):
        log = ProvenanceLog(capacity=3)
        for index in range(5):
            log.record(make_record(f"item-{index}", "rings"))
        assert len(log) == 3
        assert log.total_records == 5
        assert log.evicted_records == 2
        assert log.why("item-0") == []
        assert log.why("item-1") == []
        assert [record.item_id for record in log.records] == [
            "item-2", "item-3", "item-4",
        ]

    def test_eviction_spools_jsonl(self, tmp_path):
        """A spooled log is write-ahead: eviction drops a line from the
        window only, because it reached the spool when it was recorded."""
        spool = str(tmp_path / "spool.jsonl")
        log = ProvenanceLog(capacity=2, spool=spool)
        for index in range(4):
            log.record(make_record(f"item-{index}", "rings"))
        assert [record.item_id for record in log.records] == ["item-2", "item-3"]
        log.close()
        spooled = ProvenanceLog.read_jsonl(spool)
        assert [record.item_id for record in spooled] == [
            "item-0", "item-1", "item-2", "item-3",
        ]

    def test_blame_scans_fired_rules(self):
        log = ProvenanceLog(capacity=10)
        log.record(make_record(
            "a", "rings", stages=(rule_trace("rule-based", ("r1",), "rings"),)
        ))
        log.record(make_record(
            "b", "jeans", stages=(rule_trace("rule-based", ("r2",), "jeans"),)
        ))
        log.record(make_record(
            "c", "rings", stages=(rule_trace("rule-based", ("r1", "r2"), "rings"),)
        ))
        assert [record.item_id for record in log.blame("r1")] == ["a", "c"]
        summary = log.blame_summary("r1")
        assert summary["records"] == 2
        assert summary["wins"] == 2
        assert summary["labels"] == {"rings": 2}
        assert summary["items"] == ["a", "c"]

    def test_records_for_type_and_explain(self):
        log = ProvenanceLog(capacity=10)
        log.record(make_record("a", "rings"))
        log.record(make_record("b", "jeans"))
        assert [r.item_id for r in log.records_for_type("rings")] == ["a"]
        assert "item a" in log.explain("a")
        assert "no provenance retained" in log.explain("zzz")

    def test_write_jsonl_round_trip(self, tmp_path):
        log = ProvenanceLog(capacity=10)
        originals = [
            log.record(make_record(
                f"item-{i}", "rings",
                stages=(rule_trace("rule-based", ("r1",), "rings"),),
            ))
            for i in range(3)
        ]
        target = tmp_path / "prov.jsonl"
        assert log.write_jsonl(str(target)) == 3
        assert ProvenanceLog.read_jsonl(str(target)) == originals

    def test_spool_path_owned_handle(self, tmp_path):
        target = tmp_path / "spool.jsonl"
        log = ProvenanceLog(capacity=1, spool=str(target))
        log.record(make_record("a", "rings"))
        log.record(make_record("b", "rings"))
        log.close()
        assert [r.item_id for r in ProvenanceLog.read_jsonl(str(target))] == ["a", "b"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ProvenanceLog(capacity=0)

    @settings(max_examples=60, deadline=None)
    @given(
        item_ids=st.lists(st.sampled_from("abcde"), max_size=24),
        capacity=st.integers(min_value=1, max_value=12),
        torn=st.sampled_from(("", '{"seq": 99, "item_id": "to', "\n")),
    )
    def test_replay_decodes_only_the_tail_yet_equals_full_decode(
        self, item_ids, capacity, torn, tmp_path_factory
    ):
        """``replay`` keeps the offsets of the last ``capacity`` lines and
        counts the rest; the log it returns — window, ``why``, counters —
        is the one a full decode builds, and the one the live log held, for
        spools shorter than, equal to and longer than ``capacity``. It
        drops a torn tail before it appends, so the replayed log records
        more lines and a second replay still equals the full decode."""
        spool = str(tmp_path_factory.mktemp("replay") / "spool.jsonl")
        live = ProvenanceLog(capacity=capacity, spool=spool)
        for index, item_id in enumerate(item_ids):
            live.record(make_record(
                item_id, "rings", batch_id=f"b{index // 5}",
                stages=(rule_trace("rule-based", ("r1",), "rings"),),
            ))
        live.close()
        with open(spool, "a") as handle:
            handle.write(torn)  # a crash mid-append; "\n" is a blank line

        def surface(log):
            return (
                log.records,
                {item_id: log.why(item_id) for item_id in "abcde"},
                (log.total_records, log.evicted_records, log.next_seq()),
            )

        # The replaced implementation: decode every complete line, keep the tail.
        with open(spool) as handle:
            complete = handle.readlines()[: len(item_ids)]
        full = ProvenanceLog(capacity=capacity)
        for record in ProvenanceLog.read_jsonl(io.StringIO("".join(complete))):
            full.record(record)

        replayed = ProvenanceLog.replay(spool, capacity=capacity)
        assert len(replayed) == min(len(item_ids), capacity)
        assert surface(replayed) == surface(full) == surface(live)

        for index, item_id in enumerate("aeb", start=len(item_ids)):
            for log in (replayed, full):
                log.record(make_record(
                    item_id, "jeans", batch_id=f"b{index // 5}",
                    stages=(rule_trace("rule-based", ("r2",), "jeans"),),
                ))
        replayed.close()
        again = ProvenanceLog.replay(spool, capacity=capacity)
        assert surface(again) == surface(replayed) == surface(full)


    @settings(max_examples=80, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(_RING_ITEMS),
                st.sampled_from(_RING_LABELS),
                st.lists(st.sampled_from(_RING_RULES), max_size=3, unique=True),
                st.lists(st.sampled_from(_RING_RULES), max_size=2, unique=True),
                st.lists(st.sampled_from(_RING_RULES), max_size=2, unique=True),
            ),
            min_size=1,  # an unwritten spool has no file to replay
            max_size=20,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_ring_answers_equal_by_value_in_every_spool_mode(
        self, specs, capacity, tmp_path_factory
    ):
        """A window of spool offsets (write-ahead) and a ring of records
        (in-memory) are one log by value: every query, counter and export,
        reads taken between two appends, a replay of the spool, and a
        replayed log that records more. The ids are chosen to break a
        loose substring search: ``r1`` / ``r10``, a rule named like a type,
        a rule that is a prefix of a label, an item named like a rule and a
        label, and ids that JSON escapes."""

        def feed(reference, log, start=0):
            """Record ``specs`` into both logs in lockstep; after each
            append, ``log`` must read what ``reference`` holds (a
            write-ahead reader flushes the spool first)."""
            for index, (item_id, label, rule, attr, filtered) in enumerate(
                specs, start
            ):
                for target in (reference, log):
                    target.record(make_record(
                        item_id, label, batch_id=f"b{index // 4}",
                        stages=(
                            rule_trace("rule-based", rule, label, 0.75),
                            rule_trace("attr-value", attr, label),
                        ),
                        ranked=((label, 0.9),) if label else (),
                        final=(label, 0.9) if label else None,
                        filter_fired=filtered,
                    ))
                assert log.records == reference.records
                assert log.why(item_id) == reference.why(item_id)

        def surface(log):
            snapshot = io.StringIO()
            written = log.write_jsonl(snapshot)
            return {
                "records": log.records,
                "why": {item_id: log.why(item_id) for item_id in _RING_ITEMS},
                "blame": {rule_id: log.blame(rule_id) for rule_id in _RING_NEEDLES},
                "by_type": {
                    name: log.records_for_type(name) for name in _RING_NEEDLES
                },
                "summary": {
                    rule_id: log.blame_summary(rule_id) for rule_id in _RING_NEEDLES
                },
                "jsonl": (written, snapshot.getvalue()),
                "counts": (len(log), log.total_records, log.evicted_records),
            }

        spool = str(tmp_path_factory.mktemp("ring") / "spool.jsonl")
        in_memory = ProvenanceLog(capacity)
        write_ahead = ProvenanceLog(capacity, spool=spool)
        feed(in_memory, write_ahead)
        # The write-ahead log holds offsets into its spool, nothing decoded:
        # an array of at most twice the ring's line offsets.
        assert not [
            name
            for name, value in vars(write_ahead).items()
            if isinstance(value, (deque, dict, list))
        ]
        assert write_ahead._starts.typecode == "q"
        assert len(write_ahead._starts) < 2 * capacity

        expected = surface(in_memory)
        assert surface(write_ahead) == expected

        write_ahead.close()
        trail = ProvenanceLog.read_jsonl(spool)
        assert len(trail) == len(specs)
        assert trail[len(specs) - len(expected["records"]):] == expected["records"]
        folded = []
        for observe in (None, folded.append):
            replayed = ProvenanceLog.replay(spool, capacity, observe=observe)
            assert surface(replayed) == expected
            assert replayed.next_seq() == len(specs) + 1
        assert folded == trail

        resumed = ProvenanceLog.replay(spool, capacity)
        feed(in_memory, resumed, start=len(specs))
        assert surface(resumed) == surface(in_memory)
        resumed.close()


# ---------------------------------------------------------------------------
# RuleHealthTracker
# ---------------------------------------------------------------------------


class FakeEstimate:
    def __init__(self, precision, low=None, high=None, sample_size=10):
        self.precision = precision
        self.low = low if low is not None else max(0.0, precision - 0.1)
        self.high = high if high is not None else min(1.0, precision + 0.1)
        self.sample_size = sample_size


class FakeReport:
    def __init__(self, estimates):
        self.estimates = estimates


class TestRuleHealthTracker:
    def test_fire_rate_over_window(self):
        tracker = RuleHealthTracker(window=4, baseline_batches=1)
        observe_batch(tracker, {"a": ("r1",), "b": ("r1", "r2"), "c": ()})
        assert tracker.fire_rate("r1") == pytest.approx(2 / 3)
        assert tracker.fire_rate("r2") == pytest.approx(1 / 3)
        assert tracker.fire_rate("never") == 0.0

    def test_unlabelled_records_leave_win_rate_undefined(self):
        tracker = RuleHealthTracker(window=4, baseline_batches=1)
        observe_batch(tracker, {"a": ("r1",)})
        assert tracker.win_rate("r1") is None

    def test_win_rate_from_provenance_records(self):
        tracker = RuleHealthTracker(window=4, baseline_batches=1)
        tracker.observe_record(make_record(
            "a", "rings", stages=(rule_trace("rule-based", ("r1",), "rings"),)
        ))
        tracker.observe_record(make_record(
            "b", "jeans", stages=(rule_trace("rule-based", ("r1",), "rings"),)
        ))
        tracker.finish_batch("b0")
        assert tracker.win_rate("r1") == pytest.approx(0.5)

    def test_observe_record_defers_until_finish_batch(self):
        tracker = RuleHealthTracker(window=4, baseline_batches=1)
        tracker.observe_record(make_record(
            "a", "rings", stages=(rule_trace("rule-based", ("r1",), "rings"),)
        ))
        # Nothing folded yet: the per-item path is a single list append.
        assert tracker.total_batches == 0
        assert tracker.fire_rate("r1") == 0.0
        batch = tracker.finish_batch("b0")
        assert batch.n_items == 1
        assert dict(batch.fires) == {"r1": 1}

    def test_overlap_counts_cofired_pairs(self):
        tracker = RuleHealthTracker(window=4, baseline_batches=1)
        observe_batch(tracker, {
            "a": ("r1", "r2"),
            "b": ("r2", "r1"),
            "c": ("r1",),
        })
        assert dict(tracker.overlap_for("r1")) == {"r2": 2}
        assert dict(tracker.overlap_for("r2")) == {"r1": 2}

    def test_baseline_freezes_then_drift_alerts(self):
        tracker = RuleHealthTracker(
            window=8, baseline_batches=2, drift_min_delta=0.1, drift_tolerance=0.5
        )
        steady = {f"item-{i}": ("r1",) for i in range(10)}
        observe_batch(tracker, steady, batch_id="base-0")
        assert tracker.baseline is None
        observe_batch(tracker, steady, batch_id="base-1")
        assert tracker.baseline == {"r1": pytest.approx(1.0)}
        assert tracker.alerts == []

        # The rule stops firing entirely: a full-scale drift.
        quiet = {f"item-{i}": () for i in range(10)}
        observe_batch(tracker, quiet, batch_id="drifted")
        assert len(tracker.alerts) == 1
        alert = tracker.alerts[0]
        assert alert.kind == "fire-rate-drift"
        assert alert.rule_ids == ("r1",)
        assert alert.batch_id == "drifted"
        assert "r1" in tracker.drifted_rules
        assert tracker.health("r1").drifted

    def test_small_wobble_does_not_alert(self):
        tracker = RuleHealthTracker(
            window=8, baseline_batches=1, drift_min_delta=0.1, drift_tolerance=0.5
        )
        half = {f"item-{i}": (("r1",) if i % 2 else ()) for i in range(10)}
        observe_batch(tracker, half, batch_id="base")
        slightly_more = {
            f"item-{i}": (("r1",) if i % 2 or i == 0 else ()) for i in range(10)
        }
        observe_batch(tracker, slightly_more, batch_id="next")
        assert tracker.alerts == []

    def test_ingest_precision_flags_floor_breaches(self):
        tracker = RuleHealthTracker(precision_floor=0.92)
        report = FakeReport({
            "good": FakeEstimate(0.97, sample_size=20),
            "bad": FakeEstimate(0.60, sample_size=15),
            "worse": FakeEstimate(0.40, sample_size=8),
        })
        breaches = tracker.ingest_precision(report, batch_id="crowd-1")
        assert breaches == ["bad", "worse"]
        assert tracker.rules_below_floor() == ["bad", "worse"]
        assert len(tracker.alerts) == 1
        alert = tracker.alerts[0]
        assert alert.kind == "precision-floor"
        assert alert.rule_ids == ("bad", "worse")
        assert "0.92" in alert.detail

        health = tracker.health("bad")
        assert health.precision == pytest.approx(0.60)
        assert health.below_floor
        assert health.precision_sample == 15
        assert not tracker.health("good").below_floor

    def test_alert_callbacks_and_metrics_mirror(self):
        registry = MetricsRegistry()
        tracker = RuleHealthTracker(metrics=registry)
        seen = []
        tracker.on_alert.append(seen.append)
        tracker.ingest_precision(FakeReport({"bad": FakeEstimate(0.5)}))
        assert [alert.kind for alert in seen] == ["precision-floor"]
        series = registry.series("rule_quality_alerts_total")
        (name, counter), = series.items()
        assert "precision-floor" in name
        assert counter.value == 1

    def test_report_shape(self):
        tracker = RuleHealthTracker(window=4, baseline_batches=1)
        observe_batch(tracker, {"a": ("r1",), "b": ("r1",)})
        report = tracker.report()
        assert set(report) == {"r1"}
        entry = report["r1"]
        assert entry["fires"] == 2
        assert entry["fire_rate"] == pytest.approx(1.0)
        assert entry["win_rate"] is None
        assert entry["drifted"] is False

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RuleHealthTracker(window=0)
        with pytest.raises(ValueError):
            RuleHealthTracker(baseline_batches=0)
        with pytest.raises(ValueError):
            RuleHealthTracker(precision_floor=1.5)


# ---------------------------------------------------------------------------
# Chimera wiring
# ---------------------------------------------------------------------------


def build_chimera():
    """(chimera, {target type: rule id}) — rule ids are auto-assigned."""
    chimera = Chimera.build(seed=3)
    rules = parse_rules("""
        rings? -> rings
        (motor|engine) oils? -> motor oil
        denim.*jeans? -> jeans
    """)
    chimera.add_whitelist_rules(rules)
    return chimera, {rule.target_type: rule.rule_id for rule in rules}


def batch_items(n=8):
    from repro.catalog.types import ProductItem

    titles = [
        "diamond ring gold",
        "castrol motor oil 5 quart",
        "relaxed denim jeans",
        "two gold rings boxed",
        "engine oil treatment",
        "unrelated gadget",
        "skinny denim jeans blue",
        "plain widget",
    ]
    return [
        ProductItem(item_id=f"q-{i:02d}", title=titles[i % len(titles)])
        for i in range(n)
    ]


class TestChimeraTelemetryWiring:
    def test_enable_records_disable_stops(self):
        chimera, rule_ids = build_chimera()
        assert chimera.provenance is None and chimera.rule_health is None
        chimera.enable_quality_telemetry()
        provenance, health = chimera.provenance, chimera.rule_health

        items = batch_items()
        result = chimera.classify_batch(items, batch_id="t-0")
        assert provenance.total_records == len(items)
        assert health.total_batches == 1
        classified = [r for r in result.results if r.classified]
        assert classified, "expected the rule corpus to classify something"
        some = classified[0]
        chain = provenance.why(some.item.item_id)
        assert chain and chain[-1].label == some.label
        assert chain[-1].stages, "an attached log makes the stages trace"
        # blame traces every firing back to its items.
        rings = rule_ids["rings"]
        blamed = provenance.blame(rings)
        assert blamed and all(
            rings in record.fired_rule_ids() for record in blamed
        )

        # Detaching is two attribute writes: nothing records any more.
        chimera.provenance = chimera.rule_health = None
        chimera.classify_batch(batch_items(4))
        assert provenance.total_records == len(items)
        assert health.total_batches == 1

    def test_auto_batch_ids_are_sequential(self):
        chimera, _ = build_chimera()
        chimera.enable_quality_telemetry()
        chimera.classify_batch(batch_items(5))
        chimera.classify_batch(batch_items(5))
        batch_ids = {record.batch_id for record in chimera.provenance.records}
        assert batch_ids == {"batch-0000", "batch-0001"}


# ---------------------------------------------------------------------------
# Incident wiring
# ---------------------------------------------------------------------------


class TestRuleIncidents:
    def test_watch_quality_auto_opens_rule_incident(self):
        chimera, _ = build_chimera()
        tracker = RuleHealthTracker()
        manager = IncidentManager(chimera)
        manager.watch_quality(tracker)
        tracker.ingest_precision(
            FakeReport({"rings": FakeEstimate(0.5)}), batch_id="crowd-7"
        )
        assert len(manager.incidents) == 1
        incident = manager.incidents[0]
        assert incident.kind == "rule-quality"
        assert incident.rule_ids == ("rings",)
        assert incident.status == "open"
        assert any("[precision-floor]" in note and "crowd-7" in note
                   for note in incident.notes)

    def test_watch_quality_scale_down_policy_and_unsubscribe(self):
        from repro.utils.clock import SimClock

        chimera, rule_ids = build_chimera()
        rings = rule_ids["rings"]
        tracker = RuleHealthTracker()
        manager = IncidentManager(chimera)
        clock = SimClock()
        clock.now = 2.5
        unwatch = manager.watch_quality(tracker, clock, scale_down=True)
        tracker.ingest_precision(FakeReport({rings: FakeEstimate(0.1)}))
        (incident,) = manager.incidents
        assert (incident.status, incident.opened_at) == ("scaled-down", 2.5)
        assert not chimera.rule_stage.rules.get(rings).enabled

        unwatch()
        assert tracker.on_alert == []
        tracker.ingest_precision(FakeReport({rings: FakeEstimate(0.1)}))
        assert len(manager.incidents) == 1

    def test_scale_down_disables_exactly_named_rules(self):
        chimera, rule_ids = build_chimera()
        rings = rule_ids["rings"]
        filter_rules = parse_rules("cheap \\w+ rings? -> NOT rings")
        chimera.add_blacklist_rules(filter_rules, to_filter=True)
        filter_id = filter_rules[0].rule_id
        manager = IncidentManager(chimera)
        incident = manager.open_rule_incident(
            (rings, filter_id, "no-such-rule"), reason="test"
        )
        manager.scale_down(incident)

        assert incident.status == "scaled-down"
        assert not chimera.rule_stage.rules.get(rings).enabled
        assert not chimera.filter.rules.get(filter_id).enabled
        # Untouched rules keep running (compositional containment).
        assert chimera.rule_stage.rules.get(rule_ids["jeans"]).enabled
        assert incident.disabled_rule_ids["rule-based"] == [rings]
        assert incident.disabled_rule_ids["filter"] == [filter_id]
        assert any("not found: no-such-rule" in note for note in incident.notes)

        manager.restore(incident)
        assert incident.status == "closed"
        assert chimera.rule_stage.rules.get(rings).enabled
        assert chimera.filter.rules.get(filter_id).enabled

    def test_scale_down_refuses_stage_failure(self):
        chimera, _ = build_chimera()
        manager = IncidentManager(chimera)
        incident = manager.open_stage_incident("rule-based")
        with pytest.raises(ValueError):
            manager.scale_down(incident)

    def test_rule_incident_requires_rule_ids(self):
        manager = IncidentManager(build_chimera()[0])
        with pytest.raises(ValueError):
            manager.open_rule_incident(())

    def test_watch_health_and_watch_quality_coexist(self):
        chimera, rule_ids = build_chimera()
        rings = rule_ids["rings"]
        tracker = RuleHealthTracker()
        manager = IncidentManager(chimera)
        manager.watch_health()
        manager.watch_quality(tracker)

        # Trip the rule-based stage breaker -> stage incident.
        breaker = chimera.health.breaker("rule-based")
        for _ in range(breaker.failure_threshold):
            chimera.health.record_failure("rule-based", RuntimeError("boom"))
        # And a telemetry degradation -> rule incident, side by side.
        tracker.ingest_precision(FakeReport({rings: FakeEstimate(0.2)}))

        kinds = sorted(incident.kind for incident in manager.incidents)
        assert kinds == ["rule-quality", "stage-failure"]
        rule_incident = next(
            i for i in manager.incidents if i.kind == "rule-quality"
        )
        manager.scale_down(rule_incident)
        assert not chimera.rule_stage.rules.get(rings).enabled


# ---------------------------------------------------------------------------
# Satellite: PrecisionMonitor bounded history
# ---------------------------------------------------------------------------


class TestPrecisionMonitorRetention:
    def test_history_is_bounded_with_rotation_hook(self):
        evicted = []
        monitor = PrecisionMonitor(window=2, retention=5, on_evict=evicted.append)
        for index in range(8):
            monitor.record(f"batch-{index}", float(index), 0.95, 0.8, 100)
        assert len(monitor.history) == 5
        assert monitor.evicted_batches == 3
        assert [stats.batch_id for stats in evicted] == [
            "batch-0", "batch-1", "batch-2",
        ]
        assert monitor.history[0].batch_id == "batch-3"
        # The quality window still works on the retained tail.
        assert monitor.latest.batch_id == "batch-7"

    def test_unbounded_when_retention_none(self):
        monitor = PrecisionMonitor(window=2, retention=None)
        for index in range(100):
            monitor.record(f"batch-{index}", float(index), 0.95, 0.8, 10)
        assert len(monitor.history) == 100
        assert monitor.evicted_batches == 0

    def test_retention_must_cover_window(self):
        with pytest.raises(ValueError):
            PrecisionMonitor(window=5, retention=3)


# ---------------------------------------------------------------------------
# Satellite: MetricsRegistry label cardinality
# ---------------------------------------------------------------------------


class TestMetricsCardinality:
    def test_rule_labels_bounded_with_other_bucket(self):
        registry = MetricsRegistry(max_rule_labels=4)
        fired = {f"item-{i}": tuple(f"rule-{j:02d}" for j in range(10))
                 for i in range(3)}
        registry.observe_fired(fired)
        series = registry.series("rule_fired_total")
        labels = {name for name in series}
        assert len(labels) <= 5  # 4 admitted + __other__
        assert any(OTHER_RULE_LABEL in name for name in labels)
        # Totals are conserved: every fire landed somewhere.
        assert sum(counter.value for counter in series.values()) == 30

    def test_admitted_labels_stay_stable_across_calls(self):
        registry = MetricsRegistry(max_rule_labels=2)
        registry.observe_fired({"a": ("r1", "r2")})
        registry.observe_fired({"b": ("r3", "r1")})
        series = registry.series("rule_fired_total")
        names = "".join(series)
        assert "r1" in names and "r2" in names
        # r3 arrived after the cap: folded to __other__, not admitted.
        assert "r3" not in names
        assert any(OTHER_RULE_LABEL in name for name in series)

    def test_default_cap_is_generous(self):
        assert MetricsRegistry().max_rule_labels == DEFAULT_MAX_RULE_LABELS


# ---------------------------------------------------------------------------
# CLI: repro monitor
# ---------------------------------------------------------------------------


class TestMonitorCli:
    def test_monitor_golden_corpus_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "health.json"
        rc = main([
            "monitor",
            "--rules", str(GOLDEN / "ruleset.json"),
            "--catalog", str(GOLDEN / "catalog.json"),
            "--batches", "2",
            "--baseline-batches", "1",
            "--json", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "rule health" in captured.out
        payload = json.loads(out.read_text())
        assert payload["rules"], "health JSON should cover at least one rule"
        sample = next(iter(payload["rules"].values()))
        assert "fire_rate" in sample and "drifted" in sample

    def test_monitor_synthesized_with_drift_flag(self, capsys):
        from repro.cli import main

        rc = main([
            "monitor",
            "--items", "80",
            "--batches", "4",
            "--baseline-batches", "1",
            "--training", "300",
            "--drift",
            "--seed", "5",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "rule health" in captured.out
        assert "injected head-vocabulary drift" in captured.err
