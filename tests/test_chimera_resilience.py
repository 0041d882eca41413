"""Circuit breaker, stage health monitoring, and stage-failure incidents.

Component-failure resilience for the Chimera pipeline: a classifier stage
that starts throwing is routed around (no votes) instead of taking down
classification, the health monitor keeps an auditable ledger, and the
incident manager opens stage-failure incidents automatically. Everything
is call-counted — no wall-clock time anywhere.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.chimera import (
    BreakerState,
    Chimera,
    CircuitBreaker,
    GuardedStage,
    IncidentManager,
    StageHealthMonitor,
)
from repro.chimera.classifiers import StageAnswer
from repro.chimera.monitoring import AUDIT_TRAIL
from repro.core import parse_rules
from repro.core.rule import Clause, PredicateRule
from repro.core.prepared import prepare
from repro.observability.metrics import MetricsRegistry
from repro.utils.clock import SimClock


def item(title, **attributes):
    return ProductItem(item_id=title[:24], title=title, attributes=attributes)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 1
        assert list(breaker.transitions) == [("closed", "open")]

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # never 2 in a row

    def test_open_swallows_cooldown_calls_then_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        breaker.record_failure()
        assert [breaker.allow() for _ in range(3)] == [False, False, True]
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.allow()  # immediate probe with cooldown=1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert ("half-open", "closed") in breaker.transitions

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1)
        for _ in range(3):
            breaker.record_failure()
        breaker.allow()  # probe
        breaker.record_failure()  # one failure re-opens from HALF_OPEN
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2

    def test_counters_accumulate(self):
        breaker = CircuitBreaker(failure_threshold=10)
        for _ in range(4):
            breaker.record_failure()
        for _ in range(6):
            breaker.record_success()
        assert (breaker.total_failures, breaker.total_successes) == (4, 6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)

    def test_repr_names_state(self):
        text = repr(CircuitBreaker(name="learning"))
        assert "learning" in text and "closed" in text


class TestStageHealthMonitor:
    def test_breakers_are_lazy_and_per_stage(self):
        health = StageHealthMonitor()
        a = health.breaker("a")
        assert health.breaker("a") is a
        assert health.breaker("b") is not a

    def test_failure_ledger(self):
        health = StageHealthMonitor(failure_threshold=5)
        health.record_failure("attr", ValueError("boom"))
        health.record_success("attr")
        assert health.report()["attr"]["failures"] == 1
        assert health.report()["attr"]["successes"] == 1
        fault = health.faults[0]
        assert fault.stage == "attr" and "boom" in fault.error

    def test_open_event_and_callback_fire_once(self):
        health = StageHealthMonitor(failure_threshold=2, cooldown=10)
        opened = []
        health.on_breaker_open.append(opened.append)
        for _ in range(4):  # keeps failing past the threshold
            health.record_failure("learning", RuntimeError("dead"))
        assert opened == ["learning"]
        assert list(health.events) == [("learning", "breaker-open")]

    def test_routed_around_counter(self):
        health = StageHealthMonitor(failure_threshold=1, cooldown=5)
        health.record_failure("rule-based", RuntimeError("x"))
        assert not health.allow("rule-based")
        assert not health.allow("rule-based")
        assert health.routed_around["rule-based"] == 2

    def test_degraded_stages_and_report(self):
        health = StageHealthMonitor(failure_threshold=1, cooldown=3)
        health.record_success("rule-based")
        health.record_failure("attr-value", RuntimeError("x"))
        assert health.degraded_stages() == ["attr-value"]
        report = health.report()
        assert report["attr-value"]["state"] == "open"
        assert report["attr-value"]["times_opened"] == 1
        assert report["rule-based"] == {
            "state": "closed", "successes": 1, "failures": 0,
            "routed_around": 0, "times_opened": 0,
        }

    def test_audit_trail_is_bounded_and_counts_stay_exact(self):
        """A stage that never stops failing keeps the last AUDIT_TRAIL
        faults, events and transitions; the counts see every call."""
        health = StageHealthMonitor(failure_threshold=1, cooldown=1)
        calls = 10 * AUDIT_TRAIL + 3
        for _ in range(calls):
            assert health.allow("s")  # cooldown=1: every call after an open probes
            health.record_failure("s", RuntimeError("down"))
        breaker = health.breaker("s")
        assert len(health.faults) == len(health.events) == AUDIT_TRAIL
        assert len(breaker.transitions) == AUDIT_TRAIL
        assert list(breaker.transitions)[-2:] == [("open", "half-open"), ("half-open", "open")]
        report = health.report()["s"]
        assert report["failures"] == report["times_opened"] == calls
        assert report["successes"] == report["routed_around"] == 0


class _CountingGauges(MetricsRegistry):
    def __init__(self):
        super().__init__()
        self.gauge_sets = 0

    def gauge(self, name, **labels):
        self.gauge_sets += 1
        return super().gauge(name, **labels)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.sampled_from(["allow", "ok", "ok-bulk", "fail"]), max_size=40))
def test_state_gauge_is_published_on_change_and_never_stale(ops):
    """``stage_breaker_state`` is set when the breaker appears and on each
    transition — not per call — and still reads the live state after any
    sequence of calls, as ``report()`` does."""
    metrics = _CountingGauges()
    health = StageHealthMonitor(failure_threshold=2, cooldown=3, metrics=metrics)
    for op in ops:
        if op == "allow":
            health.allow("s")
        elif op == "fail":
            health.record_failure("s", RuntimeError("x"))
        else:
            health.record_success("s", 7 if op == "ok-bulk" else 1)
        breaker = health.breaker("s")
        sets = metrics.gauge_sets
        assert sets == 1 + len(breaker.transitions)
        assert metrics.gauge("stage_breaker_state", stage="s").value == (
            StageHealthMonitor.BREAKER_STATE_CODES[breaker.state]
        )
        metrics.gauge_sets = sets
        assert health.report()["s"]["state"] == breaker.state.value
    if ops:
        report, breaker = health.report()["s"], health.breaker("s")
        assert metrics.counter("stage_success_total", stage="s").value == (
            report["successes"]
        ) == breaker.total_successes
        assert metrics.counter("stage_failure_total", stage="s").value == (
            report["failures"]
        ) == breaker.total_failures


class _CountingStage:
    """Minimal stage stub: scripted answers, optional sabotage."""

    def __init__(self, name="stub"):
        self.name = name
        self.enabled = True
        self.calls = 0
        self.batch_calls = 0
        self.broken = False
        self.poison = ()

    def answer(self, item, traced=False, hits=None):
        self.calls += 1
        if self.broken or item in self.poison:
            raise RuntimeError("model artifact corrupted")
        return StageAnswer(self, ["vote"], {"books"})

    def answer_batch(self, items, traced=False, hits=None):
        self.batch_calls += 1
        return [self.answer(item) for item in items]


def _shape(answers):
    return [(answer.votes, answer.allowed) for answer in answers]


class TestGuardedStage:
    def test_delegates_name_and_enabled(self):
        stage = _CountingStage("learning")
        guarded = GuardedStage(stage, StageHealthMonitor())
        assert guarded.name == "learning"
        stage.enabled = False
        assert guarded.enabled is False

    def test_healthy_calls_pass_through(self):
        health = StageHealthMonitor()
        stage = _CountingStage()
        guarded = GuardedStage(stage, health)
        assert _shape(guarded.answer_batch([None])) == [(["vote"], {"books"})]
        assert health.report()["stub"]["successes"] == 1
        # A healthy batch is one stage call, booked one success per item.
        assert len(guarded.answer_batch(list("abcde"))) == 5
        assert stage.batch_calls == 2
        assert health.report()["stub"]["successes"] == 6
        assert health.breaker("stub").total_successes == 6

    def test_exceptions_become_no_votes(self):
        health = StageHealthMonitor(failure_threshold=10)
        stage = _CountingStage()
        stage.broken = True
        guarded = GuardedStage(stage, health)
        assert _shape(guarded.answer_batch([None])) == [([], None)]
        assert health.report()["stub"]["failures"] == 1

    def test_a_poison_item_costs_only_its_own_vote(self):
        health = StageHealthMonitor(failure_threshold=10)
        stage = _CountingStage()
        stage.poison = ("c",)
        guarded = GuardedStage(stage, health)
        # Its answer is lost: no votes and no restriction.
        assert _shape(guarded.answer_batch(list("abcde"))) == [
            (["vote"], {"books"}), (["vote"], {"books"}), ([], None),
            (["vote"], {"books"}), (["vote"], {"books"}),
        ]
        report = health.report()["stub"]
        assert (report["successes"], report["failures"]) == (4, 1)
        assert health.breaker("stub").state is BreakerState.CLOSED

    def test_open_breaker_skips_the_stage_entirely(self):
        health = StageHealthMonitor(failure_threshold=1, cooldown=100)
        stage = _CountingStage()
        stage.broken = True
        guarded = GuardedStage(stage, health)
        guarded.answer_batch([None])  # trips the breaker
        calls_before = (stage.calls, stage.batch_calls)
        assert _shape(guarded.answer_batch([None, None])) == [([], None)] * 2
        assert (stage.calls, stage.batch_calls) == calls_before  # never invoked while open
        # one routed-around call per item of the second batch
        assert health.routed_around["stub"] == 2


def _sabotage(stage):
    """Break a stage the way a bad artifact does: every call throws.

    Patching the stage's fold seam, ``verdict``, fails every answer the
    stage gives, batched or one item at a time.
    """
    def boom(*args, **kwargs):
        raise RuntimeError("rule dictionary corrupted")

    stage.verdict = boom


def _repair(stage):
    del stage.verdict


def build_chimera(failure_threshold=3, cooldown=4):
    chimera = Chimera.build()
    chimera.health.failure_threshold = failure_threshold
    chimera.health.cooldown = cooldown
    chimera.add_whitelist_rules(parse_rules("""
        rings? -> rings
        denim.*jeans? -> jeans
    """))
    chimera.add_attribute_rules(parse_rules("attr(isbn) -> books"))
    return chimera


ITEMS = [
    item("gold ring"),
    item("relaxed denim jeans"),
    item("mystery novel", isbn="978"),
    item("diamond ring boxed"),
]


class TestChimeraStageFailure:
    def test_pipeline_survives_a_throwing_stage(self):
        chimera = build_chimera(failure_threshold=2, cooldown=50)
        _sabotage(chimera.attr_stage)
        result = chimera.classify_batch(ITEMS)
        # Rule-stage items still classify; only the broken stage's votes die.
        labels = {r.item.item_id: r.label for r in result.results}
        assert labels["gold ring"] == "rings"
        assert labels["relaxed denim jeans"] == "jeans"
        assert chimera.degraded_stages() == ["attr-value"]
        assert chimera.health_report()["attr-value"]["failures"] >= 2
        assert chimera.health_report()["attr-value"]["state"] == "open"

    def test_a_raising_rule_is_contained_and_opens_the_breaker(self):
        """Not the seam but a *rule* throws: the stage evaluates it inside
        its ``answer``, so the guard sees the exception."""
        def corrupted(prepared):
            raise RuntimeError("udf backend unreachable")

        chimera = build_chimera(failure_threshold=2, cooldown=50)
        chimera.add_attribute_rules([
            PredicateRule([Clause("udf(lookup)", corrupted)], "books", rule_id="bad-udf")
        ])
        result = chimera.classify_batch(ITEMS)
        labels = {r.item.item_id: r.label for r in result.results}
        assert labels["gold ring"] == "rings"
        assert labels["relaxed denim jeans"] == "jeans"
        assert labels["mystery novel"] is None  # its only voter is routed around
        assert chimera.degraded_stages() == ["attr-value"]
        assert "udf backend unreachable" in chimera.health.faults[0].error
        # Disabling the rule does not stop the engine evaluating its
        # condition (the artifact holds disabled rules); retiring it does.
        chimera.attr_stage.rules.remove("bad-udf")
        assert chimera.attr_stage.predict(ITEMS[2])[0].label == "books"

    @staticmethod
    def _opens_one_incident(chimera, stage_name):
        """Classify ``ITEMS`` under ``watch_health``: ``stage_name``'s
        breaker opens and one stage-failure incident names it."""
        manager = IncidentManager(chimera)
        manager.watch_health(SimClock())
        chimera.classify_batch(ITEMS)
        report = chimera.health_report()[stage_name]
        assert (report["state"], report["failures"], report["successes"]) == ("open", 3, 0)
        assert [(i.kind, i.affected_types) for i in manager.incidents] == [
            ("stage-failure", (stage_name,))
        ]

    def test_a_raising_whitelist_rule_opens_the_rule_stage_breaker(self):
        """Every item raises in the rule stage's answer and books no
        success, so three items open its breaker at the default threshold."""
        def corrupted(prepared):
            raise RuntimeError("udf backend unreachable")

        chimera = build_chimera(failure_threshold=3)
        chimera.add_whitelist_rules([
            PredicateRule([Clause("udf(lookup)", corrupted)], "rings", rule_id="bad-wl")
        ])
        self._opens_one_incident(chimera, "rule-based")

    def test_a_raising_learner_opens_the_learning_stage_breaker(self):
        def unreadable(items, traced=False, hits=None):
            raise RuntimeError("model input unreadable")

        chimera = build_chimera(failure_threshold=3)
        chimera.learning_stage.answer_batch = unreadable
        self._opens_one_incident(chimera, "learning")

    def test_healthy_pipeline_is_unchanged_by_the_guard(self):
        guarded = build_chimera().classify_batch(ITEMS)
        labels = {r.item.item_id: r.label for r in guarded.results}
        assert labels["mystery novel"] == "books"
        assert build_chimera().degraded_stages() == []

    def test_breaker_recovery_via_probe(self):
        chimera = build_chimera(failure_threshold=1, cooldown=2)
        _sabotage(chimera.attr_stage)
        chimera.classify_item(ITEMS[0])  # trips attr-value open
        _repair(chimera.attr_stage)
        # Cooldown is counted in allow() calls: classify until the probe
        # goes through and succeeds, re-closing the breaker.
        for _ in range(3):
            chimera.classify_item(ITEMS[0])
        assert chimera.degraded_stages() == []
        breaker = chimera.health.breaker("attr-value")
        assert ("half-open", "closed") in breaker.transitions

    def test_shared_monitor_can_be_injected(self):
        health = StageHealthMonitor(failure_threshold=1, cooldown=9)
        chimera = Chimera.build()
        chimera.health.record_failure  # default monitor exists...
        assert Chimera(
            chimera.gatekeeper, chimera.rule_stage, chimera.attr_stage,
            chimera.learning_stage, chimera.voting, chimera.filter,
            health=health,
        ).health is health


class TestStageFailureIncidents:
    def test_watch_health_auto_opens_incident(self):
        chimera = build_chimera(failure_threshold=2, cooldown=50)
        manager = IncidentManager(chimera)
        clock = SimClock()
        clock.advance(120.0)
        manager.watch_health(clock)
        _sabotage(chimera.attr_stage)
        chimera.classify_batch(ITEMS)
        assert len(manager.incidents) == 1
        incident = manager.incidents[0]
        assert incident.kind == "stage-failure"
        assert incident.affected_types == ("attr-value",)
        assert incident.opened_at == pytest.approx(120.0)
        assert "circuit breaker opened" in incident.notes[0]

    def test_scale_down_refuses_stage_incidents(self):
        chimera = build_chimera()
        manager = IncidentManager(chimera)
        incident = manager.open_stage_incident("learning")
        with pytest.raises(ValueError, match="circuit breaker"):
            manager.scale_down(incident)

    def test_close_stage_incident(self):
        manager = IncidentManager(build_chimera())
        incident = manager.open_stage_incident("learning")
        manager.close_stage_incident(incident)
        assert incident.status == "closed"
        assert "stage recovered" in incident.notes[-1]

    def test_close_rejects_quality_incidents(self):
        manager = IncidentManager(build_chimera())
        incident = manager.open_incident(["rings"])
        with pytest.raises(ValueError, match="not a stage-failure"):
            manager.close_stage_incident(incident)

    def test_quality_playbook_still_works_alongside(self):
        chimera = build_chimera()
        manager = IncidentManager(chimera)
        incident = manager.open_incident(["rings"])
        assert incident.kind == "quality"
        manager.scale_down(incident)
        assert incident.status == "scaled-down"
        manager.restore(incident)
        assert incident.status == "closed"

    def test_determinism_same_faults_same_report(self):
        def run():
            chimera = build_chimera(failure_threshold=2, cooldown=3)
            _sabotage(chimera.attr_stage)
            chimera.classify_batch(ITEMS * 3)
            return chimera.health_report()

        assert run() == run()
