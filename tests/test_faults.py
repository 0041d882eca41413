"""Deterministic fault-injection tests for the sharded executor.

Every failure path — crash, hang, corrupt output, a rule that raises,
full-cluster death — is driven by a scheduled :class:`FaultPlan` or a
deterministic rule; no test sleeps, kills processes, or touches the wall
clock.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core import AttributeRule, SequenceRule, parse_rules
from repro.core.rule import Clause, PredicateRule
from repro.execution import (
    CorruptShardOutput,
    ExecutionStats,
    FaultKind,
    FaultPlan,
    FaultSpec,
    IndexedExecutor,
    NaiveExecutor,
    PartitionedExecutor,
    validate_shard_output,
)
from repro.utils.clock import TickClock


def item(title, item_id=None, **attributes):
    return ProductItem(item_id=item_id or title[:40], title=title, attributes=attributes)


RULES = parse_rules("""
    rings? -> rings
    (motor|engine) oils? -> motor oil
    denim.*jeans? -> jeans
""") + [
    SequenceRule(("area", "rug"), "area rugs"),
    AttributeRule("isbn", "books"),
]

ITEMS = [
    item("diamond ring gold"),
    item("castrol motor oil 5 quart"),
    item("relaxed denim jeans"),
    item("shaw area rug 5x7"),
    item("mystery novel", isbn="978"),
    item("unrelated gadget"),
    item("two gold rings boxed"),
    item("engine oil filter"),
]

BASELINE, _ = NaiveExecutor(RULES).run(ITEMS)

# A rule whose condition raises on any title containing "bomb": a real
# (not injected) worker failure, the same on every worker a shard visits.
BOMB = PredicateRule(
    [Clause("explodes on bombs", lambda thing: "bomb" in thing.title and 1 / 0)],
    "t", rule_id="pred-bomb",
)


def executor(n_workers=3, plan=None, **kwargs):
    return PartitionedExecutor(RULES, n_workers=n_workers, fault_plan=plan, **kwargs)


def shard_events(result, shard):
    return [e for e in result.fault_events if e.shard_id == shard]


class TestFaultPlan:
    def test_wildcards_match_everything(self):
        spec = FaultSpec(FaultKind.CRASH)
        assert spec.applies_to(0, 0, 0) and spec.applies_to(7, 3, 2)

    def test_pinned_coordinates(self):
        spec = FaultSpec(FaultKind.HANG, worker=1, shard=2, attempt=0)
        assert spec.applies_to(1, 2, 0)
        assert not spec.applies_to(1, 2, 1)
        assert not spec.applies_to(0, 2, 0)

    def test_first_matching_spec_wins(self):
        plan = FaultPlan().crash(worker=1).hang(worker=1)
        assert plan.fault_for(1, 0, 0).kind is FaultKind.CRASH

    def test_builders_chain(self):
        plan = FaultPlan().crash(worker=0).hang(worker=1).corrupt(worker=2)
        assert [s.kind for s in plan.specs] == [
            FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT,
        ]
        assert len(plan) == 3

    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random_plan(seed=99, n_workers=6, rate=0.8)
        b = FaultPlan.random_plan(seed=99, n_workers=6, rate=0.8)
        assert a.specs == b.specs
        c = FaultPlan.random_plan(seed=100, n_workers=6, rate=0.8)
        assert a.specs != c.specs  # different seed, different schedule

    def test_random_plan_spares_workers(self):
        plan = FaultPlan.random_plan(seed=5, n_workers=4, rate=1.0, spare_workers=2)
        assert plan.specs  # rate=1.0 faults every non-spared slot
        assert all(spec.worker >= 2 for spec in plan.specs)

    def test_random_plan_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultPlan.random_plan(seed=0, n_workers=2, rate=1.5)

    def test_describe_lists_specs(self):
        plan = FaultPlan().crash(worker=1).corrupt(detail="garbage")
        text = plan.describe()
        assert "crash" in text and "garbage" in text
        assert FaultPlan().describe() == "fault plan: (healthy)"

    def test_blocking_spec_to_exception(self):
        # A crash or hang stops the attempt before the shard runs: the
        # event carries the spec's kind, and the driver's clock shows no
        # extra execution against a healthy run.
        plan = FaultPlan().crash(shard=0, attempt=0).hang(shard=1, attempt=0)
        result = executor(plan=plan, clock=TickClock()).run(ITEMS)
        assert [(e.shard_id, e.kind, e.action) for e in result.fault_events] == [
            (0, "crash", "retry"), (1, "hang", "retry"),
        ]
        assert result.fired == BASELINE
        healthy = executor(clock=TickClock()).run(ITEMS)
        assert result.stats.wall_time == healthy.stats.wall_time


class TestShardOutputValidation:
    def _stats(self, items):
        stats = ExecutionStats()
        stats.items = items
        return stats

    def test_accepts_valid_output(self):
        fired = {"a": ["r1"], "b": ["r1", "r2"]}
        out = validate_shard_output(fired, self._stats(2), ["a", "b"], frozenset({"r1", "r2"}))
        assert out == fired

    @pytest.mark.parametrize(
        "fired, items",
        [
            ("garbage", ["a"]),                          # not a dict
            ({"ghost": ["r1"]}, ["a"]),                  # unknown item
            ({"a": []}, ["a"]),                          # empty hit list
            ({"a": ["bogus"]}, ["a"]),                   # unknown rule
            ({"a": ["r2", "r1"]}, ["a"]),                # unsorted
            ({"a": "r1"}, ["a"]),                        # not a list
        ],
    )
    def test_rejects_corrupt_fired_maps(self, fired, items):
        with pytest.raises(CorruptShardOutput):
            validate_shard_output(fired, self._stats(len(items)), items, frozenset({"r1", "r2"}))

    def test_rejects_mangled_stats(self):
        with pytest.raises(CorruptShardOutput):
            validate_shard_output({"a": ["r1"]}, "nope", ["a"], frozenset({"r1"}))
        with pytest.raises(CorruptShardOutput):
            validate_shard_output({"a": ["r1"]}, self._stats(7), ["a"], frozenset({"r1"}))

    def test_duplicate_item_ids_are_legitimate(self):
        # A vendor batch may repeat an item id; the shard still counts rows.
        out = validate_shard_output(
            {"a": ["r1"]}, self._stats(3), ["a", "a", "a"], frozenset({"r1"})
        )
        assert out == {"a": ["r1"]}


class TestSingleWorkerDeath:
    """Acceptance: killing any single worker still yields the complete map."""

    @pytest.mark.parametrize("worker", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_complete_despite_dead_worker(self, worker, kind):
        plan = FaultPlan()
        (plan.crash if kind == "kill" else plan.hang)(worker=worker)
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert not result.degraded
        assert result.fired == BASELINE
        # The dead worker's own shard failed there once and moved on.
        assert [(e.worker_id, e.attempt, e.action)
                for e in shard_events(result, worker)] == [(worker, 0, "retry")]

    def test_crash_then_recover_on_retry(self):
        plan = FaultPlan().crash(worker=1, attempt=0)  # transient: first attempt only
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert not result.degraded and result.fired == BASELINE
        assert result.stats.retries == 1
        assert [e.kind for e in result.fault_events] == ["crash"]

    def test_corrupt_worker_is_caught_and_retried(self):
        for detail in ("alien-item", "alien-rule", "unsorted", "garbage", "bad-stats"):
            plan = FaultPlan().corrupt(worker=2, attempt=0, detail=detail)
            result = executor(n_workers=3, plan=plan).run(ITEMS)
            assert not result.degraded, detail
            assert result.fired == BASELINE, detail
            assert [e.kind for e in result.fault_events] == ["corrupt"], detail

    def test_triggered_faults_are_logged_on_the_plan(self):
        plan = FaultPlan().crash(worker=1)
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert plan.triggered == result.fault_events
        assert plan.triggered and all(t.worker_id == 1 for t in plan.triggered)


class TestDegradedMode:
    def test_total_failure_degrades_instead_of_raising(self):
        plan = FaultPlan().crash()
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert result.degraded
        assert result.fired == {}
        assert sorted(result.stats.skipped_item_ids) == sorted(i.item_id for i in ITEMS)
        assert [e.shard_id for e in result.fault_events if e.action == "skip"] == [0, 1, 2]
        assert result.shard_evaluations == [0, 0, 0]
        assert result.stats.skipped_items == len(ITEMS)

    def test_one_shard_lost_keeps_the_rest(self):
        # Shard 1 fails on every worker it rotates to; others stay healthy.
        plan = FaultPlan().crash(shard=1)
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert result.degraded
        shard_1_ids = {i.item_id for i in ITEMS[1::3]}
        assert set(result.stats.skipped_item_ids) == shard_1_ids
        expected = {k: v for k, v in BASELINE.items() if k not in shard_1_ids}
        assert result.fired == expected
        skip_events = [e for e in result.fault_events if e.action == "skip"]
        assert len(skip_events) == 1 and skip_events[0].shard_id == 1

    def test_run_keeps_three_tuple_and_reports(self):
        # One entry point: the result carries the fired map, the stats and
        # the per-shard work that the old (fired, stats, reports) tuple did.
        plan = FaultPlan().crash(worker=0)
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert result.fired == BASELINE
        assert result.stats.retries >= 1
        assert len(result.shard_evaluations) == 3
        assert sum(result.shard_evaluations) == result.stats.rule_evaluations

    def test_real_worker_exception_is_contained(self):
        # Every item is a bomb: every shard crashes on every worker.
        bombs = [item(f"bomb {i.title}", i.item_id) for i in ITEMS]
        result = PartitionedExecutor(RULES + [BOMB], n_workers=2).run(bombs)
        assert result.degraded and result.fired == {}
        assert [(e.shard_id, e.attempt, e.kind, e.action) for e in result.fault_events] == [
            (0, 0, "crash", "retry"), (0, 1, "crash", "skip"),
            (1, 0, "crash", "retry"), (1, 1, "crash", "skip"),
        ]
        assert "ZeroDivisionError" in result.fault_events[0].error


class TestShardReportMerge:
    """Retry/skip accounting lives on the fault events and the stats."""

    def test_healthy_reports(self):
        result = executor(n_workers=3).run(ITEMS)
        assert result.fault_events == [] and result.stats.retries == 0
        assert result.stats.items == len(ITEMS)
        assert sum(result.shard_evaluations) == result.stats.rule_evaluations
        assert result.stats.matches == sum(len(v) for v in result.fired.values())

    def test_retry_counts_in_reports_and_stats(self):
        plan = FaultPlan().crash(shard=2, attempt=0).crash(shard=2, attempt=1)
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert not result.degraded
        assert [(e.attempt, e.action) for e in shard_events(result, 2)] == [
            (0, "retry"), (1, "retry"),
        ]
        assert result.stats.retries == 2

    def test_worker_rotation_is_recorded(self):
        # shard s, attempt a runs on worker (s + a) % n: every worker once
        plan = FaultPlan().crash(shard=2)
        result = executor(n_workers=3, plan=plan).run(ITEMS)
        assert [(e.worker_id, e.attempt, e.action) for e in shard_events(result, 2)] == [
            (2, 0, "retry"), (0, 1, "retry"), (1, 2, "skip"),
        ]

    def test_merged_stats_exclude_skipped_shards(self):
        plan = FaultPlan().crash(shard=0)
        result = executor(n_workers=2, plan=plan).run(ITEMS)
        assert result.stats.items == len(ITEMS[1::2])
        assert result.stats.skipped_item_ids == [i.item_id for i in ITEMS[0::2]]
        assert result.shard_evaluations[0] == 0
        assert result.stats.rule_evaluations == result.shard_evaluations[1]


# -- hypothesis: the degraded-mode contract over arbitrary fault plans ---------

fault_kinds = st.sampled_from(list(FaultKind))
coords = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
specs = st.builds(
    FaultSpec,
    kind=fault_kinds,
    worker=coords,
    shard=coords,
    attempt=coords,
)


class TestFaultProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_plan_with_a_spared_worker_completes(self, seed):
        """One healthy worker ⇒ byte-identical fired map, whatever else fails."""
        plan = FaultPlan.random_plan(seed=seed, n_workers=4, rate=0.9,
                                     max_faulted_attempts=4, spare_workers=1)
        result = PartitionedExecutor(RULES, n_workers=4, fault_plan=plan).run(ITEMS)
        assert not result.degraded, plan.describe()
        assert result.fired == BASELINE

    @settings(max_examples=40, deadline=None)
    @given(plan_specs=st.lists(specs, max_size=6))
    def test_fired_map_is_baseline_minus_reported_skips(self, plan_specs):
        """Whatever the faults, fired == no-fault map minus explicit skips."""
        plan = FaultPlan(plan_specs)
        result = PartitionedExecutor(RULES, n_workers=4, fault_plan=plan).run(ITEMS)
        skipped = set(result.stats.skipped_item_ids)
        expected = {k: v for k, v in BASELINE.items() if k not in skipped}
        assert result.fired == expected
        # Every input item is accounted for: merged or explicitly skipped.
        skipped_shards = {e.shard_id for e in result.fault_events if e.action == "skip"}
        for index, thing in enumerate(ITEMS):
            assert (thing.item_id in skipped) == (index % 4 in skipped_shards)
        assert result.stats.items + result.stats.skipped_items == len(ITEMS)

    @settings(max_examples=60, deadline=None)
    @given(
        plan_specs=st.lists(specs, max_size=6),
        bombs=st.sets(st.integers(min_value=0, max_value=len(ITEMS) - 1), max_size=2),
    )
    def test_shard_is_skipped_iff_every_worker_fails_it(self, plan_specs, bombs):
        """Attempts run in order until one succeeds; a shard is skipped
        exactly when every worker's attempt on it failed — injected by the
        plan, or real (a bomb item raises on every worker)."""
        n = 4
        items = [item(f"bomb {thing.title}", thing.item_id) if k in bombs else thing
                 for k, thing in enumerate(ITEMS)]
        plan = FaultPlan(plan_specs)
        result = PartitionedExecutor(RULES + [BOMB], n_workers=n, fault_plan=plan).run(items)
        skipped_ids = set(result.stats.skipped_item_ids)
        for shard in range(n):
            real = any(k % n == shard for k in bombs)
            fails = [real or plan.fault_for((shard + a) % n, shard, a) is not None
                     for a in range(n)]
            tried = range(n) if all(fails) else range(fails.index(False))
            assert [(e.attempt, e.worker_id) for e in shard_events(result, shard)] == [
                (a, (shard + a) % n) for a in tried
            ]
            skipped = any(e.action == "skip" for e in shard_events(result, shard))
            assert skipped == all(fails)
            shard_ids = {thing.item_id for thing in items[shard::n]}
            assert (shard_ids <= skipped_ids) if skipped else not (shard_ids & skipped_ids)
        assert result.stats.retries == sum(
            1 for e in result.fault_events if e.action == "retry"
        )


class TestChaosSeed:
    """CI chaos-job entry point: a randomized-but-logged fault plan seed.

    The workflow exports REPRO_CHAOS_SEED (and prints it in the job log),
    so any failure is replayable locally with the same seed.
    """

    def test_chaos_plan_from_environment_seed(self):
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "0xC0FFEE"), 0)
        plan = FaultPlan.random_plan(seed=seed, n_workers=4, rate=0.5,
                                     max_faulted_attempts=3, spare_workers=1)
        print(f"chaos fault-plan seed={seed}: {plan.describe()}")
        result = PartitionedExecutor(RULES, n_workers=4, fault_plan=plan).run(ITEMS)
        assert not result.degraded, f"seed={seed}\n{plan.describe()}"
        assert result.fired == BASELINE


class TestSingleNodeDegradedMode:
    """Item-level on_error="skip" on the single-node executors."""

    def _poisoned_items(self):
        return ITEMS[:3] + [ProductItem(item_id="bad", title=None)] + ITEMS[3:]

    @pytest.mark.parametrize("executor_cls", [NaiveExecutor, IndexedExecutor])
    def test_bad_record_is_skipped_not_fatal(self, executor_cls):
        fired, stats = executor_cls(RULES, on_error="skip").run(self._poisoned_items())
        assert fired == BASELINE
        assert stats.skipped_items == 1
        assert stats.skipped_item_ids == ["bad"]
        assert stats.items == len(ITEMS) + 1  # every row is accounted for

    def test_bad_record_raises_by_default(self):
        with pytest.raises(AttributeError):
            NaiveExecutor(RULES).run(self._poisoned_items())

    def test_failing_rule_skips_item_under_degraded_mode(self):
        bomb = PredicateRule(
            [Clause("explodes", lambda item: 1 / 0)], "t", rule_id="pred-bomb"
        )
        fired, stats = NaiveExecutor(RULES + [bomb], on_error="skip").run(ITEMS)
        assert fired == {}  # the bomb fires on every item, so all are skipped
        assert stats.skipped_items == len(ITEMS)
        with pytest.raises(ZeroDivisionError):
            NaiveExecutor(RULES + [bomb]).run(ITEMS)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            NaiveExecutor(RULES, on_error="ignore")

    def test_stats_merge_carries_resilience_ledger(self):
        a, b = ExecutionStats(), ExecutionStats()
        a.retries, a.skipped_items, a.skipped_item_ids = 2, 1, ["x"]
        b.retries, b.skipped_items, b.skipped_item_ids = 1, 2, ["y", "z"]
        a.merge(b)
        assert (a.retries, a.skipped_items, a.skipped_item_ids) == (3, 3, ["x", "y", "z"])
