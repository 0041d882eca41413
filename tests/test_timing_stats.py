"""Timing/stats sweep: merge semantics and retry accounting.

1. ``ExecutionStats.merge`` keeps additive CPU totals apart from the
   non-additive wall clock: it takes an explicit ``wall=`` mode (keep /
   sum) and documents which fields are additive.
2. The partitioned executor's retry path: a failed attempt may run real
   work (a corrupt-output attempt executes the full shard before the
   driver rejects it), and that work must never leak into the merged
   ``match_time`` / ``compile_time``. These tests pin the invariant with a
   deterministic TickClock: every timing assertion is exact, not a range.
"""

import pytest

from repro.catalog.types import ProductItem
from repro.core import AttributeRule, SequenceRule, parse_rules
from repro.execution import FaultPlan, NaiveExecutor, PartitionedExecutor
from repro.execution.executor import ExecutionStats
from repro.utils.clock import TickClock


def item(title, **attrs):
    return ProductItem(
        item_id=f"i-{abs(hash(title)) % 10**8}", title=title, attributes=attrs
    )


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
    item("blue denim jeans 32x30"),
]

BASELINE, _ = NaiveExecutor(RULES).run(ITEMS)

N_WORKERS = 3
STEP = 0.25


def run_partitioned(plan=None, clock=None):
    executor = PartitionedExecutor(
        RULES, n_workers=N_WORKERS, fault_plan=plan, clock=clock
    )
    return executor.run(ITEMS)


class TestMergeSemantics:
    def make(self, **overrides):
        stats = ExecutionStats(
            items=2, rule_evaluations=10, matches=3, wall_time=5.0,
            prepare_time=1.0, match_time=2.0, retries=1, skipped_items=1,
            skipped_item_ids=["x"], cache_hits=4, cache_misses=2,
            invalidations=1, delta_rules=1, delta_items=2,
        )
        for key, value in overrides.items():
            setattr(stats, key, value)
        return stats

    def test_additive_fields_sum(self):
        a, b = self.make(), self.make()
        a.merge(b)
        assert a.items == 4
        assert a.rule_evaluations == 20
        assert a.matches == 6
        assert a.prepare_time == 2.0
        assert a.match_time == 4.0
        assert a.retries == 2
        assert a.skipped_items == 2
        assert a.skipped_item_ids == ["x", "x"]
        assert a.cache_hits == 8 and a.cache_misses == 4
        assert a.invalidations == 2
        assert a.delta_rules == 2 and a.delta_items == 4

    def test_wall_keep_is_default(self):
        a, b = self.make(wall_time=5.0), self.make(wall_time=7.0)
        a.merge(b)
        assert a.wall_time == 5.0  # untouched: the caller owns elapsed time

    def test_wall_sum_composes_serially(self):
        a, b = self.make(wall_time=5.0), self.make(wall_time=7.0)
        a.merge(b, wall="sum")
        assert a.wall_time == 12.0

    def test_invalid_wall_mode_rejected(self):
        with pytest.raises(ValueError, match="wall must be one of"):
            self.make().merge(self.make(), wall="average")


class TestPartitionedTimingInvariant:
    """Failed attempts must not double-count the additive CPU totals.

    Tokenization is fused into matching, so the fields the engine fills
    are ``match_time`` (two TickClock reads per executed attempt) and
    ``compile_time`` (two reads, once per run that lowers). The driver
    reads the clock once at the start and once at the end of the run, so
    a healthy run's ``wall_time`` is ``(3 + 2 * N_WORKERS) * STEP``. The
    totals below are exact equalities — any leak from a rejected attempt
    would show up as an extra STEP.
    """

    def assert_healthy_totals(self, result):
        assert result.stats.prepare_time == 0.0  # dealing is not timed
        assert result.stats.match_time == pytest.approx(N_WORKERS * STEP)
        assert result.stats.compile_time == pytest.approx(STEP)

    def test_healthy_run_timing(self):
        result = run_partitioned(clock=TickClock(step=STEP))
        assert result.fired == BASELINE
        self.assert_healthy_totals(result)
        assert result.stats.wall_time == pytest.approx((3 + 2 * N_WORKERS) * STEP)

    def test_corrupt_retry_does_not_double_count(self):
        # A corrupt fault RUNS the real shard (tokenize + match) and then
        # mangles the output; the driver rejects it and retries on the
        # next worker. That rejected attempt's CPU time must not appear
        # anywhere in the merged totals.
        plan = FaultPlan().corrupt(shard=1, attempt=0, detail="alien-item")
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.fired == BASELINE  # retry recovered the shard
        assert [(e.shard_id, e.kind, e.action) for e in result.fault_events] == [
            (1, "corrupt", "retry"),
        ]
        assert result.stats.retries == 1
        self.assert_healthy_totals(result)

    def test_rejected_lowering_attempt_does_not_leak_compile_time(self):
        # The rule set is lowered once by the driver, before any attempt:
        # rejecting shard 0's first attempt neither repeats nor drops the
        # lowering, and the rejected attempt's match time goes with it.
        plan = FaultPlan().corrupt(shard=0, attempt=0, detail="alien-item")
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.fired == BASELINE
        assert result.stats.compile_time == pytest.approx(STEP)
        assert result.stats.match_time == pytest.approx(N_WORKERS * STEP)

    def test_crash_retry_timing_matches_healthy_run(self):
        # Crashes never execute the shard at all, so even the driver's
        # wall clock matches a healthy run.
        plan = FaultPlan().crash(shard=0, attempt=0)
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.fired == BASELINE
        self.assert_healthy_totals(result)
        healthy = run_partitioned(clock=TickClock(step=STEP))
        assert result.stats.wall_time == healthy.stats.wall_time

    def test_skipped_shard_contributes_no_time(self):
        # Shard 2 fails on every worker: its work is dropped, so the merged
        # match total is one shard short.
        plan = FaultPlan().crash(shard=2)
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.degraded
        assert result.stats.match_time == pytest.approx((N_WORKERS - 1) * STEP)
        assert result.shard_evaluations[2] == 0

    def test_driver_owns_wall_time(self):
        # wall_time is the driver's elapsed clock: a rejected attempt costs
        # it two reads, though none of its match time is kept.
        plan = FaultPlan().corrupt(shard=1, attempt=0)
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.stats.wall_time == pytest.approx((3 + 2 * (N_WORKERS + 1)) * STEP)
        assert result.stats.match_time == pytest.approx(N_WORKERS * STEP)
