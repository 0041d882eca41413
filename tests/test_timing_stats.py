"""Timing/stats bugfix sweep: merge semantics and retry accounting.

The audit this PR ships found two sharp edges in the stats layer:

1. ``ExecutionStats.merge`` silently mixed additive CPU totals with the
   non-additive driver wall clock — callers had to know to fix up
   ``wall_time`` by hand. ``merge`` now takes an explicit ``wall=`` mode
   (keep / sum / max) and documents which fields are additive.
2. The partitioned executor's retry path had an undocumented (and
   previously untested) invariant: a retried shard's *failed* attempts run
   real work (a corrupt-output attempt executes the full shard before the
   driver rejects it), and that work must never leak into the merged
   ``match_time`` / ``compile_time``. These tests pin the invariant with a
   deterministic TickClock: every timing assertion is exact, not a range.
"""

import pytest

from repro.catalog.types import ProductItem
from repro.core import AttributeRule, SequenceRule, parse_rules
from repro.execution import NaiveExecutor, PartitionedExecutor
from repro.execution.executor import ExecutionStats
from repro.execution.resilience import RetryPolicy
from repro.testing import FaultPlan, VirtualSleeper
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
        RULES,
        n_workers=N_WORKERS,
        fault_plan=plan,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay=0.01, multiplier=2.0,
            max_delay=1.0, jitter=0.5,
        ),
        sleep=VirtualSleeper(),
        clock=clock,
    )
    return executor.run_detailed(ITEMS)


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

    def test_wall_max_composes_in_parallel(self):
        a, b = self.make(wall_time=5.0), self.make(wall_time=7.0)
        a.merge(b, wall="max")
        assert a.wall_time == 7.0
        b.merge(a, wall="max")
        assert b.wall_time == 7.0

    def test_invalid_wall_mode_rejected(self):
        with pytest.raises(ValueError, match="wall must be one of"):
            self.make().merge(self.make(), wall="average")


class TestPartitionedTimingInvariant:
    """Retried shards must not double-count the additive CPU totals.

    Tokenization is fused into matching, so the fields the engine fills
    are ``match_time`` (per shard) and ``compile_time`` (the one shard
    attempt that lowers the rule set). Every in-process shard attempt
    reads the TickClock four times (shard start, execute start/end, shard
    end), so each *accepted* attempt contributes exactly ``match=STEP``
    and ``wall=3*STEP``; the lowering attempt reads it twice more first
    (``compile=STEP``); the driver's sharding pass reads it twice
    (``driver_prepare_time == STEP``, the only prepare time there is).
    The totals below are therefore exact equalities — any leak from a
    rejected attempt would show up as an extra STEP.
    """

    def assert_healthy_totals(self, result):
        assert result.stats.prepare_time == pytest.approx(STEP)  # driver pass
        assert result.stats.match_time == pytest.approx(N_WORKERS * STEP)
        assert result.stats.compile_time == pytest.approx(STEP)

    def test_healthy_run_timing(self):
        result = run_partitioned(clock=TickClock(step=STEP))
        assert result.fired == BASELINE
        assert result.driver_prepare_time == pytest.approx(STEP)
        self.assert_healthy_totals(result)
        for report in result.reports:
            assert report.match_time == pytest.approx(STEP)
            assert report.wall_time == pytest.approx(3 * STEP)

    def test_corrupt_retry_does_not_double_count(self):
        # A corrupt fault RUNS the real shard (tokenize + match) and then
        # mangles the output; the driver rejects it and retries on the
        # next worker. That rejected attempt's CPU time must not appear
        # anywhere in the merged totals.
        plan = FaultPlan().corrupt(shard=1, attempt=0, detail="alien-item")
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.fired == BASELINE  # retry recovered the shard
        assert result.total_retries == 1
        assert result.stats.retries == 1
        self.assert_healthy_totals(result)
        retried = [r for r in result.reports if r.retries]
        assert len(retried) == 1 and retried[0].shard_id == 1
        # The retried shard's report shows the accepted attempt's timing
        # only — identical to its never-failed peers.
        assert retried[0].match_time == pytest.approx(STEP)
        assert retried[0].wall_time == pytest.approx(3 * STEP)

    def test_rejected_lowering_attempt_does_not_leak_compile_time(self):
        # Shard 0's first attempt is the one that lowers the rule set; it
        # is then rejected as corrupt. The artifact stays (the retry does
        # not lower again) but the rejected attempt's compile time goes
        # with the rest of its stats.
        plan = FaultPlan().corrupt(shard=0, attempt=0, detail="alien-item")
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.fired == BASELINE
        assert result.stats.compile_time == 0.0
        assert result.stats.match_time == pytest.approx(N_WORKERS * STEP)

    def test_crash_retry_timing_matches_healthy_run(self):
        # Crashes never execute the shard at all (shard 1 lowers instead);
        # with VirtualSleeper the backoff is virtual too, so the CPU
        # totals match a healthy run.
        plan = FaultPlan().crash(shard=0, attempt=0)
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.fired == BASELINE
        self.assert_healthy_totals(result)

    def test_skipped_shard_contributes_no_time(self):
        # Shard 2 fails all attempts: its work is dropped, so the merged
        # match total is one shard short.
        plan = FaultPlan().crash(shard=2)
        result = run_partitioned(plan=plan, clock=TickClock(step=STEP))
        assert result.degraded and result.skipped_shards == [2]
        assert result.stats.prepare_time == pytest.approx(STEP)
        assert result.stats.match_time == pytest.approx((N_WORKERS - 1) * STEP)
        skipped = [r for r in result.reports if not r.ok]
        assert skipped[0].match_time == 0.0
        assert skipped[0].wall_time == 0.0

    def test_driver_owns_wall_time(self):
        # wall_time is the driver's elapsed clock, not the sum of shard
        # walls: with the TickClock it is strictly greater than any one
        # shard's wall and not equal to their sum plus driver prepare.
        result = run_partitioned(clock=TickClock(step=STEP))
        shard_wall_sum = sum(r.wall_time for r in result.reports)
        assert result.stats.wall_time > max(r.wall_time for r in result.reports)
        assert result.stats.wall_time != pytest.approx(
            shard_wall_sum + result.driver_prepare_time
        )
