"""Observability is strictly observational: on/off runs are byte-identical.

The load-bearing property of the whole layer (DESIGN.md §8): attaching a
tracer + metrics registry to an executor — or to the Chimera pipeline —
must not change a single byte of output. These tests run the sharded and
the delta executor twice over the golden corpus (observability off, then on with a
deterministic TickClock) and compare canonical-JSON fired maps, plus a
hypothesis sweep over random rule/item subsets so the property is not an
artifact of one fixed corpus.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core.serialize import rules_from_dicts
from repro.execution import (
    FaultPlan,
    IncrementalExecutor,
    PartitionedExecutor,
)
from repro.observability import Observability
from repro.utils.clock import TickClock

GOLDEN = pathlib.Path(__file__).parent / "golden"


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_items():
    records = json.loads((GOLDEN / "catalog.json").read_text())
    return [
        ProductItem(
            item_id=r["item_id"],
            title=r["title"],
            attributes=r["attributes"],
            true_type=r["true_type"],
            vendor=r["vendor"],
            description=r["description"],
        )
        for r in records
    ]


ITEMS = load_items()
RULES = rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))


def observed():
    return Observability(clock=TickClock(step=0.001))


def run_partitioned(rules, items, obs):
    return PartitionedExecutor(rules, n_workers=3, observability=obs).run(items).fired


def run_incremental(rules, items, obs):
    executor = IncrementalExecutor(rules, items, observability=obs)
    return dict(executor.fired_map())


EXECUTOR_RUNNERS = {
    "partitioned": run_partitioned,
    "incremental": run_incremental,
}


class TestGoldenCorpusOnOffIdentity:
    @pytest.mark.parametrize("name", sorted(EXECUTOR_RUNNERS))
    def test_fired_map_byte_identical(self, name):
        runner = EXECUTOR_RUNNERS[name]
        plain = runner(RULES, ITEMS, None)
        obs = observed()
        traced = runner(RULES, ITEMS, obs)
        assert canonical(traced) == canonical(plain)
        # The instrumented run genuinely recorded something.
        assert obs.tracer.spans
        assert obs.metrics.snapshot()

    def test_partitioned_identity_under_retry(self):
        # Even with a fault-triggered retry, tracing must not perturb the
        # recovered output.
        plan_off = FaultPlan().corrupt(shard=1, attempt=0, detail="alien-item")
        plan_on = FaultPlan().corrupt(shard=1, attempt=0, detail="alien-item")
        plain = PartitionedExecutor(RULES, n_workers=3, fault_plan=plan_off).run(ITEMS).fired
        traced = PartitionedExecutor(
            RULES, n_workers=3, fault_plan=plan_on, observability=observed(),
        ).run(ITEMS).fired
        assert canonical(traced) == canonical(plain)

    def test_chimera_stage_spans_do_not_change_labels(self):
        from repro.chimera import Chimera

        batch = ITEMS[:40]
        plain = Chimera.build(seed=3)
        traced = Chimera.build(seed=3, observability=observed())
        plain_out = plain.classify_batch(batch)
        traced_out = traced.classify_batch(batch)
        assert [(r.item.item_id, r.label, r.source) for r in plain_out.results] == [
            (r.item.item_id, r.label, r.source) for r in traced_out.results
        ]
        assert [i.item_id for i in plain_out.rejected] == [
            i.item_id for i in traced_out.rejected
        ]


@settings(max_examples=25, deadline=None)
@given(
    rule_seed=st.integers(min_value=0, max_value=2**16),
    item_seed=st.integers(min_value=0, max_value=2**16),
    name=st.sampled_from(sorted(EXECUTOR_RUNNERS)),
)
def test_on_off_identity_on_random_subsets(rule_seed, item_seed, name):
    import random

    rules = random.Random(rule_seed).sample(RULES, k=min(20, len(RULES)))
    items = random.Random(item_seed).sample(ITEMS, k=min(30, len(ITEMS)))
    runner = EXECUTOR_RUNNERS[name]
    plain = runner(rules, items, None)
    traced = runner(rules, items, observed())
    assert canonical(traced) == canonical(plain)
