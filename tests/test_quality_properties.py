"""Telemetry-transparency properties (the ISSUE 5 acceptance bar).

The rule-quality telemetry layer is *strictly observational*: it records
attribution chains from values the pipeline computed anyway and never
feeds back into classification. These tests prove that contract:

1. Chimera labels are **byte-identical** with telemetry on or off — for
   the frozen golden corpus, untrained and fully trained;
2. executor fired maps are **byte-identical** with an Observability +
   attached quality telemetry vs. no observability at all, across all
   four executors — including the partitioned executor under
   fault-injected retries;
3. ``why``/``blame`` reconstruct the exact vote chain for every golden
   corpus item (winners fired, winners voted the final label, blame is
   the inverse of fired);
4. a vocabulary shift in the item stream raises a fire-rate-drift alert
   naming the starved rule.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.catalog.types import ProductItem
from repro.chimera import Chimera
from repro.core import AttributeRule, SequenceRule, parse_rules
from repro.core.serialize import rules_from_dicts
from repro.execution import (
    FaultPlan,
    IncrementalExecutor,
    IndexedExecutor,
    NaiveExecutor,
    PartitionedExecutor,
)
from repro.observability import Observability
from repro.observability.provenance import vote_rule_id
from repro.observability.quality import QualityTelemetry, RuleHealthTracker
from repro.utils.text import clear_caches

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_items():
    rows = json.loads((GOLDEN / "catalog.json").read_text())
    return [
        ProductItem(
            item_id=row["item_id"],
            title=row["title"],
            attributes=dict(row.get("attributes", {})),
            true_type=row.get("true_type", ""),
            vendor=row.get("vendor", ""),
            description=row.get("description", ""),
        )
        for row in rows
    ]


@pytest.fixture(scope="module")
def golden_rules():
    return rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))


def build_chimera(rules, seed=7, telemetry=False, train_items=()):
    chimera = Chimera.build(seed=seed)
    chimera.add_whitelist_rules(
        [r for r in rules if not r.is_blacklist and not r.is_constraint]
    )
    chimera.add_blacklist_rules([r for r in rules if r.is_blacklist])
    labeled = [item for item in train_items if item.true_type]
    if labeled:
        chimera.learning_stage.fit(
            [item.title for item in labeled], [item.true_type for item in labeled]
        )
    if telemetry:
        chimera.enable_quality_telemetry()
    return chimera


def classify_signature(chimera, items):
    """Everything an item's outcome consists of, in order."""
    result = chimera.classify_batch(list(items))
    signature = [(r.item.item_id, r.label, r.source) for r in result.results]
    signature.extend(
        (item.item_id, None, "gate-reject") for item in result.rejected
    )
    return signature


# ---------------------------------------------------------------------------
# 1. Chimera byte-identity
# ---------------------------------------------------------------------------


class TestChimeraByteIdentity:
    def test_untrained_pipeline(self, golden_items, golden_rules):
        clear_caches()
        plain = classify_signature(
            build_chimera(golden_rules, telemetry=False), golden_items
        )
        traced = classify_signature(
            build_chimera(golden_rules, telemetry=True), golden_items
        )
        assert plain == traced

    def test_trained_pipeline(self, golden_items, golden_rules):
        clear_caches()
        plain = classify_signature(
            build_chimera(
                golden_rules, telemetry=False, train_items=golden_items
            ),
            golden_items,
        )
        traced = classify_signature(
            build_chimera(
                golden_rules, telemetry=True, train_items=golden_items
            ),
            golden_items,
        )
        assert plain == traced

    def test_identity_survives_reclassification(self, golden_items, golden_rules):
        # Re-running the same batch must stay identical even as the
        # telemetry side accumulates state (ring buffer, health windows).
        plain = build_chimera(golden_rules, telemetry=False)
        traced = build_chimera(golden_rules, telemetry=True)
        for _ in range(3):
            assert classify_signature(plain, golden_items) == classify_signature(
                traced, golden_items
            )
        assert traced.quality.health.total_batches == 3


# ---------------------------------------------------------------------------
# 2. Executor fired-map identity (all four executors, faults included)
# ---------------------------------------------------------------------------


EXEC_RULES = parse_rules("""
    rings? -> rings
    (motor|engine) oils? -> motor oil
    denim.*jeans? -> jeans
    gold .* rings? -> rings
""") + [
    SequenceRule(("area", "rug"), "area rugs"),
    AttributeRule("isbn", "books"),
]


def exec_items(n=40):
    titles = [
        "diamond ring gold",
        "castrol motor oil 5 quart",
        "relaxed denim jeans",
        "shaw area rug 5x7",
        "gold diamond rings boxed",
        "engine oil treatment",
        "plain widget",
    ]
    return [
        ProductItem(
            item_id=f"x-{i:03d}",
            title=titles[i % len(titles)],
            attributes={"isbn": "978"} if i % 11 == 0 else {},
        )
        for i in range(n)
    ]


def quality_observability():
    observability = Observability()
    observability.attach_quality()
    return observability


class TestExecutorFiredMapIdentity:
    def test_naive(self):
        items = exec_items()
        plain, _ = NaiveExecutor(EXEC_RULES).run(items)
        obs = quality_observability()
        traced, _ = NaiveExecutor(EXEC_RULES, observability=obs).run(items)
        assert plain == traced
        assert obs.quality.health.total_batches == 1

    def test_indexed(self):
        items = exec_items()
        plain, _ = IndexedExecutor(EXEC_RULES).run(items)
        traced, _ = IndexedExecutor(
            EXEC_RULES, observability=quality_observability()
        ).run(items)
        assert plain == traced

    def test_incremental(self):
        items = exec_items()
        plain = IncrementalExecutor(rules=EXEC_RULES, items=items).fired_map()
        obs = quality_observability()
        traced = IncrementalExecutor(
            rules=EXEC_RULES, items=items, observability=obs
        ).fired_map()
        assert plain == traced

    def test_partitioned_under_fault_injected_retries(self):
        items = exec_items()
        plain = PartitionedExecutor(EXEC_RULES, n_workers=3).run(items).fired

        def faulted(observability):
            return PartitionedExecutor(
                EXEC_RULES,
                n_workers=3,
                fault_plan=FaultPlan().crash(worker=1).crash(worker=2),
                observability=observability,
            )

        recovered = faulted(None).run(items)
        assert plain == recovered.fired
        assert recovered.stats.retries > 0, "the fault plan should have forced retries"

        obs = quality_observability()
        traced = faulted(obs).run(items)
        assert plain == traced.fired
        assert traced.stats.retries > 0
        # The telemetry side really observed the run.
        assert obs.quality.health.fire_rate(EXEC_RULES[0].rule_id) > 0

    def test_random_fault_plans_keep_identity(self):
        items = exec_items(30)
        plain = PartitionedExecutor(EXEC_RULES, n_workers=4).run(items).fired
        for seed in range(5):
            traced = PartitionedExecutor(
                EXEC_RULES,
                n_workers=4,
                fault_plan=FaultPlan.random_plan(seed, n_workers=4, rate=0.4),
                observability=quality_observability(),
            ).run(items)
            assert plain == traced.fired, f"fired map diverged under fault seed {seed}"


# ---------------------------------------------------------------------------
# 3. Vote-chain reconstruction over the golden corpus
# ---------------------------------------------------------------------------


class TestGoldenVoteChain:
    @pytest.fixture(scope="class")
    def classified(self, golden_items, golden_rules):
        chimera = build_chimera(golden_rules, telemetry=True)
        result = chimera.classify_batch(golden_items, batch_id="golden")
        return chimera, result

    def test_every_item_has_a_complete_chain(self, classified, golden_items):
        chimera, result = classified
        assert len(chimera.quality.provenance) == len(golden_items)
        for item_result in result.results:
            chain = chimera.why(item_result.item.item_id)
            assert chain, f"no provenance for {item_result.item.item_id}"
            record = chain[-1]
            assert record.label == item_result.label
            assert record.source == item_result.source
            assert record.batch_id == "golden"

            fired = record.fired_rule_ids()
            winners = record.winning_rule_ids()
            assert set(winners) <= set(fired)
            if record.label is not None and record.source == "pipeline":
                assert record.final_vote is not None
                assert record.final_vote[0] == record.label
                # Each winner's stage really voted the final label.
                for winner in winners:
                    voted = [
                        label
                        for trace in record.stages
                        for label, _weight, source in trace.votes
                        if vote_rule_id(source) == winner
                    ]
                    assert record.label in voted
        for item in result.rejected:
            chain = chimera.why(item.item_id)
            assert chain and chain[-1].source == "gate-reject"
            assert chain[-1].label is None

    def test_blame_is_the_inverse_of_fired(self, classified):
        chimera, _result = classified
        log = chimera.quality.provenance
        fired_index = {}
        for record in log.records:
            for rule_id in record.fired_rule_ids():
                fired_index.setdefault(rule_id, []).append(record.item_id)
        assert fired_index, "expected the golden ruleset to fire somewhere"
        for rule_id, item_ids in fired_index.items():
            blamed = [record.item_id for record in chimera.blame(rule_id)]
            assert blamed == item_ids
        # And blame never invents records for silent rules.
        assert chimera.blame("no-such-rule") == []

    def test_health_totals_match_provenance(self, classified, golden_items):
        chimera, _result = classified
        health = chimera.quality.health
        assert health.total_batches == 1
        assert health.total_items == len(golden_items)
        fired_total = sum(
            len(record.fired_rule_ids())
            for record in chimera.quality.provenance.records
        )
        assert sum(health.total_fires.values()) == fired_total


# ---------------------------------------------------------------------------
# 4. Drift detection end to end
# ---------------------------------------------------------------------------


class TestDriftDetection:
    def test_vocabulary_shift_raises_fire_rate_drift(self):
        rules = parse_rules("""
            rings? -> rings
            lamps? -> lamps
        """)
        rings_id = rules[0].rule_id
        chimera = Chimera.build(seed=11)
        chimera.add_whitelist_rules(rules)
        tracker = RuleHealthTracker(
            window=8, baseline_batches=2, drift_min_delta=0.1, drift_tolerance=0.5
        )
        chimera.enable_quality_telemetry(QualityTelemetry(health=tracker))

        def batch(titles, tag):
            return [
                ProductItem(item_id=f"{tag}-{i}", title=title)
                for i, title in enumerate(titles)
            ]

        steady = ["gold ring", "brass lamp", "silver rings", "desk lamp"] * 5
        chimera.classify_batch(batch(steady, "b0"))
        chimera.classify_batch(batch(steady, "b1"))
        assert tracker.baseline is not None
        assert tracker.alerts == []

        # The catalog vocabulary shifts: "ring" disappears from titles.
        shifted = ["brass lamp", "floor lamp", "desk lamp", "lamp shade"] * 5
        chimera.classify_batch(batch(shifted, "b2"))

        drift = [a for a in tracker.alerts if a.kind == "fire-rate-drift"]
        assert drift, "vocabulary shift should raise a drift alert"
        assert rings_id in drift[0].rule_ids
        assert tracker.health(rings_id).drifted
