"""Golden regression corpus: frozen catalog + ruleset + fired map.

The three snapshots in ``tests/golden/`` are committed artifacts
(regenerated only deliberately, via ``tests/golden/make_golden.py``).
Every executor must reproduce the stored fired map **byte-for-byte** —
any diff here means matching semantics drifted, which in an industrial
rule system is a production incident, not a refactor detail.
"""

import json
import pathlib

import pytest

from repro.catalog.types import ProductItem
from repro.core.serialize import rules_from_dicts, rules_to_dicts
from repro.execution import (
    CompiledRuleSet,
    ExecutionStats,
    FaultPlan,
    NaiveExecutor,
    PartitionedExecutor,
    prepare_all,
)
from tests.candidate_reference import reference_evaluations

GOLDEN = pathlib.Path(__file__).parent / "golden"


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def golden_items():
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


@pytest.fixture(scope="module")
def golden_rules():
    return rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))


@pytest.fixture(scope="module")
def golden_fired_text():
    return (GOLDEN / "fired.json").read_text()


class TestGoldenSnapshotIntegrity:
    def test_catalog_is_canonically_formatted(self):
        text = (GOLDEN / "catalog.json").read_text()
        assert text == canonical(json.loads(text))

    def test_ruleset_round_trips_to_identical_bytes(self, golden_rules):
        stored = (GOLDEN / "ruleset.json").read_text()
        assert canonical(rules_to_dicts(golden_rules)) == stored

    def test_corpus_shape(self, golden_items, golden_rules, golden_fired_text):
        assert len(golden_items) == 120
        assert len(golden_rules) == 61
        kinds = {type(rule).__name__ for rule in golden_rules}
        assert kinds == {
            "WhitelistRule", "SequenceRule", "AttributeRule", "ValueConstraintRule",
        }
        fired = json.loads(golden_fired_text)
        item_ids = {item.item_id for item in golden_items}
        assert set(fired) <= item_ids
        assert len(fired) >= 100  # the corpus is not trivially empty


class TestExecutorsReproduceGoldenFiredMap:
    def test_naive(self, golden_items, golden_rules, golden_fired_text):
        fired, _ = NaiveExecutor(golden_rules).run(golden_items)
        assert canonical(fired) == golden_fired_text

    def test_indexed(self, golden_items, golden_rules, golden_fired_text):
        fired, _ = CompiledRuleSet(golden_rules).execute(golden_items)
        assert canonical(fired) == golden_fired_text

    @pytest.mark.parametrize("n_workers", [1, 3, 5])
    def test_partitioned(self, golden_items, golden_rules, golden_fired_text,
                         n_workers):
        result = PartitionedExecutor(golden_rules, n_workers=n_workers).run(golden_items)
        assert canonical(result.fired) == golden_fired_text

    def test_partitioned_with_a_dead_worker(self, golden_items, golden_rules,
                                            golden_fired_text):
        """Fault tolerance must not change a single fired byte."""
        result = PartitionedExecutor(
            golden_rules, n_workers=4, fault_plan=FaultPlan().crash(worker=2),
        ).run(golden_items)
        assert not result.degraded
        assert canonical(result.fired) == golden_fired_text


class TestCompiledPathReproducesGoldenFiredMap:
    """The compiled engine (DESIGN.md §5) against the same frozen corpus:
    every mode — batch, sharded, faulted, pooled, and incrementally
    churned — must reproduce the bytes NaiveExecutor stored, with the
    accounting the engine promises."""

    def test_compiled_indexed(self, golden_items, golden_rules,
                              golden_fired_text):
        stats = ExecutionStats()
        fired, _ = CompiledRuleSet(golden_rules).execute(golden_items, stats=stats)
        assert canonical(fired) == golden_fired_text
        assert stats.items == len(golden_items) and stats.match_time > 0.0

    def test_compiled_matches_interpreted_evaluation_count(
            self, golden_items, golden_rules):
        interpreted = sum(
            reference_evaluations(golden_rules, item) for item in golden_items
        )
        _, compiled = CompiledRuleSet(golden_rules).execute(golden_items)
        assert compiled.rule_evaluations == interpreted

    @pytest.mark.parametrize("n_workers", [1, 3, 5])
    def test_compiled_partitioned(self, golden_items, golden_rules,
                                  golden_fired_text, n_workers):
        result = PartitionedExecutor(
            golden_rules, n_workers=n_workers
        ).run(prepare_all(golden_items))
        assert canonical(result.fired) == golden_fired_text
        assert result.stats.compile_time > 0.0
        assert result.stats.items == len(golden_items)

    def test_compiled_partitioned_with_a_dead_worker(
            self, golden_items, golden_rules, golden_fired_text):
        result = PartitionedExecutor(
            golden_rules, n_workers=4, fault_plan=FaultPlan().crash(worker=2),
        ).run(golden_items)
        assert not result.degraded
        assert canonical(result.fired) == golden_fired_text

    def test_incremental_churn_cycle_returns_to_golden(
            self, golden_items, golden_rules, golden_fired_text):
        """Remove five rules, add equivalent copies back: once the ruleset
        is semantically restored, the compiled incremental view must be
        byte-identical to the frozen map again."""
        from repro.execution import IncrementalExecutor

        rules = rules_from_dicts(rules_to_dicts(golden_rules))
        executor = IncrementalExecutor(rules=rules, items=golden_items)
        churned = rules[:5]
        executor.remove_rules([rule.rule_id for rule in churned])
        readded = rules_from_dicts(rules_to_dicts(churned))
        executor.add_rules(readded)
        assert canonical(executor.fired_map()) == golden_fired_text


class TestGoldenScenarios:
    """Frozen scenario health reports (tests/golden/scenarios/).

    A scenario report is a pure function of (spec, seed); these snapshots
    pin the whole event loop — stream draws, drift, churn, classification,
    fired-map digests, exit evaluation — byte-for-byte. Regenerate only
    deliberately via ``tests/golden/scenarios/make_scenarios.py``.
    """

    SCENARIOS = ("golden-quiet", "golden-eventful")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_report_matches_snapshot_byte_for_byte(self, name):
        from repro.scenario import load_scenario, run_scenario

        spec_path = GOLDEN / "scenarios" / f"{name}.yaml"
        frozen = (GOLDEN / "scenarios" / f"{name}.report.json").read_text()
        report = run_scenario(load_scenario(str(spec_path)))
        assert report.to_json() == frozen

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_snapshot_passed_its_exit_conditions(self, name):
        frozen = json.loads(
            (GOLDEN / "scenarios" / f"{name}.report.json").read_text()
        )
        assert frozen["passed"] is True
