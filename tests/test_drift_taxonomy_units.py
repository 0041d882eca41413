"""Direct unit coverage for ``catalog/drift.py`` and
``maintenance/taxonomy_change.py`` (previously exercised only through
examples and the scenario harness): drift-schedule boundary batches,
and split/merge plans over empty and single-rule rule sets.
"""

import pytest

from repro.catalog import CatalogGenerator, DriftInjector, build_seed_taxonomy
from repro.catalog.types import ProductItem
from repro.core import RuleSet, WhitelistRule
from repro.maintenance import apply_plan, plan_for_merge, plan_for_split
from repro.scenario import loads, run_scenario


def item(title, true_type=""):
    return ProductItem(item_id=title[:40], title=title, true_type=true_type)


@pytest.fixture()
def generator():
    return CatalogGenerator(build_seed_taxonomy(), seed=7)


@pytest.fixture()
def drift(generator):
    return DriftInjector(generator, seed=7)


class TestDriftInjectorUnits:
    def test_extend_slot_appends_and_keeps_old_phrases(self, generator, drift):
        before = set(generator.taxonomy.get("jeans").slot("fit"))
        drift.extend_slot("jeans", "fit", ["paperbag", "balloon fit"])
        after = set(generator.taxonomy.get("jeans").slot("fit"))
        assert before <= after
        assert {"paperbag", "balloon fit"} <= after

    def test_replace_slot_discards_old_vocabulary(self, generator, drift):
        drift.replace_slot("jeans", "fit", ["paperbag"])
        assert generator.taxonomy.get("jeans").slot("fit") == ("paperbag",)

    def test_unknown_type_raises_key_error(self, drift):
        with pytest.raises(KeyError):
            drift.extend_slot("no-such-type", "fit", ["x"])

    def test_shift_distribution_changes_effective_weight(self, generator, drift):
        jeans = generator.taxonomy.get("jeans")
        baseline = generator.effective_weight(jeans)
        drift.shift_distribution({"jeans": 9.0})
        assert generator.effective_weight(jeans) == pytest.approx(baseline * 9.0 / jeans.weight)

    def test_surge_department_scales_only_that_department(self, generator, drift):
        jeans = generator.taxonomy.get("jeans")       # clothing
        tvs = generator.taxonomy.get("televisions")   # electronics
        jeans_before = generator.effective_weight(jeans)
        tvs_before = generator.effective_weight(tvs)
        drift.surge_department("clothing", 3.0)
        assert generator.effective_weight(jeans) == pytest.approx(jeans_before * 3.0)
        assert generator.effective_weight(tvs) == pytest.approx(tvs_before)

    def test_split_type_removes_old_and_divides_weight(self, generator, drift):
        old_weight = generator.taxonomy.get("work pants").weight
        _event, replacements = drift.split_type(
            "work pants",
            {"cargo pants": ["cargo"], "workwear pants": ["canvas"]},
        )
        assert "work pants" not in generator.taxonomy
        assert {t.name for t in replacements} == {"cargo pants", "workwear pants"}
        for new_type in replacements:
            assert new_type.weight == pytest.approx(old_weight / 2)

    def test_events_are_recorded_in_order(self, drift):
        drift.extend_slot("jeans", "fit", ["a"])
        drift.surge_department("home", 2.0)
        assert [e.kind for e in drift.events] == ["extend_slot", "surge_department"]


class TestDriftScheduleBoundaries:
    """at_batch boundaries through the scenario runner: index 0 applies
    before the first batch, index batches-1 before the last."""

    def spec(self, at_batch):
        return loads(
            "name: boundary\n"
            "seed: 3\n"
            "catalog:\n"
            "  obvious_rule_types: ['*']\n"
            "traffic:\n"
            "  batches: 3\n"
            "drift:\n"
            f"  - at_batch: {at_batch}\n"
            "    op: surge_department\n"
            "    department: home\n"
            "    factor: 2.0\n"
        )

    def test_first_batch_boundary(self):
        report = run_scenario(self.spec(0))
        assert report.drift_events[0]["at_batch"] == 0

    def test_last_batch_boundary(self):
        report = run_scenario(self.spec(2))
        assert report.drift_events[0]["at_batch"] == 2

    def test_past_the_end_is_rejected_at_load_time(self):
        from repro.scenario import SpecError

        with pytest.raises(SpecError, match="past the last"):
            self.spec(3)


class TestSplitMergeEdgeCases:
    def test_split_over_empty_ruleset_plans_nothing(self):
        plan = plan_for_split([], "pants", ["jeans", "work pants"], [])
        assert plan.invalidated == []
        assert plan.retargets == {}
        assert plan.undecidable == []
        assert apply_plan([], plan) == []

    def test_split_single_rule_with_no_samples_is_undecidable(self):
        rule = WhitelistRule("pants?", "pants")
        plan = plan_for_split([rule], "pants", ["jeans", "work pants"], [])
        assert plan.invalidated == [rule.rule_id]
        assert plan.undecidable == [rule.rule_id]
        ruleset = RuleSet([rule])
        disabled = apply_plan([ruleset], plan)
        assert [r.rule_id for r in disabled] == [rule.rule_id]
        assert not ruleset.is_enabled(rule.rule_id)

    def test_split_single_rule_with_pure_samples_retargets(self):
        rule = WhitelistRule("denim pants?", "pants")
        samples = [item(f"denim pants {i}", "jeans") for i in range(4)]
        plan = plan_for_split([rule], "pants", ["jeans", "work pants"], samples)
        assert plan.retargets == {rule.rule_id: "jeans"}
        ruleset = RuleSet([rule])
        apply_plan([ruleset], plan)
        assert ruleset.get(rule.rule_id).target_type == "jeans"
        assert ruleset.is_enabled(rule.rule_id)

    def test_split_ignores_rules_for_other_types(self):
        bystander = WhitelistRule("tv", "televisions")
        plan = plan_for_split([bystander], "pants", ["jeans"], [])
        assert plan.invalidated == []

    def test_merge_over_empty_ruleset_plans_nothing(self):
        plan = plan_for_merge([], ["area rugs", "bath rugs"], "rugs")
        assert plan.invalidated == []
        assert plan.retargets == {}

    def test_merge_single_rule_retargets_without_undecidables(self):
        rule = WhitelistRule("bath rugs?", "bath rugs")
        plan = plan_for_merge([rule], ["area rugs", "bath rugs"], "rugs")
        assert plan.retargets == {rule.rule_id: "rugs"}
        assert plan.undecidable == []
        ruleset = RuleSet([rule])
        apply_plan([ruleset], plan)
        assert ruleset.get(rule.rule_id).target_type == "rugs"
        assert ruleset.is_enabled(rule.rule_id)

    def test_merge_needs_old_types(self):
        with pytest.raises(ValueError):
            plan_for_merge([], [], "rugs")

    def test_split_purity_threshold_boundary(self):
        """Exactly at the threshold counts as pure (>=)."""
        rule = WhitelistRule("pants?", "pants")
        samples = (
            [item(f"blue pants {i}", "jeans") for i in range(4)]
            + [item("work pants 0", "work pants")]
        )
        plan = plan_for_split(
            [rule], "pants", ["jeans", "work pants"], samples,
            purity_threshold=0.8, min_matches=3,
        )
        assert plan.retargets == {rule.rule_id: "jeans"}
