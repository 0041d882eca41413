"""Tests for rule maintenance: subsumption, overlap, staleness, taxonomy
change, and consolidation."""

import pytest

from repro.catalog.types import ProductItem
from repro.core import BlacklistRule, RuleSet, SequenceRule, WhitelistRule
from repro.maintenance import (
    StalenessMonitor,
    apply_plan,
    consolidate_rules,
    faulty_branches,
    find_overlaps,
    find_subsumptions,
    localization_cost,
    plan_for_split,
    prune_redundant,
    split_consolidated,
)
from repro.repository import RuleRepository


def item(title, true_type=""):
    return ProductItem(item_id=title[:30], title=title, true_type=true_type)


class TestSubsumption:
    def test_paper_example_syntactic(self):
        general = WhitelistRule("jeans?", "jeans")
        specific = WhitelistRule("denim.*jeans?", "jeans")
        pairs = find_subsumptions([general, specific])
        assert len(pairs) == 1
        assert pairs[0].general_id == general.rule_id
        assert pairs[0].redundant_id == specific.rule_id
        assert pairs[0].evidence == "syntactic"

    def test_sequence_rule_subsumption(self):
        general = SequenceRule(("jeans",), "jeans")
        specific = SequenceRule(("denim", "jeans"), "jeans")
        pairs = find_subsumptions([general, specific])
        assert [(p.general_id, p.redundant_id) for p in pairs] == [
            (general.rule_id, specific.rule_id)
        ]

    def test_different_targets_never_subsume(self):
        a = WhitelistRule("jeans?", "jeans")
        b = WhitelistRule("denim.*jeans?", "denim wear")
        assert find_subsumptions([a, b]) == []

    def test_empirical_subsumption(self):
        general = WhitelistRule("(gold|silver) rings?", "rings")
        specific = WhitelistRule("gold rings?", "rings")
        items = [item(f"gold ring {i}") for i in range(5)] + [item("silver ring")]
        pairs = find_subsumptions([general, specific], items)
        empirical = [p for p in pairs if p.evidence.startswith("empirical")]
        assert len(empirical) == 1
        assert empirical[0].redundant_id == specific.rule_id

    def test_prune_redundant(self):
        general = WhitelistRule("jeans?", "jeans")
        specific = WhitelistRule("denim.*jeans?", "jeans")
        pairs = find_subsumptions([general, specific])
        kept = prune_redundant([general, specific], pairs)
        assert kept == [general]


class TestOverlap:
    def test_paper_example_overlap(self):
        a = WhitelistRule("(abrasive|sanding)[ ](wheels?|discs?)", "abrasive wheels & discs")
        b = WhitelistRule("abrasive.*(wheels?|discs?)", "abrasive wheels & discs")
        items = [item("abrasive wheel 60 grit"), item("abrasive grinding disc"),
                 item("sanding disc"), item("flap wheel")]
        pairs = find_overlaps([a, b], items, threshold=0.3, min_shared=1)
        assert len(pairs) == 1
        assert pairs[0].shared == 1  # "abrasive wheel" matches both forms

    def test_threshold_filters(self):
        a = WhitelistRule("rings?", "rings")
        b = WhitelistRule("gold", "rings")
        items = [item("gold ring"), item("gold ring 2"), item("silver ring"),
                 item("gold chain"), item("ring box")]
        assert find_overlaps([a, b], items, threshold=0.9) == []
        assert find_overlaps([a, b], items, threshold=0.3)

    def test_blacklists_ignored(self):
        a = BlacklistRule("rings?", "rings")
        b = BlacklistRule("rings?", "rings")
        assert find_overlaps([a, b], [item("a ring")]) == []


class TestStaleness:
    def test_imprecise_rule_flagged(self):
        monitor = StalenessMonitor(window_batches=3, precision_floor=0.9)
        rule = WhitelistRule("rings?", "rings")
        good = [item(f"ring {i}", "rings") for i in range(6)]
        bad = [item(f"key ring {i}", "keychains") for i in range(6)]
        monitor.observe_batch([rule], good + bad)
        flagged = monitor.imprecise_rules(min_hits=5)
        assert [health.rule_id for health in flagged] == [rule.rule_id]
        assert flagged[0].precision == pytest.approx(0.5)

    def test_precision_window_rolls(self):
        monitor = StalenessMonitor(window_batches=2, precision_floor=0.9)
        rule = WhitelistRule("rings?", "rings")
        monitor.observe_batch([rule], [item("key ring", "keychains")] * 6)
        monitor.observe_batch([rule], [item("gold ring", "rings")] * 6)
        monitor.observe_batch([rule], [item("gold ring", "rings")] * 6)
        # Window no longer contains the bad batch.
        assert monitor.imprecise_rules(min_hits=5) == []

    def test_inapplicable_rule_flagged(self):
        monitor = StalenessMonitor(window_batches=10)
        rule = WhitelistRule("pagers?", "pagers")
        for _ in range(5):
            monitor.observe_batch([rule], [item("smartphone", "smart phones")])
        flagged = monitor.inapplicable_rules(idle_batches=5)
        assert [health.rule_id for health in flagged] == [rule.rule_id]

    def test_verified_correct_overrides_ground_truth(self):
        monitor = StalenessMonitor(window_batches=3, precision_floor=0.9)
        rule = WhitelistRule("rings?", "rings")
        items = [item(f"ring {i}", "rings") for i in range(10)]
        monitor.observe_batch([rule], items, verified_correct={rule.rule_id: 2})
        health = monitor.health(rule.rule_id)
        assert health.correct == 2

    def test_unknown_rule(self):
        with pytest.raises(KeyError):
            StalenessMonitor().health("nope")


class TestTaxonomyChange:
    def setup_method(self):
        self.pants_rule = WhitelistRule("pants?", "pants")
        self.jeans_rule = WhitelistRule("denim pants?", "pants")
        self.sample = (
            [item(f"denim pants {i}", "jeans") for i in range(5)]
            + [item(f"cargo work pants {i}", "work pants") for i in range(5)]
        )

    def test_plan_invalidates_and_retargets(self):
        plan = plan_for_split(
            [self.pants_rule, self.jeans_rule], "pants",
            ["jeans", "work pants"], self.sample,
        )
        assert set(plan.invalidated) == {self.pants_rule.rule_id, self.jeans_rule.rule_id}
        # "denim pants" rules land purely in jeans -> retarget proposal.
        assert plan.retargets[self.jeans_rule.rule_id] == "jeans"
        # the broad "pants" rule covers both new types -> undecidable.
        assert self.pants_rule.rule_id in plan.undecidable

    def test_apply_plan(self):
        plan = plan_for_split(
            [self.pants_rule, self.jeans_rule], "pants",
            ["jeans", "work pants"], self.sample,
        )
        ruleset = RuleSet([self.pants_rule, self.jeans_rule])
        disabled = apply_plan([ruleset], plan)
        assert ruleset.get(self.jeans_rule.rule_id).target_type == "jeans"
        assert [rule.rule_id for rule in disabled] == [self.pants_rule.rule_id]
        assert not ruleset.is_enabled(self.pants_rule.rule_id)

    def test_apply_plan_is_logged_by_a_bound_repository(self):
        """The migration goes through the rule set's mutators, so the
        repository logs the disable and the replace, and its snapshot of
        the set agrees with the set."""
        plan = plan_for_split(
            [self.pants_rule, self.jeans_rule], "pants",
            ["jeans", "work pants"], self.sample,
        )
        ruleset = RuleSet([self.pants_rule, self.jeans_rule])
        repo = RuleRepository()
        repo.bind("chimera", ruleset)
        seen = len(repo.log)
        apply_plan([ruleset], plan)
        assert [(e.op, e.rule_id) for e in list(repo.log)[seen:]] == [
            ("disable", self.pants_rule.rule_id),
            ("replace", self.jeans_rule.rule_id),
        ]
        assert repo.rule_payload("chimera", self.jeans_rule.rule_id)["target_type"] == "jeans"
        for rule in ruleset:
            assert repo.is_enabled("chimera", rule.rule_id) == rule.enabled
        snapshot = repo.snapshot("after")["chimera"]
        assert snapshot.entries[self.pants_rule.rule_id][1] is False

    def test_needs_new_types(self):
        with pytest.raises(ValueError):
            plan_for_split([], "pants", [], [])


class TestConsolidation:
    def setup_method(self):
        self.rules = [
            WhitelistRule("gold rings?", "rings"),
            WhitelistRule("silver rings?", "rings"),
            WhitelistRule("wedding bands?", "rings"),
        ]

    def test_consolidated_matches_union(self):
        consolidated = consolidate_rules(self.rules)
        probes = [item("gold ring"), item("silver rings"), item("wedding band"),
                  item("area rug")]
        for probe in probes:
            union = any(rule.matches(probe) for rule in self.rules)
            assert consolidated.rule.matches(probe) == union

    def test_split_restores_branches(self):
        consolidated = consolidate_rules(self.rules)
        split = split_consolidated(consolidated)
        assert [r.pattern for r in split] == [r.pattern for r in self.rules]

    def test_mixed_targets_rejected(self):
        with pytest.raises(ValueError):
            consolidate_rules([WhitelistRule("a", "x"), WhitelistRule("b", "y")])

    def test_faulty_branch_found(self):
        consolidated = consolidate_rules(self.rules)
        bad = item("wedding band for watches")  # suppose this misclassifies
        assert faulty_branches(consolidated, bad) == [2]

    def test_localization_cost_grows_with_branches(self):
        few = consolidate_rules(self.rules[:2])
        many = consolidate_rules(
            [WhitelistRule(f"style{i} rings?", "rings") for i in range(16)]
            + [WhitelistRule("wedding bands?", "rings")]
        )
        bad = item("wedding band")
        assert localization_cost(many, bad) > localization_cost(few, item("silver ring"))

    def test_cost_zero_when_rule_innocent(self):
        consolidated = consolidate_rules(self.rules)
        assert localization_cost(consolidated, item("area rug")) == 0

    def test_simple_rule_cost_is_one(self):
        single = consolidate_rules(self.rules[:1])
        assert localization_cost(single, item("gold ring")) == 1
