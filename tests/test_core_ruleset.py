"""Tests for RuleSet evaluation semantics."""

import copy

import pytest

from repro.catalog.types import ProductItem
from repro.core import (
    AttributeRule,
    BlacklistRule,
    DuplicateRuleError,
    RuleSet,
    UnknownRuleError,
    ValueConstraintRule,
    WhitelistRule,
    parse_rules,
)


def item(title, **attributes):
    return ProductItem(item_id=title[:20], title=title, attributes=attributes)


@pytest.fixture()
def ruleset():
    return RuleSet(parse_rules("""
        rings? -> rings
        wedding bands? -> rings
        key rings? -> NOT rings
        attr(isbn) -> books
        value(brand_name)=apple -> laptop computers|smart phones
        laptops? -> laptop computers
        phones? -> smart phones
    """))


class TestEvaluation:
    def test_whitelist_fires(self, ruleset):
        verdict = ruleset.apply(item("diamond ring"))
        assert verdict.labels == ["rings"]

    def test_blacklist_vetoes(self, ruleset):
        verdict = ruleset.apply(item("carabiner key ring"))
        assert verdict.labels == []
        assert verdict.vetoed == ("rings",)

    def test_whitelist_before_blacklist_order(self, ruleset):
        # A wedding band is a ring even though "band" appears — no blacklist
        # fires, and the two whitelist rules dedupe to one prediction.
        verdict = ruleset.apply(item("platinaire wedding band ring"))
        assert verdict.labels == ["rings"]

    def test_constraint_restricts(self, ruleset):
        # brand=apple constrains to laptop/smartphone; 'ring' vote is dropped.
        verdict = ruleset.apply(item("apple ring laptop", brand_name="apple"))
        assert verdict.labels == ["laptop computers"]
        assert verdict.constrained_to == ("laptop computers", "smart phones")

    def test_constraint_can_empty_the_verdict(self, ruleset):
        verdict = ruleset.apply(item("apple ring", brand_name="apple"))
        assert verdict.labels == []

    def test_attribute_rule_predicts(self, ruleset):
        verdict = ruleset.apply(item("some title", isbn="9781234567890"))
        assert "books" in verdict.labels

    def test_fired_lists_all_matching_rules(self, ruleset):
        verdict = ruleset.apply(item("key ring"))
        assert len(verdict.fired) == 2  # whitelist + blacklist

    def test_best_breaks_ties_deterministically(self):
        rules = RuleSet([
            WhitelistRule("a", "zeta", confidence=0.5),
            WhitelistRule("a", "alpha", confidence=0.5),
        ])
        best = rules.apply(item("a thing")).best()
        assert best.label == "zeta"  # (weight, label) max -> lexicographically last

    def test_strongest_vote_per_label_kept(self):
        rules = RuleSet([
            WhitelistRule("ring", "rings", confidence=0.3),
            WhitelistRule("gold", "rings", confidence=0.9),
        ])
        verdict = rules.apply(item("gold ring"))
        assert len(verdict.predictions) == 1
        assert verdict.predictions[0].weight == 0.9


class TestMutation:
    def test_duplicate_id_rejected(self):
        rule = WhitelistRule("a", "t")
        ruleset = RuleSet([rule])
        with pytest.raises(DuplicateRuleError):
            ruleset.add(rule)

    def test_remove(self, ruleset):
        first = next(iter(ruleset))
        ruleset.remove(first.rule_id)
        assert first.rule_id not in ruleset

    def test_remove_unknown(self, ruleset):
        with pytest.raises(UnknownRuleError):
            ruleset.remove("nope")

    def test_disable_enable(self, ruleset):
        target = next(iter(ruleset))
        ruleset.disable(target.rule_id)
        assert target not in ruleset.active_rules()
        ruleset.enable(target.rule_id)
        assert target in ruleset.active_rules()

    def test_enabled_write_on_a_held_rule_goes_through_the_set(self, ruleset):
        events, ops = [], []
        ruleset.subscribe(lambda event, rule: events.append((event, rule.rule_id)))
        ruleset.recorder = lambda op, rule: ops.append((op, rule.rule_id))
        held = next(iter(ruleset))
        held.enabled = False
        held.enabled = False  # already off: nothing to record
        held.enabled = True
        flips = [("disable", held.rule_id), ("enable", held.rule_id)]
        assert ops == flips
        assert events == [("disabled", held.rule_id), ("enabled", held.rule_id)]
        # A copy, a removed rule and the rule handed to add() are bare rules.
        stray = copy.copy(held)
        stray.enabled = False
        assert ruleset.is_enabled(held.rule_id) and not stray.enabled
        given = WhitelistRule("zz", "t", rule_id="zz")
        ruleset.add(given)
        given.enabled = False
        ruleset.remove(held.rule_id)
        held.enabled = False
        assert ops == flips + [("add", "zz"), ("remove", held.rule_id)]
        assert not held.enabled and ruleset.is_enabled("zz")

    def test_disable_type(self, ruleset):
        disabled = ruleset.disable_type("rings")
        assert len(disabled) == 3  # two whitelists + one blacklist
        assert ruleset.apply(item("diamond ring")).labels == []
        ruleset.enable_all(disabled)
        assert ruleset.apply(item("diamond ring")).labels == ["rings"]


class TestViews:
    def test_partition(self, ruleset):
        assert len(ruleset.whitelists()) == 5
        assert len(ruleset.blacklists()) == 1
        assert len(ruleset.constraints()) == 1

    def test_rules_for_type(self, ruleset):
        assert len(ruleset.rules_for_type("rings")) == 3

    def test_coverage(self, ruleset):
        items = [item("gold ring"), item("key ring"), item("area rug")]
        coverage = ruleset.coverage(items)
        ring_rule = ruleset.rules_for_type("rings")[0]
        assert len(coverage[ring_rule.rule_id]) == 2
