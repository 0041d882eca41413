"""Tests for repro.core.rule: the rule classes and anchor extraction."""

import re

import pytest

from repro.catalog.types import ProductItem
from repro.core import (
    AttributeRule,
    BlacklistRule,
    Prediction,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
    compile_title_regex,
    extract_anchor_literals,
)
from repro.core.serialize import rules_from_dicts


def item(title, **attributes):
    return ProductItem(item_id="i", title=title, attributes=attributes)


class TestCompileTitleRegex:
    def test_word_boundaries(self):
        pattern = compile_title_regex("rings?")
        assert pattern.search("diamond ring")
        assert pattern.search("gold rings sale")
        assert not pattern.search("earrings")

    def test_phrase_with_gap(self):
        pattern = compile_title_regex("diamond.*trio sets?")
        assert pattern.search("diamond accent trio set")
        assert not pattern.search("trio set diamond")


class TestWhitelistRule:
    def test_matches_and_predicts(self):
        rule = WhitelistRule("rings?", "rings")
        assert rule.matches(item("Always & Forever Diamond Accent Ring"))
        prediction = rule.predict(item("gold ring"))
        assert prediction == Prediction("rings", weight=1.0, source=rule.rule_id)

    def test_no_match_no_prediction(self):
        rule = WhitelistRule("rings?", "rings")
        assert rule.predict(item("area rug")) is None

    def test_punctuation_normalized_before_match(self):
        rule = WhitelistRule("rings?", "rings")
        assert rule.matches(item("RING, 10kt!"))

    def test_invalid_regex_raises(self):
        with pytest.raises(ValueError):
            WhitelistRule("(unclosed", "rings")

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            WhitelistRule("a", "t", confidence=1.5)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            WhitelistRule("a", "")

    def test_rule_ids_unique(self):
        a, b = WhitelistRule("a", "t"), WhitelistRule("a", "t")
        assert a.rule_id != b.rule_id


class TestBlacklistRule:
    def test_is_blacklist_and_never_predicts(self):
        rule = BlacklistRule("key rings?", "rings")
        assert rule.is_blacklist
        assert rule.matches(item("led key ring"))
        assert rule.predict(item("led key ring")) is None


class TestAttributeRule:
    def test_fires_on_presence(self):
        rule = AttributeRule("isbn", "books")
        assert rule.matches(item("anything", isbn="978"))
        assert not rule.matches(item("anything"))

    def test_case_insensitive_attribute(self):
        rule = AttributeRule("isbn", "books")
        assert rule.matches(ProductItem(item_id="i", title="t", attributes={"ISBN": "9"}))


class TestValueConstraintRule:
    def test_constraint_semantics(self):
        rule = ValueConstraintRule("brand_name", "Apple", ["laptop computers", "smart phones"])
        assert rule.is_constraint
        assert rule.matches(item("macbook", brand_name="apple"))
        assert not rule.matches(item("macbook", brand_name="dell"))
        assert rule.predict(item("macbook", brand_name="apple")) is None

    def test_requires_allowed_types(self):
        with pytest.raises(ValueError):
            ValueConstraintRule("a", "v", [])


class TestSequenceRule:
    def test_in_order_matching(self):
        rule = SequenceRule(("denim", "jeans"), "jeans")
        assert rule.matches(item("blue denim carpenter jeans"))
        assert not rule.matches(item("jeans made of denim"))

    def test_pattern_rendering(self):
        assert SequenceRule(("a", "b", "c"), "t").pattern == "a.*b.*c"

    def test_stopwords_ignored_in_title(self):
        rule = SequenceRule(("denim", "jeans"), "jeans")
        assert rule.matches(item("denim and the jeans"))

    def test_anchor_literals_all_tokens(self):
        rule = SequenceRule(("denim", "jeans"), "jeans")
        assert rule.anchor_literals() == frozenset({"denim", "jeans"})

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceRule((), "t")

    @pytest.mark.parametrize("token", ["Ring", "gold ring", "", "tv,", "w/", 1])
    def test_token_no_title_can_hold_rejected(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            SequenceRule(("gold", token), "t")

    def test_token_no_title_can_hold_rejected_on_load(self):
        payload = {"kind": "sequence", "tokens": ["gold", "Ring"], "target_type": "t"}
        with pytest.raises(ValueError, match="'Ring'"):
            rules_from_dicts([payload])

    @pytest.mark.parametrize("tokens", [("of", "gold"), ("o-ring",), ("13.5in", "tv")])
    def test_stop_words_and_punctuated_tokens_accepted(self, tokens):
        assert SequenceRule(tokens, "t").token_sequence == tokens


class TestAnchorExtraction:
    def test_simple_plural(self):
        assert extract_anchor_literals("rings?") == frozenset({"ring"})

    def test_disjunction_group(self):
        anchors = extract_anchor_literals("(motor|engine) oils?")
        assert anchors == frozenset({"motor", "engine"})

    def test_top_level_alternation_sound(self):
        anchors = extract_anchor_literals("ring|band")
        assert anchors == frozenset({"ring", "band"})

    def test_gap_pattern_uses_longest_literal(self):
        # "diamond" and "trio" touch the gap (``diamond.*`` also matches
        # "diamonds ..."), so only "set" is a whole word of every match.
        anchors = extract_anchor_literals("diamond.*trio sets?")
        assert anchors == frozenset({"set"})
        assert extract_anchor_literals("diamond .* trio sets?") == frozenset({"diamond"})

    def test_soundness_on_sample(self):
        # Every matching title must contain at least one anchor token.
        pattern = "(area|braided) rugs?"
        anchors = extract_anchor_literals(pattern)
        compiled = compile_title_regex(pattern)
        for title in ("braided rug sale", "area rugs 5x7", "big braided rugs"):
            assert compiled.search(title)
            assert any(anchor in title for anchor in anchors)

    def test_gives_up_on_unanchorable(self):
        assert extract_anchor_literals(r"\d+") is None

    def test_optional_group(self):
        anchors = extract_anchor_literals("(denim )?jeans?")
        # With the group optional, "jean" must anchor every branch.
        assert "jean" in anchors
