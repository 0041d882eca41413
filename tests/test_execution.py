"""Tests for rule/data indexing and the executors."""

import pytest

from repro.catalog.types import ProductItem
from repro.core import (
    AttributeRule,
    PreparedItem,
    SequenceRule,
    WhitelistRule,
    parse_rules,
)
from repro.execution import (
    CompiledRuleSet,
    DataIndex,
    NaiveExecutor,
    PartitionedExecutor,
    prepare,
)
from repro.execution.compiler import corpus_token_frequency
from tests.candidate_reference import reference_evaluations


def item(title, **attributes):
    return ProductItem(item_id=title[:30], title=title, attributes=attributes)


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
]


class TestRuleIndex:
    """Candidate placement in the compiled lanes: which rules an item
    probes, and how many evaluations that costs."""

    def test_candidates_are_superset_of_matches(self):
        compiled = CompiledRuleSet(RULES)
        for thing in ITEMS:
            assert compiled.match_item(thing) == (
                sorted(rule.rule_id for rule in RULES if rule.matches(thing)),
                reference_evaluations(RULES, thing),
            )

    def test_attribute_rules_in_residue(self):
        # attr(isbn) has no title anchor; neither has ``denim.*jeans?``
        # (it matches "denims bluejeans": no literal is a whole word).
        assert CompiledRuleSet(RULES).layout()["residue_rules"] == 2

    def test_plural_singular_bridging(self):
        rule = WhitelistRule("rings?", "rings")
        compiled = CompiledRuleSet([rule])
        assert compiled.match_item(item("two rings")) == ([rule.rule_id], 1)
        assert compiled.match_item(item("two o-rings!")) == ([rule.rule_id], 1)

    def test_sequence_indexed_under_one_token(self):
        frequency = {"area": 1000, "rug": 3}
        compiled = CompiledRuleSet([SequenceRule(("area", "rug"), "area rugs")],
                                   token_frequency=frequency)
        # Counted under the rare token: items with only "area" skip the rule.
        assert compiled.match_item(item("area code map")) == ([], 0)
        assert compiled.match_item(item("area-code map")) == ([], 0)
        assert compiled.match_item(item("rug sale"))[1] == 1
        assert compiled.match_item(item("rug sale!"))[1] == 1

    def test_corpus_token_frequency(self):
        freq = corpus_token_frequency(["rug mat", "rug lamp"])
        assert freq == {"rug": 2, "mat": 1, "lamp": 1}

    def test_candidates_accept_prepared_items(self):
        compiled = CompiledRuleSet(RULES)
        for thing in ITEMS:
            assert compiled.match_item(thing) == compiled.match_item(PreparedItem(thing))


class _CountingLanes(dict):
    """Raw-lane dict that records the tokens looked up, to prove
    remove_rule() never scans."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.looked_up = set()

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)


class TestRuleIndexRemove:
    def _big_index(self, n=10_000):
        rules = [
            SequenceRule((f"alpha{i}", f"beta{i}"), "t", rule_id=f"seq-{i:05d}")
            for i in range(n)
        ]
        return CompiledRuleSet(rules), rules

    def test_remove_present_and_absent(self):
        compiled, rules = self._big_index(100)
        assert compiled.remove_rule(rules[17].rule_id) is True
        assert compiled.remove_rule(rules[17].rule_id) is False
        assert compiled.remove_rule("never-existed") is False
        assert len(compiled) == 99

    def test_remove_does_not_scan_posting_lists(self):
        """On a 10k-rule artifact, removal touches only the rule's own lanes."""
        compiled, rules = self._big_index(10_000)
        compiled.layout()  # fold, so only the removal dirties tokens
        counting = _CountingLanes(compiled._raw)
        compiled._raw = counting
        assert compiled.remove_rule(rules[1234].rule_id) is True
        # A sequence rule lives under exactly one anchor: its rarest.
        assert counting.looked_up == {"alpha1234"}
        assert compiled._dirty_tokens == {"alpha1234", ""}
        assert len(compiled) == 9_999

    def test_remove_regex_rule_clears_all_anchor_postings(self):
        rule = WhitelistRule("(motor|engine) oils?", "motor oil")
        compiled = CompiledRuleSet([rule])
        assert compiled.remove_rule(rule.rule_id) is True
        assert len(compiled) == 0
        assert compiled.match_item(item("castrol motor oil")) == ([], 0)
        assert compiled.match_item(item("castrol motor-oil")) == ([], 0)
        assert not compiled._raw

    def test_remove_residue_rule(self):
        rule = AttributeRule("isbn", "books")
        compiled = CompiledRuleSet([rule])
        assert compiled.layout()["residue_rules"] == 1
        assert compiled.remove_rule(rule.rule_id) is True
        assert compiled.layout()["residue_rules"] == 0

    def test_remove_all_rules_empties_index(self):
        compiled, rules = self._big_index(1_000)
        for rule in rules:
            assert compiled.remove_rule(rule.rule_id)
        assert len(compiled) == 0
        assert not compiled._raw
        assert not compiled._contrib
        assert compiled.layout()["tokens"] == 0


class TestExecutors:
    def test_naive_and_indexed_agree(self):
        naive_fired, _ = NaiveExecutor(RULES).run(ITEMS)
        indexed_fired, _ = CompiledRuleSet(RULES).execute(ITEMS)
        assert {k: sorted(v) for k, v in naive_fired.items()} == indexed_fired

    def test_indexed_does_less_work(self):
        _, naive_stats = NaiveExecutor(RULES).run(ITEMS)
        _, indexed_stats = CompiledRuleSet(RULES).execute(ITEMS)
        assert indexed_stats.rule_evaluations < naive_stats.rule_evaluations
        assert indexed_stats.matches == naive_stats.matches

    def test_work_scales_with_rules(self, corpus_items):
        many_rules = [SequenceRule((f"tok{i}", "x"), "t") for i in range(200)]
        _, naive_stats = NaiveExecutor(many_rules).run(corpus_items[:50])
        _, indexed_stats = CompiledRuleSet(many_rules).execute(corpus_items[:50])
        assert naive_stats.evaluations_per_item == 200
        assert indexed_stats.evaluations_per_item < 5

    def test_both_executors_return_sorted_rule_ids(self):
        """Deterministic output contract: fired lists are sorted."""
        naive_fired, _ = NaiveExecutor(RULES).run(ITEMS)
        indexed_fired, _ = CompiledRuleSet(RULES).execute(ITEMS)
        assert naive_fired == indexed_fired
        for fired in (naive_fired, indexed_fired):
            for hits in fired.values():
                assert hits == sorted(hits)

    def test_disabled_rules_do_not_fire(self):
        rules = parse_rules("rings? -> rings\ndiamond -> jewelry")
        rules[0].enabled = False
        target = item("diamond ring gold")
        naive_fired, _ = NaiveExecutor(rules).run([target])
        enabled = [rule for rule in rules if rule.enabled]
        indexed_fired, _ = CompiledRuleSet(enabled).execute([target])
        assert naive_fired == indexed_fired
        assert naive_fired[target.item_id] == [rules[1].rule_id]

    def test_executors_accept_prepared_items(self):
        prepared = [prepare(thing) for thing in ITEMS]
        from_raw, _ = NaiveExecutor(RULES).run(ITEMS)
        from_prepared, _ = NaiveExecutor(RULES).run(prepared)
        assert from_raw == from_prepared

    def test_stats_report_timing_split(self):
        stats = PartitionedExecutor(RULES).run(ITEMS).stats
        assert stats.wall_time > 0
        assert stats.prepare_time >= 0
        assert stats.match_time >= 0
        assert stats.prepare_time + stats.match_time <= stats.wall_time + 1e-6
        assert stats.items_per_second > 0


class TestPreparedItem:
    def test_matches_prepared_agrees_with_matches(self):
        for thing in ITEMS:
            prepared = PreparedItem(thing)
            for rule in RULES:
                assert rule.matches(thing) == rule.matches_prepared(prepared)

    def test_duck_types_product_item_surface(self):
        thing = item("castrol motor oil 5 quart", isbn="978")
        prepared = PreparedItem(thing)
        assert prepared.title == thing.title
        assert prepared.item_id == thing.item_id
        assert prepared.attribute("ISBN") == "978"
        assert prepared.has_attribute("isbn")
        assert prepared.attribute("missing", "dflt") == "dflt"

    def test_views_are_memoized(self):
        prepared = PreparedItem(item("shaw area rug 5x7"))
        assert prepared.tokens is prepared.tokens
        assert prepared.match_text is prepared.match_text
        # The probe sets are derived per read and kept nowhere.
        assert prepared.anchor_tokens == prepared.anchor_tokens
        assert prepared.anchor_tokens >= prepared.token_set

    def test_prepare_is_idempotent(self):
        prepared = prepare(ITEMS[0])
        assert prepare(prepared) is prepared


class TestPartitionedExecutor:
    def test_matches_single_node_results(self):
        result = PartitionedExecutor(RULES, n_workers=3).run(ITEMS)
        naive_fired, naive_stats = NaiveExecutor(RULES).run(ITEMS)
        assert {k: sorted(v) for k, v in naive_fired.items()} == result.fired
        assert result.stats.items == len(ITEMS)
        assert len(result.shard_evaluations) == 3

    def test_critical_path_below_total(self):
        result = PartitionedExecutor(RULES, n_workers=3).run(ITEMS * 10)
        assert max(result.shard_evaluations) < result.stats.rule_evaluations

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            PartitionedExecutor(RULES, n_workers=0)


class TestDataIndex:
    def test_matches_equal_full_scan(self):
        index = DataIndex(ITEMS)
        for rule in RULES:
            via_index = {ITEMS[row].item_id for row in index.matches(rule, ITEMS)}
            via_scan = {i.item_id for i in ITEMS if rule.matches(i)}
            assert via_index == via_scan

    def test_candidate_fraction_small_for_anchored_rules(self, corpus_items):
        index = DataIndex(corpus_items)
        rule = WhitelistRule("rings?", "rings")
        assert index.candidate_fraction(rule) < 0.2

    def test_unanchored_rule_scans_everything(self):
        index = DataIndex(ITEMS)
        rule = AttributeRule("isbn", "books")
        assert index.candidate_fraction(rule) == 1.0

    def test_sequence_intersection(self):
        index = DataIndex(ITEMS)
        rows = index.candidate_rows(SequenceRule(("area", "rug"), "area rugs"))
        assert len(rows) == 1
