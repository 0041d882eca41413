"""Compiled execution layer: lowering, parity, churn.

The contract under test everywhere: the compiled engine is an
*optimizer*, never a semantic fork — fired maps and fire counts must be
indistinguishable from the interpreted reference
(:class:`NaiveExecutor`: every rule's ``matches_prepared`` on every item)
and candidate counts from the plain count in
``tests/candidate_reference.py``, on every input, including the traps
(plural-bridge collisions, stop-word sequences, unclean titles, disabled
rules).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core.errors import UnknownRuleError
from repro.core.prepared import prepare
from repro.core.rule import (
    AttributeRule,
    BlacklistRule,
    Clause,
    PredicateRule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
)
from repro.execution import (
    CompiledRuleSet,
    IncrementalExecutor,
    NaiveExecutor,
    PartitionedExecutor,
    rarest_anchor,
)
from repro.execution.compiler import _DEAD_SLOT_MARGIN, _lower_regex_branches
from repro.observability import Observability
from tests.candidate_reference import reference_evaluations


def item(item_id, title, attributes=None):
    return ProductItem(
        item_id=item_id,
        title=title,
        attributes=attributes or {},
        true_type="t",
        vendor="v",
        description="",
    )


class BadTitle:
    """A malformed record: reading its title raises."""

    item_id = "bad"
    attributes = {}

    @property
    def title(self):
        raise RuntimeError("boom")


def probe_count(rules, items):
    """Candidate evaluations the reference count owes."""
    return sum(reference_evaluations(rules, it) for it in items)


def assert_parity(rules, items):
    """Fired map identical to the reference, evaluation count to the probe,
    with the artifact handed the enabled rules."""
    fired_i, stats_i = NaiveExecutor(rules).run(items)
    enabled = [rule for rule in rules if rule.enabled]
    fired_c, stats_c = CompiledRuleSet(enabled).execute(items)
    assert fired_c == fired_i
    assert stats_c.rule_evaluations == probe_count(enabled, items)
    assert stats_c.matches == stats_i.matches
    assert stats_c.items == stats_i.items
    return fired_i


class TestRegexBranchLowering:
    def test_bare_word(self):
        assert _lower_regex_branches("ring") == {"ring"}

    def test_plural_optional_enumerates_both_surface_forms(self):
        assert _lower_regex_branches("rings?") == {"ring", "rings"}

    def test_alternation_and_phrase(self):
        assert _lower_regex_branches("ring|bands?") == {"ring", "band", "bands"}
        # A literal phrase of two or more words is not lowered: the rule
        # verifies with its own compiled regex.
        assert _lower_regex_branches("ring|gold band") is None
        assert _lower_regex_branches("ring|rose gold ring") is None

    def test_unloweable_branch_bails_entirely(self):
        assert _lower_regex_branches("ring|ba.d") is None
        assert _lower_regex_branches("ri+ng") is None


class TestRarestAnchorSharedTiebreak:
    """The anchor tiebreak is one function, and the lanes key on it."""

    def test_ranking_frequency_then_length_then_lexicographic(self):
        freq = {"common": 100, "rare": 1, "rarer": 1}
        assert rarest_anchor(["common", "rare"], freq) == "rare"
        # tie on frequency -> longer wins
        assert rarest_anchor(["rare", "rarer"], freq) == "rarer"
        # tie on frequency and length -> lexicographically smallest
        assert rarest_anchor(["bb", "aa"], {}) == "aa"
        # missing tokens rank as frequency 0 (rarer than anything seen)
        assert rarest_anchor(["common", "unseen"], freq) == "unseen"

    def test_rule_index_delegates_to_shared_function(self):
        freq = {"gold": 50, "ring": 2}
        compiled = CompiledRuleSet(token_frequency=freq)
        compiled.add_rule(SequenceRule(["gold", "ring"], "t", rule_id="s1"))
        assert rarest_anchor(["gold", "ring"], freq) == "ring"
        assert {token for token, _, _ in compiled._contrib["s1"]} == {"ring"}

    def test_candidate_counts_comparable_between_layers(self):
        """evaluations_per_item must agree, else bench series diverge."""
        freq = {"gold": 9, "ring": 3, "band": 1}
        rules = [
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            SequenceRule(["gold", "band"], "t", rule_id="s2"),
            WhitelistRule("rings?|band", "t", rule_id="w1"),
        ]
        items = [
            item("i1", "gold ring"),
            item("i2", "gold band special"),
            item("i3", "gold rings"),
            item("i4", "nothing here"),
            item("i5", "Gold-Rings, band!"),
        ]
        compiled = CompiledRuleSet(rules, token_frequency=freq)
        for it in items:
            _, n_evaluated = compiled.match_item(it)
            assert n_evaluated == reference_evaluations(rules, it, freq), it.item_id


class TestCompiledParityPerRuleClass:
    def test_whitelist_word_and_plural(self):
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            WhitelistRule("rings?", "t", rule_id="w2"),
        ]
        items = [
            item("i1", "gold ring"),
            item("i2", "gold rings"),
            item("i3", "earrings"),
            item("i4", "ring rings"),
        ]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["w1", "w2"],
            "i2": ["w2"],
            "i4": ["w1", "w2"],
        }

    def test_blacklist_fires_like_whitelist_in_fired_map(self):
        rules = [BlacklistRule("toy", "jewelry", rule_id="b1")]
        fired = assert_parity(rules, [item("i1", "toy ring"), item("i2", "ring")])
        assert fired == {"i1": ["b1"]}

    def test_whitelist_phrases_all_depths(self):
        rules = [
            WhitelistRule("gold band", "t", rule_id="p2"),
            WhitelistRule("rose gold ring", "t", rule_id="p3"),
            WhitelistRule("very fine rose gold ring", "t", rule_id="p5"),
        ]
        items = [
            item("i1", "gold band"),
            item("i2", "band gold"),  # wrong order: no phrase
            item("i3", "a rose gold ring"),
            item("i4", "very fine rose gold ring x"),
            item("i5", "rose gold band"),
            item("i6", "gold gold band"),  # second occurrence is adjacent
        ]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["p2"],
            "i3": ["p3"],
            "i4": ["p3", "p5"],
            "i5": ["p2"],
            "i6": ["p2"],
        }

    def test_regex_fallback_closure_branch(self):
        # "colou?r" has no \w-run shape the lowerer accepts wholesale if
        # paired with an unloweable branch; the whole rule verifies via
        # its compiled regex and must still agree.
        rules = [WhitelistRule("silver .* ring", "t", rule_id="rx1")]
        items = [
            item("i1", "silver gold ring"),
            item("i2", "silver ring"),
            item("i3", "ring silver"),
        ]
        assert_parity(rules, items)

    def test_sequence_rules_all_lengths(self):
        rules = [
            SequenceRule(["ring"], "t", rule_id="s1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s2"),
            SequenceRule(["fine", "gold", "ring"], "t", rule_id="s3"),
        ]
        items = [
            item("i1", "fine gold diamond ring"),  # subsequence, not contiguous
            item("i2", "ring gold fine"),  # wrong order
            item("i3", "gold x y z ring"),
            item("i4", "ring"),
        ]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["s1", "s2", "s3"],
            "i2": ["s1"],
            "i3": ["s1", "s2"],
            "i4": ["s1"],
        }

    def test_stopword_sequence_counts_but_never_fires(self):
        # matches_prepared walks stop-word-filtered tokens, so a sequence
        # containing a stop word cannot fire; the candidate evaluation is
        # still counted by both layers.
        rules = [SequenceRule(["of", "gold"], "t", rule_id="s1")]
        items = [item("i1", "ring of gold"), item("i2", "gold of ring")]
        fired = assert_parity(rules, items)
        assert fired == {}

    def test_attribute_and_value_rules(self):
        rules = [
            AttributeRule("ISBN", "book", rule_id="a1"),
            ValueConstraintRule("Brand", "Apple", ["laptop", "phone"], rule_id="v1"),
        ]
        items = [
            item("i1", "some product", {"isbn": "123"}),
            item("i2", "apple thing", {"brand": "APPLE"}),
            item("i3", "apple thing", {"brand": "pear"}),
            item("i4", "no attrs"),
            item("i5", "dup keys", {"Brand": "apple", "brand": "pear"}),
        ]
        fired = assert_parity(rules, items)
        assert fired == {"i1": ["a1"], "i2": ["v1"], "i5": ["v1"]}

    def test_predicate_rule_lands_in_generic_residue(self):
        rules = [
            PredicateRule([Clause("title_contains ring", lambda it: "ring" in it.title)], "t", rule_id="pr1"),
            WhitelistRule("gold", "t", rule_id="w1"),
        ]
        items = [item("i1", "gold ring"), item("i2", "silver band")]
        assert_parity(rules, items)
        compiled = CompiledRuleSet(rules)
        assert compiled.lane_of("pr1") == "residue-generic"
        assert compiled.lane_of("w1") == "depth1-fire"

    def test_unknown_anchored_rule_class_forces_compat(self):
        """An anchored class the compiler does not know runs its own
        ``matches_prepared`` for that rule only, counted on its anchors;
        every other rule stays compiled."""
        class ExoticRule(WhitelistRule):
            def matches_prepared(self, prepared):  # overridden semantics
                return "gold" in prepared.tokens and super().matches_prepared(prepared)

        class ExoticSequence(SequenceRule):
            def matches_prepared(self, prepared):
                return "fine" in prepared.tokens and super().matches_prepared(prepared)

        rules = [ExoticRule("rings?", "t", rule_id="x1"),
                 ExoticRule("ring|band", "t", rule_id="x2"),
                 ExoticSequence(["gold", "band"], "t", rule_id="x3"),
                 WhitelistRule("band", "t", rule_id="w1")]
        items = [item("i1", "gold ring"), item("i2", "silver ring"),
                 item("i3", "band"), item("i4", "fine gold rings band"),
                 item("i5", "Gold Ring band!"), item("i6", "fine gold band")]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["x1", "x2"], "i3": ["w1"], "i4": ["w1", "x1", "x2", "x3"],
            "i5": ["w1", "x1", "x2"], "i6": ["w1", "x2", "x3"],
        }
        compiled = CompiledRuleSet(rules)
        assert [compiled.lane_of(r.rule_id) for r in rules] == [
            "generic-anchored", "generic-anchored", "generic-anchored", "depth1-fire",
        ]
        assert compiled.layout()["residue_rules"] == 0
        assert compiled.reads_record("x1") and not compiled.reads_record("w1")
        # Churn: removing the unknown rules leaves the compiled one alone.
        for rule_id in ("x1", "x2", "x3"):
            compiled.remove_rule(rule_id)
        assert compiled.execute(items)[0] == {
            "i3": ["w1"], "i4": ["w1"], "i5": ["w1"], "i6": ["w1"],
        }


class TestPluralBridgeTrap:
    """The fire lane must never bridge: an exact-word rule does not fire
    on the plural surface form, even though the probe counts it."""

    @pytest.mark.parametrize("rule", [
        SequenceRule(["ring"], "t", rule_id="r1"),
        WhitelistRule("ring", "t", rule_id="r1"),
    ])
    def test_candidate_counted_but_no_fire_on_plural_only_title(self, rule):
        items = [item("i1", "blue rings")]
        fired_i, _ = NaiveExecutor([rule]).run(items)
        fired_c, stats_c = CompiledRuleSet([rule]).execute(items)
        assert fired_i == fired_c == {}
        # The singular-expanded probe proposes the rule: exactly one
        # (failed) evaluation.
        assert stats_c.rule_evaluations == probe_count([rule], items) == 1

    def test_multi_anchor_rule_not_double_counted_via_bridge(self):
        # anchors {ring, rings}: on "rings" the rule is reachable both
        # directly and through the bridge — one candidate.
        rules = [WhitelistRule("ring|rings", "t", rule_id="w1")]
        items = [item("i1", "rings"), item("i2", "ring rings")]
        assert_parity(rules, items)


class TestDirtyTitlesAndSkipMode:
    def test_dirty_titles_route_through_compat_path(self):
        """Unclean titles probe the same lanes with their anchor tokens."""
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            WhitelistRule("gold band", "t", rule_id="p1"),
            SequenceRule(["o-ring"], "t", rule_id="s2"),
        ]
        items = [
            item("i1", "café gold ring"),     # non-ascii
            item("i2", "gold-plated ring!!"),      # punctuation
            item("i3", "GOLD Ring"),               # clean after lowering
            item("i4", ""),                        # empty title
            item("i5", "gold/ring combo"),
            item("i6", "gold band, o-ring"),       # a pair; a hyphenated token
            item("i7", "!!!"),                     # no token at all
        ]
        fired = assert_parity(rules, items)
        # "gold-plated" and "gold/ring" are one token each: no sequence.
        assert fired == {"i1": ["s1", "w1"], "i2": ["w1"], "i3": ["s1", "w1"],
                         "i5": ["w1"], "i6": ["p1", "s2", "w1"]}

    def test_raise_mode_propagates(self):
        compiled = CompiledRuleSet([WhitelistRule("x", "t")])
        with pytest.raises(RuntimeError):
            compiled.execute([BadTitle()])


class TestDisabledRulesAndRecompile:
    def test_disabled_rules_never_fire_and_are_not_counted(self):
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            WhitelistRule("ring", "t", rule_id="w2"),
        ]
        rules[1].enabled = False
        items = [item("i1", "a ring")]
        fired = assert_parity(rules, items)
        assert fired == {"i1": ["w1"]}

    def test_enabled_flip_between_runs_recompiles(self):
        rules = [WhitelistRule("ring", "t", rule_id="w1"),
                 WhitelistRule("band", "t", rule_id="w2")]
        executor = PartitionedExecutor(rules, n_workers=2)
        items = [item("i1", "ring band")]
        assert executor.run(items).fired == {"i1": ["w1", "w2"]}
        rules[0].enabled = False
        result = executor.run(items)
        assert result.fired == {"i1": ["w2"]}
        assert result.stats.compile_time > 0.0
        rules[0].enabled = True
        assert executor.run(items).fired == {"i1": ["w1", "w2"]}


class TestTracedExecution:
    def test_tracing_changes_nothing_but_the_span_list(self):
        # 2 x 4096 + 1 records: the deleted traced variant staged a batch
        # in 4096-item chunks and emitted two spans per chunk.
        rules = [WhitelistRule("rings?", "t", rule_id="w1"),
                 SequenceRule(["gold", "ring"], "t", rule_id="s1"),
                 AttributeRule("isbn", "book", rule_id="a1")]
        items = [item(f"i{n}", f"gold ring {n}") for n in range(2 * 4096)]
        items.append(item("unclean", "café ring"))

        def traced_run(batch):
            obs = Observability()
            result = PartitionedExecutor(rules, n_workers=1, observability=obs).run(batch)
            assert [span.name for span in obs.tracer.spans] == [
                "exec.compile", "exec.partitioned.run"]
            assert result.stats.compile_time > 0.0
            return result.fired, result.stats

        fired_plain, stats_plain = CompiledRuleSet(rules).execute(items)
        assert fired_plain == NaiveExecutor(rules).run(items)[0]
        assert fired_plain["unclean"] == ["w1"]
        traced_run(items[:1])
        fired, stats = traced_run(items)
        assert fired == fired_plain
        assert stats.rule_evaluations == stats_plain.rule_evaluations
        assert stats.matches == stats_plain.matches
        assert stats.items == stats_plain.items == 2 * 4096 + 1


def reference_of(executor, items):
    """NaiveExecutor over the executor's current rules, in store order."""
    fired, _ = NaiveExecutor(executor.rules()).run(items)
    return {item_id: fired[item_id] for item_id in sorted(fired)}


class TestIncrementalCompiled:
    def _corpus(self):
        rules = [
            WhitelistRule("rings?", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            AttributeRule("isbn", "book", rule_id="a1"),
            ValueConstraintRule("brand", "apple", ["phone"], rule_id="v1"),
        ]
        items = [
            item("i1", "gold ring"),
            item("i2", "rings"),
            item("i3", "book", {"ISBN": "9"}),
            item("i4", "phone", {"brand": "Apple"}),
        ]
        return rules, items

    def test_matches_interpreted_incremental(self):
        rules, items = self._corpus()
        compiled = IncrementalExecutor(rules=rules, items=items)
        assert compiled.fired_map() == reference_of(compiled, items)
        # rules arrived first (no rows to probe), so every evaluation is
        # an item-side probe
        assert compiled.stats.rule_evaluations == probe_count(rules, items)

    def test_churn_cycle_keeps_parity(self):
        rules, items = self._corpus()
        ex = IncrementalExecutor(rules=rules, items=items)
        ex.remove_rules(["w1"])
        ex.add_rules([WhitelistRule("band", "t", rule_id="w2")])
        ex.update_rule(SequenceRule(["silver", "ring"], "t", rule_id="s1"))
        relisted = [item("i5", "silver band ring"), item("i2", "rings deluxe")]
        ex.add_items(relisted)
        ex.remove_items(["i3"])
        live = [items[0], items[3]] + relisted
        assert ex.fired_map() == reference_of(ex, live)
        # and back to (a copy of) the original rule:
        ex.update_rule(SequenceRule(["gold", "ring"], "t", rule_id="s1"))
        ex.add_rules([WhitelistRule("rings?", "t", rule_id="w1")])
        ex.remove_rules(["w2"])
        assert ex.fired_map() == reference_of(ex, live)

    def test_disable_enable_is_snapshot_filter_only(self):
        rules, items = self._corpus()
        compiled = IncrementalExecutor(rules=rules, items=items)
        before = compiled.stats.rule_evaluations
        rules[0].enabled = False
        assert "w1" not in str(compiled.fired_map())
        rules[0].enabled = True
        assert compiled.fired_map()["i2"] == ["w1"]
        assert compiled.stats.rule_evaluations == before  # zero re-evaluation

    def test_refresh_parity(self):
        rules, items = self._corpus()
        compiled = IncrementalExecutor(rules=rules, items=items)
        fired_c, op_c = compiled.refresh()
        assert fired_c == reference_of(compiled, items)
        assert op_c.rule_evaluations == probe_count(rules, items)


class TestPartitionedCompiled:
    def test_compiled_shards_ship_raw_items(self):
        # Shards are dealt the items as given, raw records and prepared
        # views alike; the artifact tokenizes either inline.
        executor = PartitionedExecutor(
            [WhitelistRule("ring", "t", rule_id="w1")], n_workers=2
        )
        result = executor.run([item("i1", "a ring"), prepare(item("i2", "b ring"))])
        assert result.fired == {"i1": ["w1"], "i2": ["w1"]}
        assert result.shard_evaluations == [1, 1]

    def test_compiled_partitioned_matches_interpreted(self):
        rules = [
            WhitelistRule("rings?", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
        ]
        items = [item(f"i{n}", f"gold ring {n}") for n in range(23)]
        fired_i, _ = NaiveExecutor(rules).run(items)
        result = PartitionedExecutor(rules, n_workers=3).run(items)
        assert result.fired == fired_i
        assert result.stats.compile_time > 0.0
        assert not result.fault_events


class TestExplain:
    """Every rule class lands in a compiled lane ``lane_of`` can name."""

    CASES = [
        (WhitelistRule("rings?", "jewelry", rule_id="w1"),
         item("i1", "gold rings"), "depth1-fire"),
        (BlacklistRule("toy", "jewelry", rule_id="b1"),
         item("i2", "toy ring"), "depth1-fire"),
        (SequenceRule(["gold", "ring"], "jewelry", rule_id="s1"),
         item("i3", "gold shiny ring"), "verify-pair-order"),
        (AttributeRule("isbn", "book", rule_id="a1"),
         item("i4", "x", {"ISBN": "12"}), "residue-attribute"),
        (ValueConstraintRule("brand", "apple", ["phone", "laptop"], rule_id="v1"),
         item("i5", "x", {"brand": "Apple"}), "residue-value"),
    ]

    @pytest.mark.parametrize(
        "rule,matching_item,lane", CASES, ids=[c[0].rule_id for c in CASES]
    )
    def test_one_example_per_registered_rule_class(self, rule, matching_item, lane):
        compiled = CompiledRuleSet([rule])
        hits, _ = compiled.match_item(matching_item)
        assert hits == [rule.rule_id]
        assert compiled.lane_of(rule.rule_id) == lane

    def test_unknown_rule_raises(self):
        compiled = CompiledRuleSet([])
        with pytest.raises(UnknownRuleError):
            compiled.lane_of("nope")

    def test_compiled_path_feeds_the_same_fire_counts(self):
        """The fired map reaching observe_fired (and from there the
        rule_fired_total mirror) is the reference's."""
        rules = [WhitelistRule("rings?", "t", rule_id="w1"),
                 SequenceRule(["gold", "ring"], "t", rule_id="s1")]
        items = [item("i1", "gold ring"), item("i2", "rings"), item("i3", "x")]
        reference, _ = NaiveExecutor(rules).run(items)
        obs = Observability()
        PartitionedExecutor(rules, n_workers=2, observability=obs).run(items)
        counts = {
            rid: obs.metrics.counter("rule_fired_total", rule_id=rid).value
            for rid in ("w1", "s1")
        }
        assert counts == {
            rid: sum(rid in row for row in reference.values()) for rid in ("w1", "s1")
        } == {"w1": 2, "s1": 1}


class TestCompiledRuleSetChurn:
    def test_add_remove_patches_only_touched_lanes(self):
        compiled = CompiledRuleSet()
        compiled.add_rule(WhitelistRule("ring", "t", rule_id="w1"))
        gen = compiled.generation
        compiled.add_rule(SequenceRule(["gold", "band"], "t", rule_id="s1"))
        assert compiled.generation == gen + 1
        hits, _ = compiled.match_item(item("i1", "gold ring band"))
        assert hits == ["s1", "w1"]
        assert compiled.remove_rule("w1") is True
        assert compiled.remove_rule("w1") is False
        hits, _ = compiled.match_item(item("i1", "gold ring band"))
        assert hits == ["s1"]

    def test_duplicate_add_rejected(self):
        compiled = CompiledRuleSet([WhitelistRule("x", "t", rule_id="w1")])
        with pytest.raises(ValueError):
            compiled.add_rule(WhitelistRule("y", "t", rule_id="w1"))

    def test_retired_rule_ids_are_forgotten(self):
        # One rule of every lane kind stays live throughout; a transient
        # rule of a rotating kind is added, matched and removed 5,000 times.
        def rule_of_kind(kind, rule_id):
            return [
                lambda: WhitelistRule("rings?", "t", rule_id=rule_id),
                lambda: WhitelistRule("gold band|rose gold ring", "t", rule_id=rule_id),
                lambda: WhitelistRule("gold.*ring", "t", rule_id=rule_id),
                lambda: SequenceRule(["gold", "ring"], "t", rule_id=rule_id),
                lambda: SequenceRule(["rose", "gold", "ring"], "t", rule_id=rule_id),
                lambda: AttributeRule("isbn", "book", rule_id=rule_id),
                lambda: ValueConstraintRule("brand", "apple", ["phone"], rule_id=rule_id),
                lambda: PredicateRule(
                    [Clause("has ring", lambda it: "ring" in it.title)], "t",
                    rule_id=rule_id),
            ][kind % 8]()

        items = [
            item("i1", "rose gold ring", {"Brand": "Apple"}),
            item("i2", "gold band rings"),
            item("i3", "ring of gold", {"ISBN": "1"}),
            item("i4", "café rings", {"brand": "Apple"}), item("i5", "toy"),
        ]

        def swept():
            fired = {it.item_id: compiled.match_item(it)[0] for it in items}
            return {item_id: hits for item_id, hits in fired.items() if hits}

        compiled = CompiledRuleSet(rule_of_kind(k, f"live-{k}") for k in range(8))
        assert swept() == NaiveExecutor(compiled.rules()).run(items)[0]
        compiled.add_rule(rule_of_kind(0, "early"))  # sorts before a numbered id
        assert swept() == NaiveExecutor(compiled.rules()).run(items)[0]
        assert not compiled._table_sorted
        compiled.remove_rule("early")
        for n in range(5000):
            compiled.add_rule(rule_of_kind(n, f"patch-{n:05d}"))
            if n % 500 == 0:
                assert swept() == NaiveExecutor(compiled.rules()).run(items)[0]
            else:
                compiled.match_item(items[n % len(items)])
            compiled.remove_rule(f"patch-{n:05d}")
        assert len(compiled) == 8
        assert len(compiled._table) == len(compiled._ord)
        assert len(compiled._table) <= 2 * len(compiled) + _DEAD_SLOT_MARGIN + 1
        assert compiled._table_sorted  # regained at the first renumbering
        assert swept() == NaiveExecutor(compiled.rules()).run(items)[0]

    def test_layout_counts(self):
        rules = [
            WhitelistRule("ring|gold band", "t", rule_id="w1"),
            WhitelistRule("rose gold ring", "t", rule_id="w2"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            AttributeRule("isbn", "book", rule_id="a1"),
        ]
        compiled = CompiledRuleSet(rules)
        assert compiled.layout() == {
            "rules": 4,
            "tokens": 6,                # gold, ring, rose + their plural bridges
            "depth1_fire_entries": 0,   # w1 has a phrase branch: it verifies
            "verify_entries": 4,        # w1 under gold and ring, w2 under rose, s1
            "residue_rules": 1,
        }
        assert [compiled.lane_of(rule.rule_id) for rule in rules] == [
            "verify-regex", "verify-regex", "verify-pair-order", "residue-attribute",
        ]
        assert_parity(rules, [
            item("i1", "rose gold ring"), item("i2", "gold band"),
            item("i3", "rose gold rings"), item("i4", "gold rose ring"),
            item("i5", "isbn", {"ISBN": "1"}), item("i6", "Rose Gold Ring!"),
        ])


# -- hypothesis: compiled == reference incl. candidate accounting; the full
# -- differential property (every mode, churn, both arrival orders) lives in
# -- tests/test_execution_differential.py

_WORDS = st.sampled_from(
    ["ring", "rings", "gold", "band", "toy", "fine", "x1", "of", "the", "zz"]
)
_TITLES = st.text(
    alphabet="abcdefghij é-.!", min_size=0, max_size=30
).map(lambda s: s) | st.lists(_WORDS, min_size=0, max_size=6).map(" ".join)


@st.composite
def _rules(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    rid = f"r{draw(st.integers(min_value=0, max_value=10 ** 6))}"
    if kind == 0:
        words = draw(st.lists(_WORDS, min_size=1, max_size=3, unique=True))
        pattern = "|".join(w + ("s?" if draw(st.booleans()) else "") for w in words)
        rule = WhitelistRule(pattern, "t", rule_id=rid)
    elif kind == 1:
        phrase = " ".join(draw(st.lists(_WORDS, min_size=2, max_size=4)))
        rule = WhitelistRule(phrase, "t", rule_id=rid)
    elif kind == 2:
        rule = SequenceRule(
            draw(st.lists(_WORDS, min_size=1, max_size=4)), "t", rule_id=rid
        )
    elif kind == 3:
        rule = AttributeRule(draw(st.sampled_from(["isbn", "brand"])), "t", rule_id=rid)
    else:
        rule = ValueConstraintRule(
            "brand", draw(st.sampled_from(["apple", "acme"])), ["t"], rule_id=rid
        )
    rule.enabled = draw(st.booleans())
    return rule


@st.composite
def _items(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    out = []
    for index in range(n):
        attributes = draw(
            st.dictionaries(
                st.sampled_from(["isbn", "ISBN", "brand", "Brand"]),
                st.sampled_from(["apple", "ACME", "9"]),
                max_size=2,
            )
        )
        out.append(item(f"i{index}", draw(_TITLES), attributes))
    return out


class TestHypothesisParity:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(_rules(), min_size=0, max_size=8, unique_by=lambda r: r.rule_id),
        _items(),
    )
    def test_compiled_equals_interpreted_for_arbitrary_rulesets(self, rules, items):
        assert_parity(rules, items)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_rules(), min_size=0, max_size=6, unique_by=lambda r: r.rule_id),
        _items(),
    )
    def test_incremental_compiled_equals_batch_interpreted(self, rules, items):
        incremental = IncrementalExecutor(rules=rules, items=items)
        assert incremental.fired_map() == reference_of(incremental, items)


# -- hypothesis: unclean titles (the path that probes with anchor_tokens)
# -- against the reference, every rule class, both counting contracts

_UNCLEAN_WORDS = ["ring", "rings", "o-ring", "gold", "band", "13.5in", "5in",
                  "tv", "tvs", "of", "motor"]
_UNCLEAN_TITLES = st.text(alphabet="abdgilnorstvGR é-./_59!", max_size=24) | st.tuples(
    st.lists(st.sampled_from(_UNCLEAN_WORDS + ["gold band", "Gold", "RINGS", "café",
                                               "x_y", "w/"]), max_size=5),
    st.sampled_from([" ", "-", "/", ".", "_", ", ", " & "]),
    st.sampled_from(["", "!", " é", "_", "-", " 9v"]),
).map(lambda parts: parts[1].join(parts[0]) + parts[2])


class _ExoticRegex(WhitelistRule):
    """A known class with overridden semantics: the generic-anchored lane."""

    def matches_prepared(self, prepared):
        return "gold" in prepared.tokens and super().matches_prepared(prepared)


class _ExoticSequence(SequenceRule):
    def matches_prepared(self, prepared):
        return "band" not in prepared.tokens and super().matches_prepared(prepared)


@st.composite
def _any_rule(draw):
    kind = draw(st.integers(min_value=0, max_value=8))
    rid = f"r{draw(st.integers(min_value=0, max_value=10 ** 6))}"
    words = st.sampled_from(["ring", "gold", "band", "tv", "motor", "of"])
    if kind == 0:  # one or several anchors, bare words and plurals
        picked = draw(st.lists(words, min_size=1, max_size=3, unique=True))
        pattern = "|".join(w + ("s?" if draw(st.booleans()) else "") for w in picked)
        rule = WhitelistRule(pattern, "t", rule_id=rid)
    elif kind == 1:  # phrases of two and three words: verify closures
        phrase = draw(st.sampled_from(["gold band", "band ring", "gold band ring"]))
        rule = BlacklistRule(phrase, "t", rule_id=rid)
    elif kind == 2:  # closures, anchorless regexes, punctuated anchors
        pattern = draw(st.sampled_from(
            ["o-ring", r"13\.5in", "gold.*ring", "(motor|gold) rings?", "ring|rings",
             "colou?r", "tvs?", "ring|gold band"]))
        rule = WhitelistRule(pattern, "t", rule_id=rid)
    elif kind == 3:
        tokens = draw(st.lists(st.sampled_from(_UNCLEAN_WORDS), min_size=1, max_size=3))
        rule = SequenceRule(tokens, "t", rule_id=rid)
    elif kind == 4:
        rule = AttributeRule(draw(st.sampled_from(["isbn", "brand"])), "t", rule_id=rid)
    elif kind == 5:
        rule = ValueConstraintRule("brand", "acme", ["t"], rule_id=rid)
    elif kind == 6:
        rule = PredicateRule([Clause("says ring", lambda it: "ring" in it.title)],
                             "t", rule_id=rid)
    elif kind == 7:
        rule = _ExoticRegex(draw(st.sampled_from(["rings?", "ring|band", "o-ring"])),
                            "t", rule_id=rid)
    else:
        tokens = draw(st.lists(st.sampled_from(_UNCLEAN_WORDS), min_size=1, max_size=2))
        rule = _ExoticSequence(tokens, "t", rule_id=rid)
    rule.enabled = draw(st.booleans())
    return rule


class TestUncleanTitlesProbeTheLanes:
    @settings(max_examples=200, deadline=None)
    @example(  # a phrase candidate, a deduped multi-anchor count, a piece anchor
        [BlacklistRule("gold band", "t", rule_id="p"),
         WhitelistRule("ring|rings", "t", rule_id="m"),
         WhitelistRule("rings?", "t", rule_id="w")],
        ["gold band!", "o-rings, gold band"], {},
    )
    @given(
        st.lists(_any_rule(), max_size=8, unique_by=lambda r: r.rule_id),
        st.lists(_UNCLEAN_TITLES, min_size=1, max_size=6),
        st.dictionaries(st.sampled_from(_UNCLEAN_WORDS), st.integers(0, 3)),
    )
    def test_fired_ids_are_the_reference_and_counts_the_contract(
        self, rules, titles, frequency
    ):
        """Handed every rule, the artifact reports condition-truth and counts
        every candidate; handed the enabled ones, it is the reference."""
        enabled = [rule for rule in rules if rule.enabled]
        every = CompiledRuleSet(rules, token_frequency=frequency)
        live = CompiledRuleSet(enabled, token_frequency=frequency)
        for n, title in enumerate(titles):
            it = item(f"i{n}", title, {"Brand": "ACME"} if n % 2 else {})
            expected = sorted(rule.rule_id for rule in rules if rule.matches(it))
            count = reference_evaluations(rules, it, frequency)
            assert every.match_item(it) == (expected, count), title
            expected = NaiveExecutor(rules).run([it])[0].get(it.item_id, [])
            count = reference_evaluations(enabled, it, frequency)
            assert live.match_item(it) == (expected, count), title
