"""Compiled execution layer: automaton, lowering, parity, churn.

The contract under test everywhere: the compiled engine is an
*optimizer*, never a semantic fork — fired maps, skip accounting and
explain output must be indistinguishable from the interpreted reference
(:class:`NaiveExecutor`: every rule's ``matches_prepared`` on every item)
and candidate counts from the :class:`RuleIndex` probe, on every input,
including the traps (plural-bridge collisions, stop-word sequences, dirty
titles, disabled rules).
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core.errors import UnknownRuleError
from repro.core.explain import ExplanationStep
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
    IndexedExecutor,
    NaiveExecutor,
    PartitionedExecutor,
    RuleIndex,
    RuleSetCompiler,
    TokenAutomaton,
    rarest_anchor,
)
from repro.execution.compiler import _DEAD_SLOT_MARGIN, _lower_regex_branches
from repro.observability import Observability


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
    """Candidate evaluations the RuleIndex probe proposes (enabled rules)."""
    index = RuleIndex(rule for rule in rules if rule.enabled)
    return sum(len(index.candidates(it)) for it in items)


def assert_parity(rules, items):
    """Fired map identical to the reference, evaluation count to the probe."""
    fired_i, stats_i = NaiveExecutor(rules).run(items)
    fired_c, stats_c = IndexedExecutor(rules).run(items)
    assert fired_c == fired_i
    assert stats_c.rule_evaluations == probe_count(rules, items)
    assert stats_c.matches == stats_i.matches
    assert stats_c.items == stats_i.items
    return fired_i


class TestTokenAutomaton:
    def test_classic_overlapping_patterns(self):
        # The textbook he/she/his/hers example, lifted to token alphabet.
        ac = TokenAutomaton()
        for pid, pattern in {
            "he": ("h", "e"),
            "she": ("s", "h", "e"),
            "his": ("h", "i", "s"),
            "hers": ("h", "e", "r", "s"),
        }.items():
            ac.add(pattern, pid)
        hits = ac.scan(list("ushers"))
        assert set(hits) == {("she", 3), ("he", 3), ("hers", 5)}

    def test_matching_ids_and_end_positions(self):
        ac = TokenAutomaton()
        ac.add(("rose", "gold", "ring"), "p1")
        ac.add(("gold", "ring"), "p2")
        tokens = ["a", "rose", "gold", "ring", "b"]
        assert ac.matching_ids(tokens) == {"p1", "p2"}
        assert set(ac.scan(tokens)) == {("p1", 3), ("p2", 3)}
        assert ac.matching_ids(["gold", "rose", "ring"]) == set()

    def test_add_remove_and_generation(self):
        ac = TokenAutomaton()
        ac.add(("a", "b", "c"), "p")
        gen = ac.generation
        assert ac.matching_ids(["a", "b", "c"]) == {"p"}
        assert ac.remove("p") is True
        assert ac.remove("p") is False
        assert ac.generation == gen + 1
        assert ac.matching_ids(["a", "b", "c"]) == set()

    def test_readd_replaces_pattern(self):
        ac = TokenAutomaton()
        ac.add(("a", "b"), "p")
        ac.add(("c", "d"), "p")
        assert ac.matching_ids(["a", "b"]) == set()
        assert ac.matching_ids(["c", "d"]) == {"p"}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            TokenAutomaton().add((), "p")

    def test_gate_tokens_cover_every_pattern(self):
        ac = TokenAutomaton()
        ac.add(("x", "y", "z"), "p1")
        ac.add(("q", "r"), "p2")
        gate = ac.gate_tokens()
        assert gate & {"x", "y", "z"}
        assert gate & {"q", "r"}


class TestRegexBranchLowering:
    def test_bare_word(self):
        assert _lower_regex_branches("ring") == ({"ring"}, set())

    def test_plural_optional_enumerates_both_surface_forms(self):
        words, phrases = _lower_regex_branches("rings?")
        assert words == {"ring", "rings"}
        assert phrases == set()

    def test_alternation_and_phrase(self):
        words, phrases = _lower_regex_branches("ring|gold band|rose gold ring")
        assert words == {"ring"}
        assert phrases == {("gold", "band"), ("rose", "gold", "ring")}

    def test_unloweable_branch_bails_entirely(self):
        assert _lower_regex_branches("ring|ba.d") is None
        assert _lower_regex_branches("ri+ng") is None


class TestRarestAnchorSharedTiebreak:
    """Satellite: the anchor tiebreak is one function used by both layers."""

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
        index = RuleIndex(token_frequency=freq)
        rule = SequenceRule(["gold", "ring"], "t", rule_id="s1")
        index.add(rule)
        assert rarest_anchor(["gold", "ring"], freq) == "ring"
        assert index._keys_by_rule["s1"] == ["ring"]

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
        ]
        index = RuleIndex(rules, token_frequency=freq)
        compiled = RuleSetCompiler(token_frequency=freq).compile(rules)
        for it in items:
            interpreted = len(index.candidates(prepare(it)))
            _, n_evaluated = compiled.match_item(it)
            assert n_evaluated == interpreted, it.item_id


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
        compiled = RuleSetCompiler().compile(rules)
        assert "residue-generic" in compiled.lane_of("pr1")
        assert not compiled.forced_compat

    def test_unknown_anchored_rule_class_forces_compat(self):
        class ExoticRule(WhitelistRule):
            def matches_prepared(self, prepared):  # overridden semantics
                return "gold" in prepared.tokens and super().matches_prepared(prepared)

        rules = [ExoticRule("ring", "t", rule_id="x1"),
                 WhitelistRule("band", "t", rule_id="w1")]
        items = [item("i1", "gold ring"), item("i2", "silver ring"),
                 item("i3", "band")]
        fired_i, _ = NaiveExecutor(rules).run(items)
        fired_c, _ = IndexedExecutor(rules).run(items)
        assert fired_c == fired_i == {"i1": ["x1"], "i3": ["w1"]}
        compiled = RuleSetCompiler().compile(rules)
        assert compiled.forced_compat
        assert "compilation skipped" in compiled.lane_of("w1")


class TestPluralBridgeTrap:
    """The fire lane must never bridge: an exact-word rule does not fire
    on the plural surface form, even though the index proposes it."""

    @pytest.mark.parametrize("rule", [
        SequenceRule(["ring"], "t", rule_id="r1"),
        WhitelistRule("ring", "t", rule_id="r1"),
    ])
    def test_candidate_counted_but_no_fire_on_plural_only_title(self, rule):
        items = [item("i1", "blue rings")]
        fired_i, _ = NaiveExecutor([rule]).run(items)
        fired_c, stats_c = IndexedExecutor([rule]).run(items)
        assert fired_i == fired_c == {}
        # The singular-expanded probe proposes the rule: exactly one
        # (failed) evaluation.
        assert stats_c.rule_evaluations == probe_count([rule], items) == 1

    def test_multi_anchor_rule_not_double_counted_via_bridge(self):
        # anchors {ring, rings}: on "rings" the rule is reachable both
        # directly and through the bridge — one candidate, like the index.
        rules = [WhitelistRule("ring|rings", "t", rule_id="w1")]
        items = [item("i1", "rings"), item("i2", "ring rings")]
        assert_parity(rules, items)


class TestDirtyTitlesAndSkipMode:
    def test_dirty_titles_route_through_compat_path(self):
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
        ]
        items = [
            item("i1", "café gold ring"),     # non-ascii
            item("i2", "gold-plated ring!!"),      # punctuation
            item("i3", "GOLD Ring"),               # clean after lowering
            item("i4", ""),                        # empty title
            item("i5", "gold/ring combo"),
        ]
        assert_parity(rules, items)

    def test_skip_mode_accounting_matches_interpreted(self):
        rules = [WhitelistRule("ring", "t", rule_id="w1")]
        items = [item("i1", "a ring"), BadTitle(), item("i2", "band")]
        fired_i, stats_i = NaiveExecutor(rules, on_error="skip").run(items)
        fired_c, stats_c = IndexedExecutor(rules, on_error="skip").run(items)
        assert fired_c == fired_i == {"i1": ["w1"]}
        assert stats_c.skipped_items == stats_i.skipped_items == 1
        assert stats_c.skipped_item_ids == stats_i.skipped_item_ids == ["bad"]
        assert stats_c.items == stats_i.items == 3

    def test_raise_mode_propagates(self):
        executor = IndexedExecutor([WhitelistRule("x", "t")])
        with pytest.raises(RuntimeError):
            executor.run([BadTitle()])


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
        executor = IndexedExecutor(rules)
        items = [item("i1", "ring band")]
        fired, _ = executor.run(items)
        assert fired == {"i1": ["w1", "w2"]}
        rules[0].enabled = False
        fired, stats = executor.run(items)
        assert fired == {"i1": ["w2"]}
        assert stats.compile_time > 0.0
        fired, stats = executor.run(items)
        assert stats.compile_time == 0.0  # unchanged flags: artifact reused
        rules[0].enabled = True
        fired, _ = executor.run(items)
        assert fired == {"i1": ["w1", "w2"]}

    def test_enable_disable_churn_keeps_one_artifact_alive(self):
        # One artifact per distinct disabled-rule set used to be cached
        # forever; N states must leave only the current one reachable.
        rules = [WhitelistRule(f"w{n}", "t", rule_id=f"w{n}") for n in range(6)]
        executor = IndexedExecutor(rules)
        items = [item("i1", " ".join(f"w{n}" for n in range(6)))]
        artifacts = []
        for rule in rules:
            rule.enabled = False
            fired, _ = executor.run(items)
            assert fired == NaiveExecutor(rules).run(items)[0]
            artifacts.append(weakref.ref(executor.compiled_ruleset()))
        gc.collect()
        assert [ref() is not None for ref in artifacts] == [False] * 5 + [True]


class TestTracedExecution:
    def test_tracing_changes_nothing_but_the_span_list(self):
        # 2 x 4096 + 1 records: the deleted traced variant staged a batch
        # in 4096-item chunks and emitted two spans per chunk.
        rules = [WhitelistRule("rings?", "t", rule_id="w1"),
                 SequenceRule(["gold", "ring"], "t", rule_id="s1"),
                 AttributeRule("isbn", "book", rule_id="a1")]
        items = [item(f"i{n}", f"gold ring {n}") for n in range(2 * 4096 - 1)]
        items += [item("unclean", "café ring"), BadTitle()]

        def traced_run(batch):
            obs = Observability()
            fired, stats = IndexedExecutor(
                rules, on_error="skip", observability=obs).run(batch)
            assert [span.name for span in obs.tracer.spans] == [
                "exec.compile", "exec.indexed.run"]
            assert stats.compile_time > 0.0
            return fired, stats

        fired_plain, stats_plain = IndexedExecutor(rules, on_error="skip").run(items)
        assert fired_plain == NaiveExecutor(rules, on_error="skip").run(items)[0]
        assert fired_plain["unclean"] == ["w1"]
        traced_run(items[:1])
        fired, stats = traced_run(items)
        assert fired == fired_plain
        assert stats.rule_evaluations == stats_plain.rule_evaluations
        assert stats.matches == stats_plain.matches
        assert stats.skipped_item_ids == stats_plain.skipped_item_ids == ["bad"]
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

    def test_compiled_artifact_reused_across_runs(self):
        executor = PartitionedExecutor(
            [WhitelistRule("ring", "t", rule_id="w1")], n_workers=2
        )
        items = [item("i1", "a ring")]
        assert executor.run(items).stats.compile_time > 0.0
        assert executor.run(items).stats.compile_time == 0.0


class TestExplain:
    """Satellite: every compiled match maps back to a human-readable rule."""

    CASES = [
        (WhitelistRule("rings?", "jewelry", rule_id="w1"),
         item("i1", "gold rings"), "whitelist"),
        (BlacklistRule("toy", "jewelry", rule_id="b1"),
         item("i2", "toy ring"), "blacklist"),
        (SequenceRule(["gold", "ring"], "jewelry", rule_id="s1"),
         item("i3", "gold shiny ring"), "whitelist"),
        (AttributeRule("isbn", "book", rule_id="a1"),
         item("i4", "x", {"ISBN": "12"}), "whitelist"),
        (ValueConstraintRule("brand", "apple", ["phone", "laptop"], rule_id="v1"),
         item("i5", "x", {"brand": "Apple"}), "constraint"),
    ]

    @pytest.mark.parametrize(
        "rule,matching_item,kind", CASES, ids=[c[0].rule_id for c in CASES]
    )
    def test_one_example_per_registered_rule_class(self, rule, matching_item, kind):
        compiled = RuleSetCompiler().compile([rule])
        hits, _ = compiled.match_item(matching_item)
        assert hits == [rule.rule_id]
        step = compiled.explain(matching_item, rule.rule_id)
        assert isinstance(step, ExplanationStep)
        assert step.rule_id == rule.rule_id
        assert step.kind == kind
        assert step.statement == rule.describe()
        assert "matched via compiled lane" in step.effect
        assert compiled.lane_of(rule.rule_id) in step.effect

    def test_non_match_is_explained_too(self):
        compiled = RuleSetCompiler().compile(
            [WhitelistRule("ring", "t", rule_id="w1")]
        )
        step = compiled.explain(item("i1", "gold band"), "w1")
        assert "did not match" in step.effect

    def test_unknown_rule_raises(self):
        compiled = RuleSetCompiler().compile([])
        with pytest.raises(UnknownRuleError):
            compiled.explain(item("i1", "x"), "nope")

    def test_explain_fired_covers_every_hit(self):
        rules = [WhitelistRule("gold", "t", rule_id="w1"),
                 WhitelistRule("ring", "t", rule_id="w2")]
        compiled = RuleSetCompiler().compile(rules)
        steps = compiled.explain_fired(item("i1", "gold ring"))
        assert [step.rule_id for step in steps] == ["w1", "w2"]

    def test_compiled_path_feeds_the_why_provenance_chain(self):
        """The fired maps reaching observe_fired (and from there the
        quality/provenance chain) are identical, compiled vs reference."""
        rules = [WhitelistRule("rings?", "t", rule_id="w1"),
                 SequenceRule(["gold", "ring"], "t", rule_id="s1")]
        items = [item("i1", "gold ring"), item("i2", "rings"), item("i3", "x")]
        snapshots = []
        for executor_class in (NaiveExecutor, IndexedExecutor):
            obs = Observability()
            obs.attach_quality()
            executor_class(rules, observability=obs).run(items)
            health = obs.quality.health
            snapshots.append(
                {rid: health.health(rid).fires for rid in ("w1", "s1")}
            )
        assert snapshots[0] == snapshots[1]


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
        compiled = CompiledRuleSet([
            WhitelistRule("ring|gold band|rose gold ring", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            AttributeRule("isbn", "book", rule_id="a1"),
        ])
        layout = compiled.layout()
        assert layout["rules"] == 3
        assert layout["depth1_fire_entries"] == 1   # "ring" branch
        assert layout["depth2_pair_entries"] == 1   # "gold band"
        assert layout["automaton_patterns"] == 1    # "rose gold ring"
        assert layout["verify_entries"] == 1        # the 2-token sequence
        assert layout["residue_rules"] == 1


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
