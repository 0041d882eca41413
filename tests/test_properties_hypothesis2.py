"""Second round of property-based tests: feedback algebra, rule-set
invariants, consolidation equivalence, blocking soundness, persistence."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core import RuleSet, WhitelistRule
from repro.core.persistence import load_ruleset, save_ruleset
from repro.em.blocking import block_pairs
from repro.em.records import Record
from repro.em.similarity import jaccard_tokens
from repro.execution import CompiledRuleSet
from repro.maintenance import consolidate_rules, split_consolidated
from repro.synonym.rocchio import RocchioFeedback
from repro.utils.vectors import SparseVector
from tests.candidate_reference import reference_evaluations

words = st.text(alphabet="abcdefghij", min_size=2, max_size=6)
vectors = st.dictionaries(words, st.floats(min_value=0.01, max_value=5,
                                           allow_nan=False), min_size=0, max_size=6)


def item(title):
    return ProductItem(item_id=title[:32], title=title)


class TestRocchioAlgebra:
    @given(vectors, vectors)
    def test_no_feedback_is_identity(self, prefix_data, suffix_data):
        feedback = RocchioFeedback(SparseVector(prefix_data),
                                   SparseVector(suffix_data), alpha=1.0)
        before_prefix, before_suffix = feedback.prefix, feedback.suffix
        feedback.update([], [])
        assert feedback.prefix == before_prefix
        assert feedback.suffix == before_suffix

    @given(vectors, vectors)
    def test_accepts_only_grow_components(self, golden, accepted):
        feedback = RocchioFeedback(SparseVector(golden), SparseVector(),
                                   alpha=1.0, beta=0.5, gamma=0.5)
        feedback.update([(SparseVector(accepted), SparseVector())], [])
        for key in accepted:
            assert feedback.prefix[key] >= SparseVector(golden)[key]

    @given(vectors)
    def test_rejections_never_create_negatives(self, rejected):
        feedback = RocchioFeedback(SparseVector({"x": 1.0}), SparseVector(),
                                   gamma=10.0)
        feedback.update([], [(SparseVector(rejected), SparseVector())])
        assert all(value > 0 for _, value in feedback.prefix.items())


class TestRuleSetInvariants:
    @given(st.lists(st.tuples(words, words), min_size=1, max_size=8), words)
    @settings(max_examples=40)
    def test_disable_enable_round_trip(self, specs, title_word):
        ruleset = RuleSet([WhitelistRule(w, t) for w, t in specs])
        probe = item(f"{title_word} thing")
        baseline = ruleset.apply(probe).labels
        for rule in list(ruleset):
            ruleset.disable(rule.rule_id)
        assert ruleset.apply(probe).labels == []
        for rule in list(ruleset):
            ruleset.enable(rule.rule_id)
        assert ruleset.apply(probe).labels == baseline

    @given(st.lists(st.tuples(words, words), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_disable_type_only_affects_that_type(self, specs):
        ruleset = RuleSet([WhitelistRule(w, t) for w, t in specs])
        target = specs[0][1]
        ruleset.disable_type(target)
        for word, type_name in specs:
            verdict = ruleset.apply(item(f"{word} thing"))
            assert target not in verdict.labels
            if type_name != target:
                assert type_name in verdict.labels


class TestConsolidationEquivalence:
    @given(st.lists(words, min_size=1, max_size=6, unique=True),
           st.lists(words, min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_consolidated_equals_union(self, patterns, probe_words):
        rules = [WhitelistRule(pattern, "t") for pattern in patterns]
        consolidated = consolidate_rules(rules)
        for word in probe_words:
            probe = item(f"{word} thing")
            union = any(rule.matches(probe) for rule in rules)
            assert consolidated.rule.matches(probe) == union

    @given(st.lists(words, min_size=1, max_size=6, unique=True))
    def test_split_recovers_patterns(self, patterns):
        rules = [WhitelistRule(pattern, "t") for pattern in patterns]
        consolidated = consolidate_rules(rules)
        assert [r.pattern for r in split_consolidated(consolidated)] == patterns


class TestRuleIndexSoundness:
    @given(st.lists(st.tuples(words, words), min_size=1, max_size=10),
           st.lists(words, min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_candidates_superset_of_matches(self, specs, title_words):
        rules = [WhitelistRule(w, t) for w, t in specs]
        compiled = CompiledRuleSet(rules)
        for probe in (item(" ".join(title_words)), item("-".join(title_words) + "!")):
            assert compiled.match_item(probe) == (
                sorted(rule.rule_id for rule in rules if rule.matches(probe)),
                reference_evaluations(rules, probe),
            )

    @given(st.lists(st.tuples(words, words), min_size=2, max_size=8))
    @settings(max_examples=30)
    def test_remove_shrinks_candidates(self, specs):
        rules = [WhitelistRule(w, t) for w, t in specs]
        compiled = CompiledRuleSet(rules)
        victim = rules[0]
        assert compiled.remove_rule(victim.rule_id)
        for probe in (item(f"{specs[0][0]} thing"), item(f"{specs[0][0]}/thing")):
            hits, count = compiled.match_item(probe)
            assert victim.rule_id not in hits
            assert count == reference_evaluations(rules[1:], probe)
        assert not compiled.remove_rule(victim.rule_id)  # already gone


class TestBlockingSoundness:
    @given(st.lists(st.tuples(words, words, words), min_size=2, max_size=15))
    @settings(max_examples=30)
    def test_blocked_pairs_share_a_token(self, rows):
        records = [
            Record(record_id=f"r{i}", fields={"title": f"{a} {b} {c}"})
            for i, (a, b, c) in enumerate(rows)
        ]
        for left, right in block_pairs(records, max_block_size=50):
            assert jaccard_tokens(left.get("title"), right.get("title")) > 0


class TestPersistenceProperty:
    @given(st.lists(st.tuples(words, words), min_size=1, max_size=8),
           st.lists(words, min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)  # tempdir I/O can outlast the default 200ms
    def test_round_trip_preserves_verdicts(self, specs, probe_words):
        import os
        import tempfile

        original = RuleSet([WhitelistRule(w, t) for w, t in specs])
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "rules.json")
            save_ruleset(original, path)
            loaded = load_ruleset(path)
        for word in probe_words:
            probe = item(f"{word} thing")
            assert loaded.apply(probe).labels == original.apply(probe).labels
