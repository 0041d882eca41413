"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
import random
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core import (
    RuleSet,
    SequenceRule,
    WhitelistRule,
    check_order_independence,
    compile_title_regex,
    extract_anchor_literals,
)
from repro.core.serialize import rule_from_dict, rule_to_dict
from repro.em.similarity import (
    jaccard_3gram,
    jaccard_tokens,
    jaro_winkler,
    levenshtein,
    normalized_levenshtein,
)
from repro.rulegen import confidence_score, mine_frequent_sequences
from repro.utils.sampling import reservoir_sample
from repro.utils.stats import wilson_interval
from repro.utils.text import contains_word_sequence, normalize_text, tokenize
from repro.utils.vectors import SparseVector, cosine_similarity

words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
word_lists = st.lists(words, min_size=0, max_size=12)
titles = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -.,!?", min_size=0, max_size=60
)


class TestTextProperties:
    @given(titles)
    def test_normalize_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(titles)
    def test_tokenize_output_is_normalized(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert " " not in token

    @given(word_lists, word_lists)
    def test_subsequence_of_concatenation(self, prefix, sequence):
        # Any sequence is contained in (anything + itself in order).
        title = prefix + list(sequence)
        assert contains_word_sequence(title, sequence)

    @given(word_lists, word_lists)
    def test_subsequence_transitive_with_deletion(self, title, sequence):
        assume(contains_word_sequence(title, sequence))
        if sequence:
            shorter = sequence[:-1]
            assert contains_word_sequence(title, shorter)


class TestStatsProperties:
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
    def test_wilson_bounds(self, successes, trials):
        assume(successes <= trials)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0
        point = successes / trials
        assert low - 1e-9 <= point <= high + 1e-9

    @given(st.lists(st.integers(), min_size=0, max_size=200),
           st.integers(min_value=0, max_value=20), st.integers())
    def test_reservoir_invariants(self, stream, k, seed):
        sample = reservoir_sample(stream, k, random.Random(seed))
        assert len(sample) == min(k, len(stream))
        for value in sample:
            assert value in stream


class TestVectorProperties:
    vectors = st.dictionaries(words, st.floats(min_value=-5, max_value=5,
                                               allow_nan=False), max_size=8)

    @given(vectors)
    def test_normalized_norm(self, data):
        vec = SparseVector(data).normalized()
        assert vec.norm() == 0.0 or abs(vec.norm() - 1.0) < 1e-6

    @given(vectors, vectors)
    def test_cosine_bounded_and_symmetric(self, a_data, b_data):
        a, b = SparseVector(a_data), SparseVector(b_data)
        sim = cosine_similarity(a, b)
        assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9
        assert abs(sim - cosine_similarity(b, a)) < 1e-9


def dp_levenshtein(a, b):
    """The O(n*m) dynamic program: the oracle ``levenshtein`` is held to."""
    previous = list(range(len(a) + 1))
    for row, char_b in enumerate(b, start=1):
        current = [row]
        for col, char_a in enumerate(a, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[col] + 1, current[col - 1] + 1,
                               previous[col - 1] + cost))
        previous = current
    return previous[-1]


# Any strings: empty, equal, non-ASCII, longer than a 64-bit word; and
# near-copies, so small distances under long strings are common.
any_text = st.text(max_size=150) | st.text(alphabet="abé漢 ", min_size=60, max_size=150)


@st.composite
def text_pairs(draw):
    a = draw(any_text)
    if draw(st.booleans()):
        return a, draw(any_text)
    i = draw(st.integers(0, len(a)))
    j = draw(st.integers(i, len(a)))
    return a, a[:i] + draw(st.text(max_size=3)) + a[j:]


class TestLevenshteinOracle:
    @given(text_pairs(), st.none() | st.integers(min_value=0, max_value=160))
    @settings(max_examples=300)
    def test_bit_parallel_equals_the_dynamic_program(self, pair, cutoff):
        a, b = pair
        distance = dp_levenshtein(a, b)
        expected = distance if cutoff is None else min(distance, cutoff + 1)
        assert levenshtein(a, b, cutoff) == levenshtein(b, a, cutoff) == expected

    def test_edges(self):
        long = "x" * 70 + "é" * 70
        for a, b in [("", ""), ("", "abc"), ("abc", "abc"), ("漢字", "漢"),
                     (long, long[1:] + "y"), (long, "")]:
            assert levenshtein(a, b) == dp_levenshtein(a, b)


class TestSimilarityProperties:
    @given(titles, titles)
    def test_levenshtein_metric_axioms(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(titles, titles, titles)
    @settings(max_examples=30)
    def test_levenshtein_triangle(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(titles, titles)
    def test_similarities_bounded(self, a, b):
        for function in (jaccard_tokens, jaccard_3gram, normalized_levenshtein):
            value = function(a, b)
            assert 0.0 <= value <= 1.0
        assert 0.0 <= jaro_winkler(a[:20], b[:20]) <= 1.0 + 1e-9

    @given(titles)
    def test_self_similarity(self, a):
        assert jaccard_tokens(a, a) == 1.0
        assert normalized_levenshtein(a, a) == 1.0


class TestRuleProperties:
    @given(st.lists(words, min_size=1, max_size=4), word_lists)
    def test_sequence_rule_matches_iff_subsequence(self, sequence, title_words):
        assume(all(token not in ("a", "i") for token in sequence))
        rule = SequenceRule(sequence, "t")
        title = " ".join(title_words)
        expected = contains_word_sequence(tokenize(title), tuple(sequence))
        assert rule.matches_text(title) == expected

    @given(st.lists(words, min_size=1, max_size=3))
    def test_serialization_round_trip(self, sequence):
        rule = SequenceRule(sequence, "t", support=0.5)
        clone = rule_from_dict(rule_to_dict(rule))
        assert clone.token_sequence == rule.token_sequence

    @given(st.lists(words, min_size=1, max_size=5).map("|".join))
    def test_anchor_soundness_for_disjunctions(self, pattern):
        anchors = extract_anchor_literals(pattern)
        assume(anchors is not None)
        compiled = compile_title_regex(pattern)
        # Every branch word is a matching title; it must contain an anchor.
        for branch in pattern.split("|"):
            title = f"xx {branch} yy"
            if compiled.search(title):
                assert any(anchor in title for anchor in anchors)

    @given(st.lists(st.tuples(words, words), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=25)
    def test_order_independence_always_holds(self, specs, seed):
        rules = []
        for index, (pattern_word, target) in enumerate(specs):
            rules.append(WhitelistRule(pattern_word, target))
        ruleset = RuleSet(rules)
        items = [ProductItem(item_id=str(i), title=f"{w} thing")
                 for i, (w, _) in enumerate(specs)]
        report = check_order_independence(ruleset, items, trials=3, seed=seed)
        assert report.holds


class TestRulegenProperties:
    @given(st.lists(st.lists(words, min_size=1, max_size=6), min_size=1, max_size=15),
           st.floats(min_value=0.2, max_value=1.0))
    @settings(max_examples=25)
    def test_mined_support_counts_correct(self, title_tokens, min_support):
        frequent = mine_frequent_sequences(title_tokens, min_support, max_length=3)
        threshold = math.ceil(min_support * len(title_tokens))
        for sequence, count in frequent.items():
            actual = sum(
                1 for tokens in title_tokens
                if contains_word_sequence(tokens, sequence)
            )
            assert actual == count
            assert count >= threshold

    @given(st.lists(words, min_size=1, max_size=4), words,
           st.floats(min_value=0, max_value=1))
    def test_confidence_bounded(self, sequence, type_name, support):
        assume(type_name.strip())
        value = confidence_score(sequence, type_name, support)
        assert 0.0 <= value <= 1.0
