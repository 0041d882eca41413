"""Tests for repro.utils.text."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import text as text_module
from repro.utils.text import (
    STOPWORDS,
    char_ngrams,
    contains_word_sequence,
    join_phrases,
    ngrams,
    normalize_text,
    tokenize,
    tokenize_cached,
    tokenize_uncached,
    window,
)


class TestNormalizeText:
    def test_lowercases(self):
        assert normalize_text("Wedding Band") == "wedding band"

    def test_strips_punctuation_but_keeps_hyphens_and_dots(self):
        assert normalize_text("13-293snb, 38x30!") == "13-293snb 38x30"

    def test_collapses_whitespace(self):
        assert normalize_text("a   b\t c") == "a b c"

    def test_empty(self):
        assert normalize_text("") == ""


class TestTokenize:
    def test_basic(self):
        assert tokenize("Diamond Accent Ring") == ["diamond", "accent", "ring"]

    def test_drops_stopwords_by_default(self):
        assert "in" not in tokenize("ring in 10kt white gold")

    def test_keeps_stopwords_when_asked(self):
        assert "in" in tokenize("ring in gold", drop_stopwords=False)

    def test_strips_edge_punctuation_from_tokens(self):
        tokens = tokenize("38in. x 30in. indigo")
        assert "38in" in tokens and "30in" in tokens

    def test_preserves_intra_word_hyphen(self):
        assert "pick-up" in tokenize("pick-up truck")

    def test_empty_title(self):
        assert tokenize("") == []


def _normalized_tokens(text, drop_stopwords):
    """The tokenizer as it was: normalize (strip, collapse), then split."""
    normalized = re.sub(r"\s+", " ", re.sub(r"[^\w\s/\-.]", " ", text.lower())).strip()
    cleaned = [token.strip(".-/") for token in re.findall(r"[a-z0-9][a-z0-9\-./]*", normalized)]
    return tuple(
        token for token in cleaned
        if token and not (drop_stopwords and token in STOPWORDS)
    )


def _two_pass_tokens(text, drop_stopwords):
    """The tokenizer body before the one-regex pass: match a run, then
    strip its edge punctuation and drop what is left empty."""
    cleaned = [token.strip(".-/") for token in re.findall(r"[a-z0-9][a-z0-9\-./]*", text.lower())]
    return tuple(
        token for token in cleaned
        if token and not (drop_stopwords and token in STOPWORDS)
    )


class TestOneRegexPass:
    @settings(max_examples=400, deadline=None)
    @given(
        text=st.one_of(st.text(st.sampled_from("ab09-./ _,\u00e9\u0130K")), st.text()),
        drop_stopwords=st.booleans(),
    )
    def test_equals_the_two_pass_body(self, text, drop_stopwords):
        assert text_module._tokens_of(text, drop_stopwords) == _two_pass_tokens(text, drop_stopwords)

    def test_every_stopword_is_a_tokenizer_fixed_point(self):
        """A stop word the tokenizer cannot produce would never be dropped."""
        for word in STOPWORDS:
            assert text_module._tokens_of(word, False) == (word,), word


class TestTokenizerSkipsNormalize:
    """The tokenizer reads the lowered title without the normalize pass:
    no token character is stripped there, and every character it replaces
    or collapses was already a token break."""

    @settings(max_examples=400, deadline=None)
    @given(
        text=st.text(st.characters(exclude_categories=())),
        drop_stopwords=st.booleans(),
    )
    def test_equals_tokens_of_the_normalized_text(self, text, drop_stopwords):
        expected = _normalized_tokens(text, drop_stopwords)
        assert text_module._tokens_of(text_module._normalize(text), drop_stopwords) == expected
        assert tokenize_uncached(text, drop_stopwords) == expected
        assert tokenize_cached(text, drop_stopwords) == expected

    def test_every_code_point_inside_a_word(self):
        """Each code point in the middle, at the start and at the end of
        a word, 4,096 code points a title."""
        for start in range(0, sys.maxunicode + 1, 4096):
            title = " ".join(
                f"{char}a{char}b{char}"
                for char in map(chr, range(start, min(start + 4096, sys.maxunicode + 1)))
            )
            assert text_module._tokens_of(title, False) == _normalized_tokens(title, False), hex(start)


class TestNgrams:
    def test_bigrams(self):
        assert list(ngrams(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_n_longer_than_input(self):
        assert list(ngrams(["a"], 3)) == []

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            list(ngrams(["a"], 0))


class TestCharNgrams:
    def test_basic(self):
        assert char_ngrams("abcd", 3) == ["abc", "bcd"]

    def test_spaces_become_separators(self):
        grams = char_ngrams("ab cd", 3)
        assert "b_c" in grams

    def test_short_input(self):
        assert char_ngrams("ab", 3) == ["ab"]

    def test_empty(self):
        assert char_ngrams("", 3) == []

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            char_ngrams("abc", 0)


class TestContainsWordSequence:
    def test_in_order_non_contiguous(self):
        assert contains_word_sequence(["denim", "blue", "jeans"], ["denim", "jeans"])

    def test_order_matters(self):
        assert not contains_word_sequence(["jeans", "denim"], ["denim", "jeans"])

    def test_exact_token_match_only(self):
        assert not contains_word_sequence(["jeans"], ["jean"])

    def test_repeated_tokens(self):
        assert contains_word_sequence(["a", "b", "a"], ["a", "a"])
        assert not contains_word_sequence(["a", "b"], ["a", "a"])

    def test_empty_sequence(self):
        assert contains_word_sequence(["x"], [])


class TestWindow:
    def test_prefix_suffix(self):
        tokens = list("abcdefg")
        prefix, suffix = window(tokens, 3, 4, 2)
        assert prefix == ["b", "c"]
        assert suffix == ["e", "f"]

    def test_clipped_at_edges(self):
        prefix, suffix = window(["a", "b"], 0, 1, 5)
        assert prefix == []
        assert suffix == ["b"]


def test_join_phrases():
    assert join_phrases(["motor", "engine"]) == "motor|engine"


def test_stopwords_are_lowercase():
    assert all(word == word.lower() for word in STOPWORDS)
