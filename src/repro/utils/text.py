"""Text normalization and tokenization shared by every subsystem.

The paper's rules operate on product titles after light preprocessing
("lowercasing and removing certain stop words and characters that we have
manually compiled in a dictionary", section 5.2). This module is that
dictionary plus the tokenizer.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

# Stop words the analysts' preprocessing removes before sequence mining.
# Deliberately small: product titles are terse and most tokens carry signal.
STOPWORDS = frozenset(
    """
    a an and at by for from in of on or the to with
    """.split()
)

# Characters normalize_text strips (keeps alphanumerics, whitespace and
# intra-word hyphens/slashes which appear in sizes like "13-293snb"). The
# tokenizer needs no such pass: none of them can be part of a token.
_STRIP_CHARS = re.compile(r"[^\w\s/\-.]")
# A token starts and ends on an alphanumeric; ``-./`` join inside it.
_TOKEN = re.compile(r"[a-z0-9](?:[a-z0-9\-./]*[a-z0-9])?")
_MULTISPACE = re.compile(r"\s+")


# Titles repeat heavily across rule evaluations (search, EM blocking,
# learning features, repeated executor runs), so normalization and
# tokenization are memoized behind bounded LRU caches. The caches hold
# immutable values (strings / tuples); the public list-returning API copies
# on the way out so callers can keep mutating their token lists.
#
# The bound matters operationally: a never-ending incremental session sees
# an unbounded stream of distinct titles, and an unbounded cache would be a
# slow memory leak with no signal. ``cache_stats`` (surfaced as gauges via
# ``MetricsRegistry.observe_text_cache``) is that signal — a cache pinned
# at ``maxsize`` with a falling hit rate means the live vocabulary outgrew
# the bound.
_TEXT_CACHE_SIZE = 32768


def _normalize(text: str) -> str:
    lowered = text.lower()
    stripped = _STRIP_CHARS.sub(" ", lowered)
    return _MULTISPACE.sub(" ", stripped).strip()


def _tokens_of(text: str, drop_stopwords: bool) -> Tuple[str, ...]:
    """The tokenizer body. It reads ``text`` lowered, without the
    :func:`_normalize` pass: no token character is ever stripped there and
    each character it replaces or collapses was already a token break, so
    the tokens are ``_tokens_of(_normalize(text))``'s."""
    tokens = _TOKEN.findall(text.lower())
    if drop_stopwords:
        tokens = [token for token in tokens if token not in STOPWORDS]
    return tuple(tokens)


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def normalize_text(text: str) -> str:
    """Lowercase ``text`` and strip punctuation the rule pipeline ignores.

    >>> normalize_text("Dickies 38in. x 30in. Indigo Blue Jeans!")
    'dickies 38in. x 30in. indigo blue jeans'
    """
    return _normalize(text)


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def tokenize_cached(text: str, drop_stopwords: bool = True) -> Tuple[str, ...]:
    """Tokenize ``text`` to an immutable (cache-shared) token tuple.

    Hot paths that never mutate the result (the prepared-item layer, the
    rule/data indexes) should call this directly and skip the list copy
    :func:`tokenize` makes. The tokens are interned: a served item holds
    its title's tokens for as long as the daemon runs, and interning makes
    each one a pointer into a vocabulary of a few thousand shared strings
    rather than a fresh string per title.
    """
    return tuple(map(sys.intern, _tokens_of(text, drop_stopwords)))


def tokenize_uncached(text: str, drop_stopwords: bool = True) -> Tuple[str, ...]:
    """:func:`tokenize_cached` (interned tokens too) without touching
    either cache.

    For passes that read each title once and keep what they need: rule
    induction (every training title, behind its own memo) and the served
    corpus (every arriving title, held as its row's token codes). Routing
    those through the bounded LRUs buys no hits, evicts other users'
    entries and pins a full cache of titles for the life of the process.

    >>> tokenize_uncached("Blue Jeans, 2 Pack") == tokenize_cached("Blue Jeans, 2 Pack")
    True
    """
    return tuple(map(sys.intern, _tokens_of(text, drop_stopwords)))


def tokenize(text: str, drop_stopwords: bool = True) -> List[str]:
    """Split ``text`` into normalized tokens.

    >>> tokenize("Men's Relaxed Fit Denim Jeans, 2 Pack")
    ['men', 's', 'relaxed', 'fit', 'denim', 'jeans', '2', 'pack']
    """
    return list(tokenize_cached(text, drop_stopwords))


def cache_stats() -> dict:
    """Hit/miss/occupancy stats of the bounded text caches, by function.

    The values mirror :func:`functools.lru_cache`'s ``cache_info`` plus a
    derived ``hit_rate``; keys are stable so the metrics layer can map
    them straight onto gauges (``text_cache_hits{fn=tokenize}`` etc.).

    >>> clear_caches()
    >>> _ = tokenize("Blue Jeans"); _ = tokenize("Blue Jeans")
    >>> info = cache_stats()["tokenize"]
    >>> (info["hits"], info["misses"], info["size"], info["maxsize"])
    (1, 1, 1, 32768)
    """
    stats = {}
    for name, fn in (("tokenize", tokenize_cached), ("normalize", normalize_text)):
        info = fn.cache_info()
        lookups = info.hits + info.misses
        stats[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "hit_rate": info.hits / lookups if lookups else 0.0,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }
    return stats


def clear_caches() -> None:
    """Reset both text caches (tests and cold-start benchmarks)."""
    tokenize_cached.cache_clear()
    normalize_text.cache_clear()


def singular_form(token: str) -> str:
    """Crude singular of a plural token, or the token itself.

    The plural bridging used by the execution indexes: "rings" -> "ring",
    but "dress"/"gas" stay put.

    >>> singular_form("rings")
    'ring'
    >>> singular_form("dress")
    'dress'
    """
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def expand_plural_singulars(tokens: Iterable[str]) -> FrozenSet[str]:
    """Token set augmented with crude singular forms.

    This is the anchor-matching alphabet of the execution layer: an index
    posting under "ring" must be found by a title containing "rings".
    """
    expanded = set(tokens)
    for token in tuple(expanded):
        singular = singular_form(token)
        if singular != token:
            expanded.add(singular)
    return frozenset(expanded)


def ngrams(tokens: Sequence[str], n: int) -> Iterator[Tuple[str, ...]]:
    """Yield contiguous ``n``-grams from ``tokens``.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for start in range(len(tokens) - n + 1):
        yield tuple(tokens[start : start + n])


def char_ngrams(text: str, n: int) -> List[str]:
    """Character n-grams of a normalized string, used by EM similarity.

    The paper's example EM rule tokenizes titles into 3-grams
    (``jaccard.3g(a.title, b.title)``).

    >>> char_ngrams("abcd", 3)
    ['abc', 'bcd']
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    compact = normalize_text(text).replace(" ", "_")
    if len(compact) < n:
        return [compact] if compact else []
    return [compact[i : i + n] for i in range(len(compact) - n + 1)]


def contains_word_sequence(title_tokens: Sequence[str], sequence: Sequence[str]) -> bool:
    """True if ``sequence`` appears in order (not necessarily contiguously).

    This is the semantics of the section 5.2 generated rules
    ``a1.*a2.*...*an -> t``: "the tokens in the sequence appear in that
    order (not necessarily consecutively) in the title".

    >>> contains_word_sequence(["denim", "blue", "jeans"], ["denim", "jeans"])
    True
    >>> contains_word_sequence(["jeans", "denim"], ["denim", "jeans"])
    False
    """
    if not sequence:
        return True
    position = 0
    for token in title_tokens:
        if token == sequence[position]:
            position += 1
            if position == len(sequence):
                return True
    return False


def window(tokens: Sequence[str], center_start: int, center_end: int, size: int) -> Tuple[List[str], List[str]]:
    """Return (prefix, suffix) windows of ``size`` tokens around a span.

    Used by the synonym tool's context extraction ("currently set to be 5
    words before and after the candidate synonym", section 5.1).
    """
    prefix = list(tokens[max(0, center_start - size) : center_start])
    suffix = list(tokens[center_end : center_end + size])
    return prefix, suffix


def join_phrases(phrases: Iterable[str]) -> str:
    """Render a list of phrases as a regex disjunction body.

    >>> join_phrases(["motor", "engine"])
    'motor|engine'
    """
    return "|".join(phrases)
