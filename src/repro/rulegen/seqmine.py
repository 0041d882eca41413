"""AprioriAll frequent token-sequence mining (Agrawal & Srikant, ICDE '95).

Section 5.2: "we apply the AprioriAll algorithm ... to find all frequent
token sequences in D, where a token sequence s is frequent if its support
(i.e., the percentage of titles in D that contain s) exceeds or is equal to
a minimum support threshold", with containment meaning in-order but not
necessarily contiguous appearance.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

from repro.utils.text import contains_word_sequence

Sequence_ = Tuple[str, ...]


def _contains(title_tokens: Sequence[str], candidate: Sequence_) -> bool:
    return contains_word_sequence(title_tokens, candidate)


def exact_min_count(min_support: float, n_titles: int) -> int:
    """``ceil(min_support * n_titles)`` in exact arithmetic, min 1.

    ``min_support`` is interpreted as the decimal literal it was written as
    (``Fraction(str(...))``), not as the binary float it is stored as:
    ``0.1 * 10`` titles is exactly 1 title, never the float artefact
    ``1.0000000000000002`` whose ceiling silently demands a second title.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must be in (0, 1], got {min_support}")
    if n_titles < 0:
        raise ValueError(f"n_titles must be non-negative, got {n_titles}")
    threshold = Fraction(str(min_support))
    return max(1, -(-(threshold.numerator * n_titles) // threshold.denominator))


def build_postings(
    token_lists: Sequence[Sequence[str]],
) -> Dict[str, Set[int]]:
    """Inverted index: token -> title row ids containing it."""
    postings: Dict[str, Set[int]] = defaultdict(set)
    for row, tokens in enumerate(token_lists):
        for token in tokens:
            postings[token].add(row)
    return postings


def mine_frequent_sequences(
    token_lists: Sequence[Sequence[str]],
    min_support: float,
    max_length: int = 4,
) -> Dict[Sequence_, int]:
    """All frequent sequences up to ``max_length``, mapped to their counts.

    ``min_support`` is a fraction of ``len(token_lists)``. Level-wise
    candidate generation with Apriori pruning; support counting is
    accelerated by a token -> title inverted index (a candidate can only be
    contained in titles containing all of its tokens).
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must be in (0, 1], got {min_support}")
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    n_titles = len(token_lists)
    if n_titles == 0:
        return {}
    min_count = exact_min_count(min_support, n_titles)

    postings = build_postings(token_lists)

    frequent: Dict[Sequence_, int] = {}

    # L1.
    current: Dict[Sequence_, Set[int]] = {}
    for token, rows in postings.items():
        if len(rows) >= min_count:
            current[(token,)] = rows
    frequent.update({seq: len(rows) for seq, rows in current.items()})

    length = 1
    while current and length < max_length:
        length += 1
        candidates = _generate_candidates(set(current), length)
        next_level: Dict[Sequence_, Set[int]] = {}
        for candidate in candidates:
            # Rows that contain all tokens — superset of true containment.
            possible = set.intersection(*(postings[t] for t in candidate))
            if len(possible) < min_count:
                continue
            rows = {
                row for row in possible if _contains(token_lists[row], candidate)
            }
            if len(rows) >= min_count:
                next_level[candidate] = rows
        frequent.update({seq: len(rows) for seq, rows in next_level.items()})
        current = next_level
    return frequent


def _generate_candidates(
    previous: Set[Sequence_], length: int
) -> List[Sequence_]:
    """AprioriAll join + prune: s1 ⋈ s2 when s1[1:] == s2[:-1]."""
    by_prefix: Dict[Sequence_, List[Sequence_]] = defaultdict(list)
    for seq in previous:
        by_prefix[seq[:-1]].append(seq)
    candidates: List[Sequence_] = []
    for seq in previous:
        suffix = seq[1:]
        for extension in by_prefix.get(suffix, ()):
            candidate = seq + (extension[-1],)
            if len(candidate) != length:
                continue
            if _all_subsequences_frequent(candidate, previous):
                candidates.append(candidate)
    return sorted(set(candidates))


def _all_subsequences_frequent(
    candidate: Sequence_, previous: Set[Sequence_]
) -> bool:
    """Apriori pruning: every (k-1)-subsequence must be frequent."""
    for drop in range(len(candidate)):
        sub = candidate[:drop] + candidate[drop + 1 :]
        if sub not in previous:
            return False
    return True
