"""String similarity functions used by EM rules."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.utils.text import char_ngrams, tokenize


def jaccard_tokens(a: str, b: str) -> float:
    """Jaccard similarity over word tokens.

    >>> jaccard_tokens("red wool hat", "wool hat")
    0.6666666666666666
    """
    set_a, set_b = set(tokenize(a)), set(tokenize(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def jaccard_3gram(a: str, b: str) -> float:
    """Jaccard over character 3-grams — the paper's ``jaccard.3g``."""
    set_a, set_b = set(char_ngrams(a, 3)), set(char_ngrams(b, 3))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def levenshtein(a: str, b: str, cutoff: Optional[int] = None) -> int:
    """Edit distance; with a ``cutoff``, ``min(distance, cutoff + 1)``.

    Myers' bit-parallel algorithm (Myers 1999, JACM; in Hyyrö's form for
    the distance between two whole strings): one column of the dynamic
    program is held as two bit vectors over the shorter string, so each
    character of the longer one costs a few integer operations instead of
    a pass over the column. Python integers have no word size, so any
    length works. With a cutoff the loop stops once the distance is
    certain to exceed it: each remaining character can lower the score
    by one at most.

    >>> levenshtein("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    limit = n if cutoff is None else cutoff
    if n - m > limit or not a:
        return min(n, limit + 1)
    peq: Dict[str, int] = {}
    for i, char in enumerate(a):
        peq[char] = peq.get(char, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for j, char in enumerate(b, start=1):
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        if score - (n - j) > limit:
            return limit + 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalized_levenshtein(a: str, b: str) -> float:
    """1 - distance/max_len, in [0, 1]."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity (common for names/short strings)."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(b))
        for j in range(start, end):
            if not b_flags[j] and b[j] == char_a:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len(a)):
        if a_flags[i]:
            while not b_flags[k]:
                k += 1
            if a[i] != b[k]:
                transpositions += 1
            k += 1
    transpositions //= 2
    jaro = (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def exact_match(a: str, b: str) -> float:
    """1.0 on (case-insensitive, stripped) equality, else 0.0."""
    return 1.0 if a.strip().lower() == b.strip().lower() else 0.0

SIMILARITY_FUNCTIONS = {
    "exact": exact_match,
    "jaccard": jaccard_tokens,
    "jaccard_3g": jaccard_3gram,
    "jaro_winkler": jaro_winkler,
    "lev_norm": normalized_levenshtein,
}
