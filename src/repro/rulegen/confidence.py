"""Rule confidence scoring (section 5.2).

"This score is a linear combination of multiple factors, including whether
the regex (of the rule) contains the product type name, the number of
tokens from the product type name that appear in the regex, and the support
of the rule in the training data."
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Sequence, Tuple

import numpy as _np

from repro.utils.text import tokenize_uncached


def _singular(token: str) -> str:
    """Crude singularization so "jeans" matches the type name "jean"."""
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def singular_forms(vocabulary: Sequence[str]) -> List[str]:
    """Each vocabulary token's singular, for :meth:`ConfidenceScorer.score_rows`."""
    return [_singular(token) for token in vocabulary]


class ConfidenceScorer:
    """Per-type confidence scoring with the type-name work hoisted out.

    ``confidence_score`` re-tokenizes and re-singularizes the type name on
    every call; scoring thousands of candidate sequences against one type
    (the per-type generation stage) only needs that done once. The scorer
    also memoizes ``_singular`` per token — candidate sequences within a
    type share most of their vocabulary.

    Produces bit-identical scores to :func:`confidence_score` (same
    operations, same order).
    """

    def __init__(
        self,
        type_name: str,
        weights: Tuple[float, float, float] = (0.45, 0.35, 0.20),
        support_saturation: float = 0.2,
    ):
        self.type_name = type_name
        self.w_full, self.w_overlap, self.w_support = weights
        self.support_saturation = support_saturation
        name_tokens = {_singular(t) for t in tokenize_uncached(type_name)}
        # Type names like "abrasive wheels & discs" tokenize to several words.
        if not name_tokens:
            name_tokens = {_singular(type_name.lower())}
        self.name_tokens = name_tokens
        self._n_name_tokens = len(name_tokens)
        self._singular_cache: dict = {}

    def score(self, token_sequence: Sequence[str], support: float) -> float:
        if not token_sequence:
            raise ValueError("confidence of an empty sequence is undefined")
        if not 0.0 <= support <= 1.0:
            raise ValueError(f"support must be in [0, 1], got {support}")
        cache = self._singular_cache
        sequence_tokens = set()
        for token in token_sequence:
            singular = cache.get(token)
            if singular is None:
                singular = cache[token] = _singular(token)
            sequence_tokens.add(singular)
        name_tokens = self.name_tokens
        overlap = len(name_tokens & sequence_tokens) / self._n_name_tokens
        contains_full = 1.0 if name_tokens <= sequence_tokens else 0.0
        support_term = min(1.0, support / self.support_saturation)
        score = (
            self.w_full * contains_full
            + self.w_overlap * overlap
            + self.w_support * support_term
        )
        return max(0.0, min(1.0, score))

    def score_rows(self, singulars: Sequence[str], tokens, support):
        """:meth:`score` over columns: one float64 score per row.

        ``tokens`` is an ``(n, k)`` array of ids into the vocabulary whose
        singulars are ``singulars`` (``-1`` pads short rows), ``support``
        the rows' supports. Bit-equal to calling :meth:`score` per row —
        the same float64 operations in the same order.
        """
        slot_of = {name: slot for slot, name in enumerate(self.name_tokens)}
        # One trailing -1 so the padding id -1 reads "no name token".
        slots = _np.array(
            [*map(slot_of.get, singulars, repeat(-1)), -1]
        )[tokens]
        hits = sum((slots == slot).any(axis=1) for slot in slot_of.values())
        overlap = hits / self._n_name_tokens
        contains_full = (hits == self._n_name_tokens).astype(_np.float64)
        support_term = _np.minimum(1.0, support / self.support_saturation)
        score = (
            self.w_full * contains_full
            + self.w_overlap * overlap
            + self.w_support * support_term
        )
        return _np.maximum(0.0, _np.minimum(1.0, score))


def confidence_score(
    token_sequence: Sequence[str],
    type_name: str,
    support: float,
    weights: Tuple[float, float, float] = (0.45, 0.35, 0.20),
    support_saturation: float = 0.2,
) -> float:
    """Confidence in [0, 1] for a generated rule.

    Three factors, linearly combined with ``weights``:

    1. whether the sequence contains the *full* type name (all name tokens);
    2. the fraction of type-name tokens appearing in the sequence;
    3. support, saturating at ``support_saturation``.

    >>> confidence_score(("denim", "jeans"), "jeans", 0.3) > 0.7
    True
    >>> confidence_score(("relaxed", "fit"), "jeans", 0.1) < 0.7
    True
    """
    return ConfidenceScorer(type_name, weights, support_saturation).score(
        token_sequence, support
    )
