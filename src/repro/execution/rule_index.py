"""Inverted index over rules: token -> rules that could match.

Soundness contract per rule class:

* regex rules expose *any-of* anchors (every matching title contains at
  least one anchor token), so the rule is posted under **all** anchors;
* sequence rules require *all* their tokens, so posting under **one**
  chosen token (the rarest, given corpus statistics) is sound and keeps
  posting lists short;
* rules with no extractable anchors (or non-title rules like attribute
  rules) fall into an always-check residue list.

Removal is O(postings actually holding the rule), not O(index): a
``rule_id -> posting keys`` reverse map records where each rule was
posted, so churn (analysts disabling and retiring rules constantly) never
triggers a scan of every posting list.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.catalog.types import ProductItem
from repro.core.prepared import ItemLike, prepare
from repro.core.rule import Rule, SequenceRule
from repro.utils.text import tokenize

# Reverse-map sentinel for "posted to the residue list, not a token".
_RESIDUE_KEY = None


def rarest_anchor(tokens: Sequence[str], token_frequency: Dict[str, int]) -> str:
    """The anchor token a sequence rule is keyed under — deterministic.

    This tiebreak is a *shared contract* between :class:`RuleIndex` and the
    compiled layer (:mod:`repro.execution.compiler`): both must pick the
    same anchor for the same rule, or their candidate sets — and therefore
    the ``evaluations_per_item`` stat the benchmark series compare — drift
    apart. Ranking, best first:

    1. lowest corpus frequency (tokens *missing* from the table rank as
       frequency 0 — unseen vocabulary is treated as rare, which keeps the
       posting list short even when the table is stale);
    2. on frequency ties (including an empty/absent table, where every
       token ties at 0), the longest token — longer tokens discriminate
       better;
    3. on length ties, the lexicographically smallest token.

    The same rule therefore always lands under the same anchor for a given
    frequency table, regardless of insertion order or dict iteration order.
    """
    return min(tokens, key=lambda t: (token_frequency.get(t, 0), -len(t), t))


class RuleIndex:
    """Token-anchored rule lookup."""

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        token_frequency: Optional[Dict[str, int]] = None,
    ):
        self._postings: Dict[str, List[Rule]] = defaultdict(list)
        self._residue: List[Rule] = []
        self._token_frequency = dict(token_frequency or {})
        # rule_id -> posting keys (tokens, or _RESIDUE_KEY) the rule lives
        # under; consulted by remove() so it never scans unrelated postings.
        self._keys_by_rule: Dict[str, List[Optional[str]]] = {}
        self._size = 0
        for rule in rules:
            self.add(rule)

    def __len__(self) -> int:
        return self._size

    @property
    def residue_count(self) -> int:
        return len(self._residue)

    def add(self, rule: Rule) -> None:
        self._size += 1
        keys = self._keys_by_rule.setdefault(rule.rule_id, [])
        if isinstance(rule, SequenceRule):
            anchor = self._rarest(rule.token_sequence)
            self._postings[anchor].append(rule)
            keys.append(anchor)
            return
        anchors = rule.anchor_literals()
        if not anchors:
            self._residue.append(rule)
            keys.append(_RESIDUE_KEY)
            return
        for anchor in anchors:
            self._postings[anchor].append(rule)
            keys.append(anchor)

    def remove(self, rule_id: str) -> bool:
        """Remove a rule from the index; True if it was present.

        Rule bases churn constantly (analysts disable and retire rules);
        the index must follow without a full rebuild. The reverse map makes
        this touch only the posting lists the rule actually occupies.
        """
        keys = self._keys_by_rule.pop(rule_id, None)
        if keys is None:
            return False
        for key in set(keys):
            if key is _RESIDUE_KEY:
                self._residue = [r for r in self._residue if r.rule_id != rule_id]
                continue
            postings = self._postings.get(key)
            if postings is None:
                continue
            postings[:] = [r for r in postings if r.rule_id != rule_id]
            if not postings:
                del self._postings[key]
        self._size -= 1
        return True

    def _rarest(self, tokens: Sequence[str]) -> str:
        """Delegate to the shared :func:`rarest_anchor` tiebreak."""
        return rarest_anchor(tokens, self._token_frequency)

    def candidates(self, item: ItemLike) -> List[Rule]:
        """Rules that might match ``item`` (superset of actual matches).

        Matching against anchors uses the item's tokens *and* their crude
        singular forms so plural-tolerant anchors like "ring" hit "rings".
        Accepts a :class:`~repro.core.prepared.PreparedItem` to reuse the
        item's one-time tokenization; raw items are prepared on the fly.
        """
        prepared = prepare(item)
        seen: Set[str] = set()
        found: List[Rule] = []
        postings = self._postings
        for token in prepared.anchor_tokens:
            for rule in postings.get(token, ()):
                if rule.rule_id not in seen:
                    seen.add(rule.rule_id)
                    found.append(rule)
        found.extend(self._residue)
        return found

    @staticmethod
    def corpus_token_frequency(titles: Iterable[str]) -> Dict[str, int]:
        """Helper: token document frequency over a reference corpus."""
        frequency: Dict[str, int] = defaultdict(int)
        for title in titles:
            for token in set(tokenize(title)):
                frequency[token] += 1
        return dict(frequency)
