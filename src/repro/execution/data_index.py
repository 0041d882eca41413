"""Inverted index over data items, for fast rule development (section 4).

"When the analyst is still developing a rule R (e.g., debugging or refining
it) ... the analyst often needs to run variations of rule R repeatedly on a
development data set D ... a solution direction is to index the data set D
for efficient rule execution."

Items are prepared (tokenized) exactly once at build time — or once per
*process* when a shared :data:`~repro.core.prepared.PreparedCache` is
threaded in — and every rule run against the index reuses those
:class:`~repro.core.prepared.PreparedItem` views instead of re-tokenizing
per evaluation.

The index is mutable: :meth:`add` and :meth:`remove` keep it current under
batch arrival and item churn, which is what lets the incremental executor
(:mod:`repro.execution.incremental`) answer "which rows could rule R
touch?" against a live corpus. Removal tombstones the row (``None`` in
``items``/``_prepared``) rather than renumbering, so previously returned
row numbers stay stable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import PreparedCache, PreparedItem, prepare_cached
from repro.core.rule import Rule, SequenceRule


class DataIndex:
    """token -> item rows, consulted through each rule's anchor contract."""

    def __init__(
        self,
        items: Sequence[ProductItem] = (),
        cache: Optional[PreparedCache] = None,
    ):
        self.items: List[Optional[ProductItem]] = []
        self._prepared: List[Optional[PreparedItem]] = []
        self._postings: Dict[str, Set[int]] = defaultdict(set)
        self._row_by_id: Dict[str, int] = {}
        self._live = 0
        self._cache = cache
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        """Live (non-tombstoned) item count."""
        return self._live

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._row_by_id

    # -- mutation -----------------------------------------------------------------

    def add(self, item: ProductItem) -> int:
        """Index ``item``; returns its row. Duplicate item_ids replace."""
        if getattr(item, "item_id", None) in self._row_by_id:
            self.remove(item.item_id)
        prepared = prepare_cached(item, self._cache)
        row = len(self.items)
        self.items.append(prepared.item)
        self._prepared.append(prepared)
        # Post plural-expanded anchors so "ring" anchors find "rings".
        for token in prepared.anchor_tokens:
            self._postings[token].add(row)
        self._row_by_id[prepared.item_id] = row
        self._live += 1
        return row

    def remove(self, item_id: str) -> bool:
        """Drop an item from the index; True if it was present."""
        row = self._row_by_id.pop(item_id, None)
        if row is None:
            return False
        prepared = self._prepared[row]
        for token in prepared.anchor_tokens:
            posted = self._postings.get(token)
            if posted is not None:
                posted.discard(row)
                if not posted:
                    del self._postings[token]
        self.items[row] = None
        self._prepared[row] = None
        self._live -= 1
        return True

    # -- queries ------------------------------------------------------------------

    def live_rows(self) -> Iterator[Tuple[int, PreparedItem]]:
        """Yield (row, prepared item) for every non-tombstoned row."""
        for row, prepared in enumerate(self._prepared):
            if prepared is not None:
                yield row, prepared

    def prepared_at(self, row: int) -> Optional[PreparedItem]:
        return self._prepared[row]

    def get(self, item_id: str) -> Optional[ProductItem]:
        """The live record indexed under ``item_id``, or None."""
        row = self._row_by_id.get(item_id)
        return None if row is None else self.items[row]

    def candidate_rows(self, rule: Rule) -> List[int]:
        """Rows that might match ``rule`` (superset; sorted).

        Sequence rules intersect their tokens' postings; regex rules union
        their anchors'. Rules without anchors scan everything live.
        """
        if isinstance(rule, SequenceRule):
            postings = [self._postings.get(t, set()) for t in rule.token_sequence]
            if not postings:
                return []
            rows = set.intersection(*postings)
            return sorted(rows)
        anchors = rule.anchor_literals()
        if not anchors:
            return [row for row, _ in self.live_rows()]
        rows: Set[int] = set()
        for anchor in anchors:
            rows |= self._postings.get(anchor, set())
        return sorted(rows)

    def matches(self, rule: Rule) -> List[ProductItem]:
        """Items actually matching ``rule``, via the index."""
        return [
            self.items[row]
            for row in self.candidate_rows(rule)
            if rule.matches_prepared(self._prepared[row])
        ]

    def candidate_fraction(self, rule: Rule) -> float:
        """How much of the data set the index lets the rule skip."""
        if not self._live:
            return 0.0
        return len(self.candidate_rows(rule)) / self._live
