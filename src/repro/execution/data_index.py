"""Inverted index over data items, for fast rule development (section 4).

"When the analyst is still developing a rule R (e.g., debugging or refining
it) ... the analyst often needs to run variations of rule R repeatedly on a
development data set D ... a solution direction is to index the data set D
for efficient rule execution."

Items are prepared (tokenized) exactly once, on the way in, and every rule
run against the index reuses those
:class:`~repro.core.prepared.PreparedItem` views instead of re-tokenizing
per evaluation. A row *is* its prepared view: the record is read off it
(``.item``), and :meth:`get` hands the view back by item id.

The index is mutable: :meth:`add` and :meth:`remove` keep it current under
batch arrival and item churn, which is what lets the incremental executor
(:mod:`repro.execution.incremental`) answer "which rows could rule R
touch?" against a live corpus. Removal tombstones the row (``None`` in
``_prepared``) rather than renumbering, so previously returned row numbers
stay stable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Rule, SequenceRule


class DataIndex:
    """token -> item rows, consulted through each rule's anchor contract."""

    def __init__(self, items: Sequence[ItemLike] = ()):
        self._prepared: List[Optional[PreparedItem]] = []
        self._postings: Dict[str, Set[int]] = defaultdict(set)
        self._row_by_id: Dict[str, int] = {}
        self._live = 0
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        """Live (non-tombstoned) item count."""
        return self._live

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._row_by_id

    # -- mutation -----------------------------------------------------------------

    def add(self, item: ItemLike) -> int:
        """Index ``item`` (a prepared view is kept as handed in); returns
        its row. Duplicate item_ids replace."""
        prepared = prepare(item)
        item_id = prepared.item_id
        if item_id in self._row_by_id:
            self.remove(item_id)
        row = len(self._prepared)
        self._prepared.append(prepared)
        # Post plural-expanded anchors so "ring" anchors find "rings".
        for token in prepared.anchor_tokens:
            self._postings[token].add(row)
        self._row_by_id[item_id] = row
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

    def get(self, item_id: str) -> Optional[PreparedItem]:
        """The live prepared view indexed under ``item_id``, or None."""
        row = self._row_by_id.get(item_id)
        return None if row is None else self._prepared[row]

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
        candidates = (self._prepared[row] for row in self.candidate_rows(rule))
        return [p.item for p in candidates if rule.matches_prepared(p)]

    def candidate_fraction(self, rule: Rule) -> float:
        """How much of the data set the index lets the rule skip."""
        if not self._live:
            return 0.0
        return len(self.candidate_rows(rule)) / self._live
