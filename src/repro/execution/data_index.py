"""Inverted index over data items, for fast rule development (section 4).

"When the analyst is still developing a rule R (e.g., debugging or refining
it) ... the analyst often needs to run variations of rule R repeatedly on a
development data set D ... a solution direction is to index the data set D
for efficient rule execution."

Items are prepared (tokenized) exactly once, on the way in, and every rule
run against the index reuses those
:class:`~repro.core.prepared.PreparedItem` views instead of re-tokenizing
per evaluation. A row *is* the prepared view it was handed, kept as is:
a development set's views keep their records (:meth:`matches` returns
them); the incremental executor's drop theirs once evaluated.
:meth:`get` hands a view back by item id.

The index is mutable: :meth:`add` and :meth:`remove` keep it current under
batch arrival and item churn, which is what lets the incremental executor
(:mod:`repro.execution.incremental`) answer "which rows could rule R
touch?" against a live corpus. Removal tombstones the row (``None`` in
``_prepared``) rather than renumbering, so previously returned row numbers
stay stable.

Postings are append-only: each token owns one ``array('i')`` of rows in
arrival order, 4 bytes an entry, and removal leaves the row's entries in
place. Readers skip tombstoned rows. A token's array is rewritten without
them when a read finds its dead entries outnumber its live ones, and
every array is when a removal leaves the index's dead entries
outnumbering its live ones, so the dead never outnumber the live.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Rule, SequenceRule


class DataIndex:
    """token -> item rows, consulted through each rule's anchor contract."""

    def __init__(self, items: Sequence[ItemLike] = ()):
        self._prepared: List[Optional[PreparedItem]] = []
        self._postings: Dict[str, array] = {}
        self._row_by_id: Dict[str, int] = {}
        self._live = 0
        self._live_postings = 0
        self._dead_postings = 0
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        """Live (non-tombstoned) item count."""
        return self._live

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._row_by_id

    @property
    def dead_postings(self) -> int:
        """Posting entries that still name a tombstoned row (O(1))."""
        return self._dead_postings

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
        anchors = prepared.anchor_tokens
        postings = self._postings
        for token in anchors:
            posted = postings.get(token)
            if posted is None:
                postings[token] = array("i", (row,))
            else:
                posted.append(row)
        self._live_postings += len(anchors)
        self._row_by_id[item_id] = row
        self._live += 1
        return row

    def remove(self, item_id: str) -> Optional[int]:
        """Tombstone an item's row; returns it (None if absent)."""
        row = self._row_by_id.pop(item_id, None)
        if row is None:
            return None
        posted = len(self._prepared[row].anchor_tokens)
        self._prepared[row] = None
        self._live -= 1
        self._live_postings -= posted
        self._dead_postings += posted
        if self._dead_postings > self._live_postings:
            self._compact()
        return row

    def _live_posting(self, token: str) -> Sequence[int]:
        """``token``'s live rows, ascending: the array itself while the
        index holds no tombstoned entry. Otherwise a filtered copy, and
        the array is rewritten without its tombstoned rows when those
        outnumber its live ones."""
        posted = self._postings.get(token)
        if posted is None:
            return ()
        if not self._dead_postings:
            return posted
        live = list(compress(posted, map(self._prepared.__getitem__, posted)))
        dead = len(posted) - len(live)
        if dead > len(live):
            self._dead_postings -= dead
            if live:
                self._postings[token] = array("i", live)
            else:
                del self._postings[token]
        return live

    def _compact(self) -> None:
        """Rewrite every posting array without its tombstoned rows."""
        for token in list(self._postings):
            posted = self._postings[token]
            live = array("i", compress(posted, map(self._prepared.__getitem__, posted)))
            if live:
                self._postings[token] = live
            else:
                del self._postings[token]
        self._dead_postings = 0

    # -- queries ------------------------------------------------------------------

    def live_rows(self) -> Iterator[Tuple[int, PreparedItem]]:
        """Yield (row, prepared item) for every non-tombstoned row."""
        for row, prepared in enumerate(self._prepared):
            if prepared is not None:
                yield row, prepared

    def prepared_at(self, row: int) -> Optional[PreparedItem]:
        return self._prepared[row]

    def row_of(self, item_id: str) -> Optional[int]:
        """The live row indexed under ``item_id``, or None."""
        return self._row_by_id.get(item_id)

    def get(self, item_id: str) -> Optional[PreparedItem]:
        """The live prepared view indexed under ``item_id``, or None."""
        row = self._row_by_id.get(item_id)
        return None if row is None else self._prepared[row]

    def candidate_rows(self, rule: Rule) -> List[int]:
        """Live rows that might match ``rule`` (superset; sorted).

        Sequence rules intersect their tokens' postings; regex rules union
        their anchors'. Rules without anchors scan everything live.
        """
        if isinstance(rule, SequenceRule):
            postings = [self._live_posting(t) for t in rule.token_sequence]
            if not postings:
                return []
            return sorted(set(postings[0]).intersection(*postings[1:]))
        anchors = rule.anchor_literals()
        if not anchors:
            return [row for row, _ in self.live_rows()]
        rows: Set[int] = set()
        for anchor in anchors:
            rows.update(self._live_posting(anchor))
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
