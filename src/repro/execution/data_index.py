"""Inverted index over data items, for fast rule development (section 4).

"When the analyst is still developing a rule R (e.g., debugging or refining
it) ... the analyst often needs to run variations of rule R repeatedly on a
development data set D ... a solution direction is to index the data set D
for efficient rule execution."

The index is the corpus as columns indexed by row: ``ids``, ``titles``,
``tokens`` (each title's token tuple with stop words, tokenized once on
the way in, uncached and interned: an indexed title never enters the text
LRUs) and, once :meth:`hold_attributes` starts it, ``attributes``. It
holds no record and no :class:`~repro.core.prepared.PreparedItem`:
:meth:`view` builds one when a row is read. Callers keep records by row.

The index is mutable: :meth:`add` and :meth:`remove` keep it current under
batch arrival and item churn, which is what lets the incremental executor
(:mod:`repro.execution.incremental`) answer "which rows could rule R
touch?" against a live corpus. Removal tombstones the row (title and
tokens become ``None``; the id stays, so a reader can still name the row)
rather than renumbering: row numbers are stable and never reused.

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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import PreparedItem, anchor_tokens
from repro.core.rule import Rule, SequenceRule
from repro.utils.text import tokenize_uncached


class DataIndex:
    """token -> item rows, consulted through each rule's anchor contract."""

    def __init__(self, items: Iterable[ProductItem] = ()):
        self.ids: List[str] = []
        self.titles: List[Optional[str]] = []
        self.tokens: List[Optional[Tuple[str, ...]]] = []
        self.attributes: Optional[List[Optional[Mapping[str, str]]]] = None
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

    def add(self, item: ProductItem) -> int:
        """Index ``item`` in a new row; returns it. Duplicate item_ids replace."""
        item_id = item.item_id
        if item_id in self._row_by_id:
            self.remove(item_id)
        row = len(self.ids)
        tokens = tokenize_uncached(item.title, False)
        self.ids.append(item_id)
        self.titles.append(item.title)
        self.tokens.append(tokens)
        if self.attributes is not None:
            self.attributes.append(item.attributes)
        # Post plural-expanded anchors so "ring" anchors find "rings".
        anchors = anchor_tokens(tokens)
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
        posted = len(anchor_tokens(self.tokens[row]))
        self.titles[row] = self.tokens[row] = None
        if self.attributes is not None:
            self.attributes[row] = None
        self._live -= 1
        self._live_postings -= posted
        self._dead_postings += posted
        if self._dead_postings > self._live_postings:
            self._compact()
        return row

    def hold_attributes(self, records: Callable[[List[int]], Iterable[ProductItem]]) -> None:
        """Start the ``attributes`` column from ``records(live rows)``
        (records out in row order); :meth:`add` appends to it from then on."""
        column: List[Optional[Mapping[str, str]]] = [None] * len(self.ids)
        rows = self.live_rows()
        for row, record in zip(rows, records(rows)):
            column[row] = record.attributes
        self.attributes = column

    def _live_of(self, posted: Sequence[int]) -> List[int]:
        # A posted row has at least one token, so its tokens are truthy
        # exactly while it is live.
        return list(compress(posted, map(self.tokens.__getitem__, posted)))

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
        live = self._live_of(posted)
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
            live = self._live_of(self._postings[token])
            if live:
                self._postings[token] = array("i", live)
            else:
                del self._postings[token]
        self._dead_postings = 0

    # -- queries ------------------------------------------------------------------

    def live_rows(self) -> List[int]:
        """Every non-tombstoned row, ascending."""
        return [row for row, tokens in enumerate(self.tokens) if tokens is not None]

    def row_of(self, item_id: str) -> Optional[int]:
        """The live row indexed under ``item_id``, or None."""
        return self._row_by_id.get(item_id)

    def view(self, row: int, record: Optional[ProductItem] = None) -> PreparedItem:
        """A live row as the view rules read, sharing its token tuple: over
        ``record`` (the row's) when given, else over the row alone."""
        if record is not None:
            return PreparedItem(record, self.tokens[row])
        attributes = None if self.attributes is None else self.attributes[row]
        return PreparedItem.of_row(self.ids[row], self.titles[row], self.tokens[row], attributes)

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
            return self.live_rows()
        rows: Set[int] = set()
        for anchor in anchors:
            rows.update(self._live_posting(anchor))
        return sorted(rows)

    def matches(self, rule: Rule, records: Sequence[ProductItem]) -> List[int]:
        """Rows matching ``rule``, via the index, over ``records`` by row."""
        return [
            row for row in self.candidate_rows(rule)
            if rule.matches_prepared(self.view(row, records[row]))
        ]

    def candidate_fraction(self, rule: Rule) -> float:
        """How much of the data set the index lets the rule skip."""
        if not self._live:
            return 0.0
        return len(self.candidate_rows(rule)) / self._live
