"""Inverted index over data items, for fast rule development (section 4).

"When the analyst is still developing a rule R (e.g., debugging or refining
it) ... the analyst often needs to run variations of rule R repeatedly on a
development data set D ... a solution direction is to index the data set D
for efficient rule execution."

The index is the corpus as flat columns indexed by row, so a row costs
bytes, not objects:

- ``ids``, a list of the item ids;
- the titles, one ``bytearray`` of UTF-8 (encoded ``surrogatepass``, so
  every ``str`` round-trips) cut by an ``array('q')`` of row ends;
- the tokens, each title's token tuple with stop words (tokenized once on
  the way in, uncached: an indexed title never enters the text LRUs) as
  ``array('i')`` codes into one append-only vocabulary of the interned
  token strings, cut by an ``array('q')`` of row ends;
- a ``bytearray`` of live flags;
- once :meth:`hold_attributes` starts it, ``attributes``, a list.

:meth:`title_of` and :meth:`tokens_of` decode a row; :meth:`tokens_of`
gives the tuple ``tokenize_uncached(title, False)`` gave. The index holds
no record and no :class:`~repro.core.prepared.PreparedItem`: :meth:`view`
builds one when a row is read. Callers keep records by row.

The index is mutable: :meth:`add` and :meth:`remove` keep it current under
batch arrival and item churn, which is what lets the incremental executor
(:mod:`repro.execution.incremental`) answer "which rows could rule R
touch?" against a live corpus. Removal tombstones the row (its live flag
drops; the id stays, so a reader can still name the row) rather than
renumbering: row numbers are stable and never reused.

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
        self.attributes: Optional[List[Optional[Mapping[str, str]]]] = None
        self._title_bytes = bytearray()
        self._title_ends = array("q")
        self._token_codes = array("i")
        self._token_ends = array("q")
        self._vocabulary: List[str] = []
        self._code_of: Dict[str, int] = {}
        self._live_flags = bytearray()
        # The last added row and its token tuple: the view admission reads
        # right after :meth:`add` shares the tuple instead of decoding it.
        self._fresh: Tuple[int, Tuple[str, ...]] = (-1, ())
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
        title = item.title
        tokens = tokenize_uncached(title, False)
        self.ids.append(item_id)
        self._title_bytes += title.encode("utf-8", "surrogatepass")
        self._title_ends.append(len(self._title_bytes))
        self._encode(tokens)
        self._live_flags.append(1)
        self._fresh = (row, tokens)
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

    def _encode(self, tokens: Tuple[str, ...]) -> None:
        """Append ``tokens`` as vocabulary codes, coining a code for each
        token the vocabulary does not hold yet."""
        code_of = self._code_of
        codes = self._token_codes
        for token in tokens:
            code = code_of.get(token)
            if code is None:
                code = code_of[token] = len(self._vocabulary)
                self._vocabulary.append(token)
            codes.append(code)
        self._token_ends.append(len(codes))

    def remove(self, item_id: str) -> Optional[int]:
        """Tombstone an item's row; returns it (None if absent)."""
        row = self._row_by_id.pop(item_id, None)
        if row is None:
            return None
        posted = len(anchor_tokens(self.tokens_of(row)))
        self._live_flags[row] = 0
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
        return list(compress(posted, map(self._live_flags.__getitem__, posted)))

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
        return list(compress(range(len(self._live_flags)), self._live_flags))

    def row_of(self, item_id: str) -> Optional[int]:
        """The live row indexed under ``item_id``, or None."""
        return self._row_by_id.get(item_id)

    def title_of(self, row: int) -> str:
        """Row ``row``'s title, decoded from the titles buffer."""
        ends = self._title_ends
        return self._title_bytes[ends[row - 1] if row else 0:ends[row]].decode(
            "utf-8", "surrogatepass"
        )

    def tokens_of(self, row: int) -> Tuple[str, ...]:
        """Row ``row``'s token tuple with stop words, rebuilt from its
        codes: equal to what ``tokenize_uncached(title, False)`` gave."""
        fresh_row, tokens = self._fresh
        if row == fresh_row:
            return tokens
        ends, vocabulary = self._token_ends, self._vocabulary
        codes = self._token_codes[ends[row - 1] if row else 0:ends[row]]
        return tuple([vocabulary[code] for code in codes])

    def view(self, row: int, record: Optional[ProductItem] = None) -> PreparedItem:
        """A live row as the view rules read, over its decoded token tuple:
        over ``record`` (the row's) when given, else over the row alone."""
        if record is not None:
            return PreparedItem(record, self.tokens_of(row))
        attributes = None if self.attributes is None else self.attributes[row]
        return PreparedItem.of_row(
            self.ids[row], self.title_of(row), self.tokens_of(row), attributes
        )

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
