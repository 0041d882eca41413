"""A list-backed reference for :class:`repro.execution.DataIndex`.

The plain form of the corpus index: one Python list per column (ids,
titles, token tuples), a removed row tombstoned by ``None`` in its title
and tokens, and postings kept as lists under the same compaction policy
as the real index (a token's list rewritten when a read finds its dead
entries outnumber its live ones, every list when the index's do). The
columnar index must answer exactly as this one does after every step;
``tests/test_data_index_oracle.py`` holds it to that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import anchor_tokens
from repro.core.rule import Rule, SequenceRule
from repro.utils.text import tokenize_uncached


class ListDataIndex:
    def __init__(self) -> None:
        self.ids: List[str] = []
        self.titles: List[Optional[str]] = []
        self.tokens: List[Optional[Tuple[str, ...]]] = []
        self.postings: Dict[str, List[int]] = {}
        self.row_by_id: Dict[str, int] = {}
        self.live_postings = 0
        self.dead_postings = 0

    def __len__(self) -> int:
        return len(self.row_by_id)

    def add(self, item: ProductItem) -> int:
        if item.item_id in self.row_by_id:
            self.remove(item.item_id)
        row = len(self.ids)
        tokens = tokenize_uncached(item.title, False)
        self.ids.append(item.item_id)
        self.titles.append(item.title)
        self.tokens.append(tokens)
        anchors = anchor_tokens(tokens)
        for token in anchors:
            self.postings.setdefault(token, []).append(row)
        self.live_postings += len(anchors)
        self.row_by_id[item.item_id] = row
        return row

    def remove(self, item_id: str) -> Optional[int]:
        row = self.row_by_id.pop(item_id, None)
        if row is None:
            return None
        posted = len(anchor_tokens(self.tokens[row]))
        self.titles[row] = self.tokens[row] = None
        self.live_postings -= posted
        self.dead_postings += posted
        if self.dead_postings > self.live_postings:
            for token in list(self.postings):
                self._rewrite(token, self._live_of(self.postings[token]))
            self.dead_postings = 0
        return row

    def _live_of(self, posted: List[int]) -> List[int]:
        return [row for row in posted if self.tokens[row] is not None]

    def _rewrite(self, token: str, live: List[int]) -> None:
        if live:
            self.postings[token] = live
        else:
            del self.postings[token]

    def _live_posting(self, token: str) -> List[int]:
        posted = self.postings.get(token, [])
        live = self._live_of(posted)
        dead = len(posted) - len(live)
        if dead > len(live):
            self.dead_postings -= dead
            self._rewrite(token, live)
        return live

    def live_rows(self) -> List[int]:
        return [row for row, tokens in enumerate(self.tokens) if tokens is not None]

    def row_of(self, item_id: str) -> Optional[int]:
        return self.row_by_id.get(item_id)

    def candidate_rows(self, rule: Rule) -> List[int]:
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
