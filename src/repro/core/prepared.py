"""Prepared item views: tokenize once, match many.

Section 4's "Rule Execution and Optimization" challenge is dominated by
per-evaluation redundancy: the naive formulation re-tokenizes each title
once per *rule* instead of once per *item*. A :class:`PreparedItem` wraps
a :class:`~repro.catalog.types.ProductItem` with the views rules are
evaluated against — token lists with and without stop words, the
token-joined match text, the lowercased attribute map — each computed at
most once; the index-probe sets (``token_set``, ``anchor_tokens``) are
derived on each read instead, as a served item lives as long as the
daemon. It duck-types the ``ProductItem`` read surface, so the Chimera
stages, rule clauses and gate keeper need not care which they hold.

Rules read titles (§2–3), so a served corpus row is held as columns, not
as a view: :meth:`PreparedItem.of_row` builds a view over a row's id,
title and token tuple, decoded when the row is read. Such a view holds no
record; its ``item``, ``description``, ``vendor``, ``true_type`` — and
``attributes`` unless the corpus holds them — raise :class:`RecordNotHeld`,
never a default.
"""

from __future__ import annotations

import re
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.catalog.types import ProductItem
from repro.utils.text import (
    STOPWORDS,
    expand_plural_singulars,
    tokenize_cached,
)

_UNSET = object()
_WORD = re.compile(r"[a-z0-9]+")


class RecordNotHeld(LookupError):
    """A read of a record field on a view that holds no record."""


class PreparedItem:
    """A product item plus its lazily-memoized derived text views.

    Memoised for the view's life (every stage of a classification reads
    the same view): ``tokens``, ``tokens_with_stopwords``, ``match_text``
    and the lowered attribute map. Not memoised: ``token_set`` and
    ``anchor_tokens``, one-shot probe sets.
    """

    __slots__ = (
        "item_id",
        "title",
        "_record",
        "_attributes",
        "_tokens",
        "_tokens_with_stopwords",
        "_match_text",
        "_attributes_lower",
    )

    def __init__(self, item: ProductItem, tokens: Any = _UNSET):
        """A view of ``item``; ``tokens``: its title's token tuple with stop
        words, when already known (a corpus row's)."""
        self.item_id = item.item_id
        self.title = item.title
        self._record: Optional[ProductItem] = item
        self._attributes: Optional[Mapping[str, str]] = item.attributes
        self._tokens: Any = _UNSET
        self._tokens_with_stopwords: Any = tokens
        self._match_text: Any = _UNSET
        self._attributes_lower: Any = _UNSET

    @classmethod
    def of_row(
        cls,
        item_id: str,
        title: str,
        tokens: Tuple[str, ...],
        attributes: Optional[Mapping[str, str]] = None,
    ) -> "PreparedItem":
        """A view of a corpus row: no record, and ``attributes`` only when
        the corpus holds them."""
        view = cls.__new__(cls)
        view.item_id = item_id
        view.title = title
        view._record = None
        view._attributes = attributes
        view._tokens = view._match_text = view._attributes_lower = _UNSET
        view._tokens_with_stopwords = tokens
        return view

    # -- the record -------------------------------------------------------------

    @property
    def item(self) -> ProductItem:
        """The record; :class:`RecordNotHeld` on a row view."""
        if self._record is None:
            raise RecordNotHeld(f"{self.item_id!r}: this view holds no record")
        return self._record

    # -- ProductItem read surface (duck-typed passthrough) ----------------------

    @property
    def attributes(self) -> Mapping[str, str]:
        if self._attributes is None:
            raise RecordNotHeld(f"{self.item_id!r}: this view holds no attributes")
        return self._attributes

    @property
    def true_type(self) -> str:
        return self.item.true_type

    @property
    def vendor(self) -> str:
        return self.item.vendor

    @property
    def description(self) -> str:
        return self.item.description

    def attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive attribute lookup via a one-time lowered map."""
        if self._attributes_lower is _UNSET:
            lowered: Dict[str, str] = {}
            for key, value in self.attributes.items():
                lowered.setdefault(key.lower(), value)
            self._attributes_lower = lowered
        return self._attributes_lower.get(name.lower(), default)

    def has_attribute(self, name: str) -> bool:
        return self.attribute(name) is not None

    # -- derived text views (each computed at most once) ------------------------

    @property
    def tokens(self) -> Tuple[str, ...]:
        """Title tokens with stop words removed (sequence-rule alphabet).

        Derived by filtering :attr:`tokens_with_stopwords` (identical to
        ``tokenize(title)`` since stop-word removal is the tokenizer's last
        step) so each title is regex-tokenized only once. A title without
        a stop word shares that tuple instead of holding an equal copy.
        """
        if self._tokens is _UNSET:
            tokens = self.tokens_with_stopwords
            if not STOPWORDS.isdisjoint(tokens):
                tokens = tuple(t for t in tokens if t not in STOPWORDS)
            self._tokens = tokens
        return self._tokens

    @property
    def tokens_with_stopwords(self) -> Tuple[str, ...]:
        """All title tokens (regex rules match over these)."""
        if self._tokens_with_stopwords is _UNSET:
            self._tokens_with_stopwords = tokenize_cached(self.title, False)
        return self._tokens_with_stopwords

    @property
    def token_set(self) -> FrozenSet[str]:
        """The distinct title tokens; derived on every read, never kept."""
        return frozenset(self.tokens_with_stopwords)

    @property
    def anchor_tokens(self) -> FrozenSet[str]:
        """The index-probe alphabet: tokens, their words, crude singulars.

        A title regex sees a word boundary inside ``o-ring`` or ``13.5in``,
        so a rule anchored on ``ring`` must be proposed for those tokens
        too: tokens holding ``-``, ``.`` or ``/`` also contribute their
        alphanumeric pieces.

        Derived on every read, never kept: an item's probe set is read
        once when the item is indexed (and once more if it is removed, or
        per match of an unclean title), and a memo of it would outlive that
        read by the life of the item at ~0.4 KB a piece.
        """
        return anchor_tokens(self.tokens_with_stopwords)

    @property
    def match_text(self) -> str:
        """The token-joined title string regex rules search (the title
        itself, not an equal copy, when the two read the same)."""
        if self._match_text is _UNSET:
            text = " ".join(self.tokens_with_stopwords)
            title = self.title
            self._match_text = title if text == title else text
        return self._match_text

    def warm(self) -> "PreparedItem":
        """Force the memoised views now (so timing splits attribute the cost)."""
        self.tokens
        self.match_text
        return self

    def __repr__(self) -> str:
        return f"<PreparedItem {self.item_id!r}>"


ItemLike = Union[ProductItem, PreparedItem]


def anchor_tokens(tokens: Tuple[str, ...]) -> FrozenSet[str]:
    """The probe alphabet of a title's token tuple (with stop words): see
    :attr:`PreparedItem.anchor_tokens`."""
    words = set(tokens)
    for token in tokens:
        if not token.isalnum():
            words.update(_WORD.findall(token))
    return expand_plural_singulars(words)


def prepare(item: ItemLike) -> PreparedItem:
    """Wrap ``item`` as a PreparedItem (idempotent on prepared input)."""
    if isinstance(item, PreparedItem):
        return item
    return PreparedItem(item)


def prepare_all(items: Iterable[ItemLike]) -> List[PreparedItem]:
    """Prepare a batch, reusing any already-prepared members."""
    return [prepare(item) for item in items]
