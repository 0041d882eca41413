"""Prepared item views: tokenize once, match many.

Section 4's "Rule Execution and Optimization" challenge is dominated by
per-evaluation redundancy: industrial deployments run thousands of rules
over millions of items, and the naive formulation re-normalizes and
re-tokenizes each title once per *rule* instead of once per *item*. A
:class:`PreparedItem` wraps a :class:`~repro.catalog.types.ProductItem`
with every derived view the execution stack needs. The views rules are
evaluated against — normalized title, token lists with and without stop
words, the token-joined match text, the lowercased attribute map — are
computed lazily exactly once and shared by every rule evaluation. The two
index-probe sets (``token_set``, ``anchor_tokens``) are derived on each
read instead: indexing reads them once per item, and a served item lives
as long as the daemon does.

PreparedItem also duck-types the read surface of ``ProductItem``
(``title``, ``attribute(...)``, ``has_attribute(...)``, ...) so it can be
threaded through code written against raw items (the Chimera stages, rule
clauses, the gate keeper) without those layers caring which they hold.
"""

from __future__ import annotations

import re
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.catalog.types import ProductItem
from repro.utils.text import (
    STOPWORDS,
    expand_plural_singulars,
    normalize_text,
    tokenize_cached,
)

_UNSET = object()
_WORD = re.compile(r"[a-z0-9]+")


class PreparedItem:
    """A product item plus its lazily-memoized derived text views.

    Memoised (rule deltas re-verify stored items against them, many
    times): ``normalized_title``, ``tokens``, ``tokens_with_stopwords``,
    ``match_text`` and the lowered attribute map. Not memoised:
    ``token_set`` and ``anchor_tokens``, one-shot probe sets.
    """

    __slots__ = (
        "item",
        "_normalized_title",
        "_tokens",
        "_tokens_with_stopwords",
        "_match_text",
        "_attributes_lower",
    )

    def __init__(self, item: ProductItem):
        self.item = item
        self._normalized_title: Any = _UNSET
        self._tokens: Any = _UNSET
        self._tokens_with_stopwords: Any = _UNSET
        self._match_text: Any = _UNSET
        self._attributes_lower: Any = _UNSET

    # -- ProductItem read surface (duck-typed passthrough) ----------------------

    @property
    def item_id(self) -> str:
        return self.item.item_id

    @property
    def title(self) -> str:
        return self.item.title

    @property
    def attributes(self) -> Mapping[str, str]:
        return self.item.attributes

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
            for key, value in self.item.attributes.items():
                lowered.setdefault(key.lower(), value)
            self._attributes_lower = lowered
        return self._attributes_lower.get(name.lower(), default)

    def has_attribute(self, name: str) -> bool:
        return self.attribute(name) is not None

    # -- derived text views (each computed at most once) ------------------------

    @property
    def normalized_title(self) -> str:
        if self._normalized_title is _UNSET:
            self._normalized_title = normalize_text(self.item.title)
        return self._normalized_title

    @property
    def tokens(self) -> Tuple[str, ...]:
        """Title tokens with stop words removed (sequence-rule alphabet).

        Derived by filtering :attr:`tokens_with_stopwords` (identical to
        ``tokenize(title)`` since stop-word removal is the tokenizer's last
        step) so each title is regex-tokenized only once.
        """
        if self._tokens is _UNSET:
            self._tokens = tuple(
                t for t in self.tokens_with_stopwords if t not in STOPWORDS
            )
        return self._tokens

    @property
    def tokens_with_stopwords(self) -> Tuple[str, ...]:
        """All title tokens (regex rules match over these)."""
        if self._tokens_with_stopwords is _UNSET:
            self._tokens_with_stopwords = tokenize_cached(self.item.title, False)
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
        per probe on the compat lane), and a memo of it would outlive that
        read by the life of the item at ~0.4 KB a piece.
        """
        tokens = self.tokens_with_stopwords
        words = set(tokens)
        for token in tokens:
            if not token.isalnum():
                words.update(_WORD.findall(token))
        return expand_plural_singulars(words)

    @property
    def match_text(self) -> str:
        """The token-joined title string regex rules search."""
        if self._match_text is _UNSET:
            self._match_text = " ".join(self.tokens_with_stopwords)
        return self._match_text

    def warm(self) -> "PreparedItem":
        """Force the memoised views now (so timing splits attribute the cost)."""
        self.tokens
        self.match_text
        return self

    def __repr__(self) -> str:
        return f"<PreparedItem {self.item.item_id!r}>"


ItemLike = Union[ProductItem, PreparedItem]


def prepare(item: ItemLike) -> PreparedItem:
    """Wrap ``item`` as a PreparedItem (idempotent on prepared input)."""
    if isinstance(item, PreparedItem):
        return item
    return PreparedItem(item)


def prepare_all(items: Iterable[ItemLike]) -> List[PreparedItem]:
    """Prepare a batch, reusing any already-prepared members."""
    return [prepare(item) for item in items]
