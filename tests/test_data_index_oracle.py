"""The columnar corpus index answers exactly as the plain one does.

:class:`~repro.execution.DataIndex` holds titles as one UTF-8 buffer and
tokens as vocabulary codes; ``tests/data_index_reference.py`` holds the
same corpus as a list per column. A hypothesis state machine runs both
through adds, re-listings of a held id and removals (which compact), and
after every step compares each live row's title and tokens, the live
rows, every probe rule's candidate rows, ``row_of`` for every id, the
length and the dead posting count. The titles include non-ASCII text,
lone surrogates, NUL, titles with no token and titles that repeat.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.catalog.types import ProductItem
from repro.core import AttributeRule, SequenceRule, WhitelistRule
from repro.execution import DataIndex
from tests.data_index_reference import ListDataIndex

IDS = [f"oracle-{n}" for n in range(6)]

WORDS = ["gold", "rings", "ring", "area", "rug", "o-ring", "13.5in", "café", "x/y"]

TITLES = [
    "gold rings",
    "Gold Ring",
    "area rug",
    "",
    "!!! ??? ***",
    "\x00gold\x00rings",
    "café rings",
    "\ud800 ring \udfff",
    "o-ring 13.5in",
    "gold rings",
]

titles = st.one_of(
    st.sampled_from(TITLES),
    st.lists(
        st.one_of(
            st.sampled_from(WORDS),
            st.sampled_from([" ", "\x00", "\ud800", "\udc00", "é", "-", ".", "!"]),
            st.characters(exclude_categories=()),
        ),
        max_size=8,
    ).map("".join),
)

PROBES = [
    SequenceRule(("gold", "rings"), "rings", rule_id="oracle-seq"),
    SequenceRule(("ring",), "rings", rule_id="oracle-plural"),
    WhitelistRule("rings?", "rings", rule_id="oracle-regex"),
    WhitelistRule("area rugs?|café", "rugs", rule_id="oracle-union"),
    AttributeRule("isbn", "books", rule_id="oracle-unanchored"),
]


class DataIndexAgainstLists(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = DataIndex()
        self.reference = ListDataIndex()

    @rule(key=st.sampled_from(IDS), title=titles)
    def add(self, key, title):
        """A new id or a re-listing of a held one."""
        item = ProductItem(key, title)
        assert self.index.add(item) == self.reference.add(item)
        # The view admission reads right after the add.
        view = self.index.view(self.index.row_of(key), item)
        assert view.tokens_with_stopwords == self.reference.tokens[self.reference.row_of(key)]

    @precondition(lambda self: len(self.reference))
    @rule(pick=st.integers(min_value=0))
    def remove_held(self, pick):
        held = sorted(self.reference.row_by_id)
        key = held[pick % len(held)]
        assert self.index.remove(key) == self.reference.remove(key)

    @rule(key=st.sampled_from(IDS))
    def remove_any(self, key):
        assert self.index.remove(key) == self.reference.remove(key)

    @invariant()
    def answers_equal(self):
        index, reference = self.index, self.reference
        assert index.live_rows() == reference.live_rows()
        for row in reference.live_rows():
            view = index.view(row)
            assert view.item_id == reference.ids[row]
            assert view.title == reference.titles[row]
            assert view.tokens_with_stopwords == reference.tokens[row]
            assert index.tokens_of(row) == reference.tokens[row]
        for probe in PROBES:
            assert index.candidate_rows(probe) == reference.candidate_rows(probe)
        for key in IDS:
            assert index.row_of(key) == reference.row_of(key)
        assert len(index) == len(reference)
        assert index.dead_postings == reference.dead_postings


DataIndexAgainstLists.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDataIndexAgainstLists = DataIndexAgainstLists.TestCase


def test_every_str_round_trips_through_the_titles_buffer():
    titles = ["", "\x00", "\ud800", "a\udfffb", "\U0010ffff", "café", "😀"]
    index = DataIndex(ProductItem(f"rt-{n}", title) for n, title in enumerate(titles))
    assert [index.title_of(row) for row in range(len(titles))] == titles


def test_tokens_share_the_vocabulary_strings():
    """A decoded row holds the vocabulary's token objects, not copies."""
    index = DataIndex([ProductItem("a", "gold rings"), ProductItem("b", "rings of gold")])
    first, second = index.tokens_of(0), index.tokens_of(1)
    assert first[0] is second[2] and first[1] is second[0]
