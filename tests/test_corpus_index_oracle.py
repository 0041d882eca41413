"""The corpus index built from token codes equals the one built from
token tuples, column by column.

:class:`~repro.rulegen.corpus.CorpusIndex` tokenizes each distinct title
once straight into codes, dedupes rows into reps with numpy and remaps
codes to sorted-vocabulary ranks; ``tests/corpus_reference.py`` keeps the
construction it replaced (a tuple per row, a ``Counter`` of
``(tuple, label)`` keys). Both constructors — ``from_labeled`` and
``CorpusIndex(token_lists, labels)`` — must give the reference's columns,
dtypes included, on corpora drawn to hit the corners: duplicate titles,
distinct titles that tokenize alike, titles that tokenize to nothing, a
single label, labels first seen out of sorted order, and no labels.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.generator import LabeledTitle
from repro.rulegen.corpus import CorpusIndex
from repro.utils.text import tokenize_uncached
from tests.corpus_reference import ReferenceCorpusIndex

COLUMNS = ("tok", "pos_rep", "pos_end", "rep_label", "rep_weight", "label_rows")
LISTS = ("id_tokens", "label_names")

# Case and punctuation variants of one word tokenize alike; stop words
# and bare punctuation tokenize to nothing.
WORDS = st.sampled_from(["denim", "jeans", "slim", "oak", "desk", "lamp", "2"])
DECORATED = st.tuples(
    WORDS,
    st.sampled_from([str.lower, str.upper, str.title]),
    st.sampled_from(["{}", "{},", "({})", "{}!", "'{}'"]),
).map(lambda parts: parts[2].format(parts[1](parts[0])))
NOTHING = st.sampled_from(["the", "of", "!!", "-", ","])
TITLES = st.lists(st.one_of(DECORATED, NOTHING), max_size=5).map(" ".join)
# Out of sorted order on purpose: the first label seen is rarely the least.
LABELS = st.sampled_from(["pants", "lighting", "furniture", "books"])
ROWS = st.lists(st.tuples(TITLES, LABELS), max_size=24)


def assert_same_columns(index, reference):
    for name in COLUMNS:
        got, want = getattr(index, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    for name in LISTS:
        assert getattr(index, name) == getattr(reference, name), name
    assert index.n_rows == reference.n_rows
    assert index.labeled == reference.labeled


def labeled(rows, single_label):
    return [
        LabeledTitle(title=title, label="pants" if single_label else label)
        for title, label in rows
    ]


@given(rows=ROWS, single_label=st.booleans())
@example(rows=[("Slim Jeans", "pants"), ("slim jeans!", "pants")], single_label=False)
@example(rows=[("oak desk", "lighting"), ("oak", "furniture"), ("the", "books")],
         single_label=False)
@example(rows=[], single_label=False)
@settings(max_examples=150, deadline=None)
def test_from_labeled_equals_reference(rows, single_label):
    training = labeled(rows, single_label)
    assert_same_columns(
        CorpusIndex.from_labeled(training),
        ReferenceCorpusIndex.from_labeled(training),
    )


@given(rows=ROWS, single_label=st.booleans(), with_labels=st.booleans(),
       as_lists=st.booleans())
@example(rows=[("", "pants"), ("the of", "lighting")], single_label=False,
         with_labels=False, as_lists=False)
@settings(max_examples=150, deadline=None)
def test_token_lists_equal_reference(rows, single_label, with_labels, as_lists):
    training = labeled(rows, single_label)
    token_lists = [tokenize_uncached(example.title) for example in training]
    if as_lists:
        token_lists = [list(tokens) for tokens in token_lists]
    labels = [example.label for example in training] if with_labels else None
    assert_same_columns(
        CorpusIndex(token_lists, labels),
        ReferenceCorpusIndex(token_lists, labels),
    )

