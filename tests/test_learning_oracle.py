"""The numpy-only learners against their scipy.sparse oracle, bit for bit.

:mod:`repro.learning.sparse` promises the same float64 bits as the
scipy.sparse expressions the learners used to evaluate, so "equal" here
means equal as int64 bit patterns (``.view(np.int64)``), never
``allclose``. Every learner's fitted arrays and ``_scores`` are compared
with the copy in ``tests/scipy_oracle.py``, on drawn corpora that include
empty rows (titles with no known feature), repeated tokens (sublinear tf
over counts above 1), one-document corpora, a ``k`` larger than the
training set, and more queries than one kNN block.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import CatalogGenerator, build_seed_taxonomy
from repro.learning import TfidfVectorizer, knn

from tests.scipy_oracle import PAIRS, ScipyTfidf


def same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (
        ours.shape == theirs.shape
        and ours.dtype == theirs.dtype
        and np.array_equal(ours.view(np.int64), theirs.view(np.int64))
    )


def same_csr(ours, theirs):
    """A CsrMatrix equal to a scipy CSR entry for entry, in stored order."""
    return (
        ours.shape == theirs.shape
        and same_bits(ours.data, theirs.data)
        and np.array_equal(ours.indices, theirs.indices)
        and np.array_equal(ours.indptr, theirs.indptr)
    )


def assert_matches_oracle(train, labels, queries, k=7, svm=None, logistic=None):
    options = {
        "KNearestNeighbors": {"k": k},
        "LinearSvmClassifier": svm or {},
        "LogisticRegressionClassifier": logistic or {"epochs": 5},
    }
    for library_cls, oracle_cls, fitted in PAIRS:
        kwargs = options.get(library_cls.__name__, {})
        ours = library_cls(**kwargs).fit(train, labels)
        theirs = oracle_cls(**kwargs).fit(train, labels)
        name = library_cls.__name__
        for attribute in fitted:
            assert same_bits(getattr(ours, attribute), getattr(theirs, attribute)), (
                name, attribute)
        if name == "KNearestNeighbors":
            assert same_csr(ours._columns, theirs._train.T.tocsr()), name
        assert same_bits(ours._scores(queries), theirs._scores(queries)), name


_WORDS = ["ring", "gold", "jeans", "denim", "rug", "area", "band", "silver"]
# Drawn with replacement, so a title often repeats a token.
_title = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=8).map(" ".join)
_query = st.lists(
    st.sampled_from(_WORDS + ["unseen", "oov"]), min_size=0, max_size=8
).map(" ".join)
_corpus = st.lists(
    st.tuples(_title, st.sampled_from(["rings", "jeans", "area rugs", "bands"])),
    min_size=1,
    max_size=14,
)


@settings(max_examples=60, deadline=None)
@given(corpus=_corpus, queries=st.lists(_query, min_size=1, max_size=12))
def test_vectorizer_matches_oracle(corpus, queries):
    train = [title for title, _ in corpus]
    ours, theirs = TfidfVectorizer().fit(train), ScipyTfidf().fit(train)
    assert ours.vocabulary == theirs.vocabulary
    assert same_csr(ours.transform(train), theirs.transform(train))
    assert same_csr(ours.transform(queries), theirs.transform(queries))


@settings(max_examples=60, deadline=None)
@given(
    corpus=_corpus,
    queries=st.lists(_query, min_size=1, max_size=12),
    k=st.integers(min_value=1, max_value=20),
    block=st.integers(min_value=1, max_value=4),
    epochs=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
)
def test_learners_match_oracle(corpus, queries, k, block, epochs, batch_size, seed):
    train = [title for title, _ in corpus]
    labels = [label for _, label in corpus]
    with mock.patch.object(knn, "BLOCK_SIZE", block):
        assert_matches_oracle(
            train, labels, queries, k=k,
            svm={"epochs": epochs, "batch_size": batch_size, "seed": seed},
            logistic={"epochs": epochs},
        )


@pytest.mark.parametrize("seed, n_train", [(7, 120), (11, 600)])
def test_catalog_learners_match_oracle(seed, n_train):
    """Catalog titles at the served scale, and more queries than one kNN
    block at the module's own block size."""
    generator = CatalogGenerator(build_seed_taxonomy(), seed=seed)
    train = generator.generate_labeled(n_train)
    queries = [item.title for item in generator.generate_labeled(knn.BLOCK_SIZE + 90)]
    assert_matches_oracle(
        [item.title for item in train], [item.label for item in train], queries
    )
