"""Tests for the learning substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning import (
    KNearestNeighbors,
    LabelEncoder,
    LinearSvmClassifier,
    LogisticRegressionClassifier,
    MultinomialNaiveBayes,
    TfidfVectorizer,
    VotingEnsemble,
)

CLASSIFIERS = [
    MultinomialNaiveBayes,
    KNearestNeighbors,
    LinearSvmClassifier,
    LogisticRegressionClassifier,
]


@pytest.fixture(scope="module")
def small_training():
    titles = [
        "diamond accent ring white gold", "eternity ring sterling silver",
        "wedding band ring rose gold", "promise ring titanium",
        "denim carpenter jeans relaxed", "skinny stretch denim jeans",
        "bootcut indigo jeans men", "straight leg jeans women",
        "shaw area rug 5x7", "braided area rug ivory",
        "oriental rug contemporary", "tufted floral area rug",
    ]
    labels = ["rings"] * 4 + ["jeans"] * 4 + ["area rugs"] * 4
    return titles, labels


class TestLabelEncoder:
    def test_round_trip(self):
        enc = LabelEncoder().fit(["a", "b", "a"])
        assert enc.classes == ["a", "b"]
        assert enc.decode(int(enc.encode(["b"])[0])) == "b"

    def test_unseen_label(self):
        enc = LabelEncoder().fit(["a"])
        with pytest.raises(ValueError):
            enc.encode(["zzz"])


class TestTfidfVectorizer:
    def test_shapes(self, small_training):
        titles, _ = small_training
        matrix = TfidfVectorizer().fit_transform(titles)
        assert matrix.shape[0] == len(titles)
        assert matrix.shape[1] == TfidfVectorizer().fit(titles).n_features

    def test_rows_unit_norm(self, small_training):
        titles, _ = small_training
        matrix = TfidfVectorizer().fit_transform(titles)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.allclose(norms[norms > 0], 1.0)

    def test_unseen_tokens_ignored(self, small_training):
        titles, _ = small_training
        vec = TfidfVectorizer().fit(titles)
        row = vec.transform(["completely unknown words here"])
        assert row.nnz == 0

    def test_min_df_filters(self, small_training):
        titles, _ = small_training
        full = TfidfVectorizer(min_df=1).fit(titles).n_features
        filtered = TfidfVectorizer(min_df=2).fit(titles).n_features
        assert filtered < full

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfVectorizer().fit([])

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(["x"])


@pytest.mark.parametrize("classifier_cls", CLASSIFIERS, ids=lambda c: c.__name__)
class TestClassifiers:
    def test_learns_separable_data(self, classifier_cls, small_training):
        titles, labels = small_training
        clf = classifier_cls().fit(titles, labels)
        predictions = clf.predict_batch(titles)
        accuracy = sum(
            1 for pred, label in zip(predictions, labels) if pred[0].label == label
        ) / len(labels)
        assert accuracy >= 0.9

    def test_generalizes(self, classifier_cls, small_training):
        titles, labels = small_training
        clf = classifier_cls().fit(titles, labels)
        assert clf.predict("sapphire ring gold")[0].label == "rings"
        assert clf.predict("blue denim jeans")[0].label == "jeans"

    def test_weights_normalized(self, classifier_cls, small_training):
        titles, labels = small_training
        clf = classifier_cls().fit(titles, labels)
        predictions = clf.predict("ring")
        assert all(0.0 <= p.weight <= 1.0 for p in predictions)
        assert abs(sum(p.weight for p in predictions) - 1.0) < 1e-6

    def test_predict_before_fit_rejected(self, classifier_cls):
        with pytest.raises(RuntimeError):
            classifier_cls().predict("x")

    def test_misaligned_input_rejected(self, classifier_cls):
        with pytest.raises(ValueError):
            classifier_cls().fit(["a"], ["x", "y"])

    def test_empty_training_rejected(self, classifier_cls):
        with pytest.raises(ValueError):
            classifier_cls().fit([], [])


class TestVotingEnsemble:
    def test_combines_members(self, small_training):
        titles, labels = small_training
        ensemble = VotingEnsemble(
            [MultinomialNaiveBayes(), KNearestNeighbors(k=3)]
        ).fit(titles, labels)
        assert ensemble.predict("wedding band ring")[0].label == "rings"

    def test_member_weights_bias_vote(self, small_training):
        titles, labels = small_training
        heavy_nb = VotingEnsemble(
            [MultinomialNaiveBayes(), KNearestNeighbors(k=3)], weights=[10.0, 0.1]
        ).fit(titles, labels)
        nb_alone = MultinomialNaiveBayes().fit(titles, labels)
        for title in titles:
            assert heavy_nb.predict(title)[0].label == nb_alone.predict(title)[0].label

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            VotingEnsemble([])

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            VotingEnsemble([MultinomialNaiveBayes()], weights=[1.0, 2.0])

    def test_batch_empty(self, small_training):
        titles, labels = small_training
        ensemble = VotingEnsemble([MultinomialNaiveBayes()]).fit(titles, labels)
        assert ensemble.predict_batch([]) == []

    def test_known_labels(self, small_training):
        titles, labels = small_training
        ensemble = VotingEnsemble([MultinomialNaiveBayes()]).fit(titles, labels)
        assert ensemble.known_labels() == sorted(set(labels))


# -- batching is safe: a title's ranking is a function of that title alone -----------

_WORDS = ["ring", "gold", "jeans", "denim", "rug", "area", "band", "silver", "zzz"]
_titles = st.lists(
    st.one_of(
        st.just(""),
        st.lists(st.sampled_from(_WORDS + ["unseen", "oov"]), min_size=1, max_size=5).map(
            " ".join
        ),
    ),
    min_size=1,
    max_size=12,
)
_corpus = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join),
        st.sampled_from(["rings", "jeans", "area rugs", "bands"]),
    ),
    min_size=2,
    max_size=14,
)


def _bits(predictions):
    """Label, source and the weight's exact bit pattern, per prediction."""
    return [(p.label, p.source, float(p.weight).hex()) for p in predictions]


@settings(max_examples=40, deadline=None)
@given(corpus=_corpus, titles=_titles, repeat=st.integers(min_value=0, max_value=11))
def test_predict_batch_is_predict_bit_for_bit(corpus, titles, repeat):
    """``predict_batch(titles)[i] == predict(titles[i])`` for each member and
    for the ensemble, bit for bit — with duplicate, out-of-vocabulary and
    empty titles in the batch, and a kNN whose block boundary the batch
    crosses. Ties are common (small corpora score many classes equal), so
    this also pins that ``_rank`` orders a row the same whatever its
    neighbours are."""
    titles = titles + [titles[repeat % len(titles)]] * 5  # duplicates; > block_size
    train_titles = [title for title, _ in corpus]
    train_labels = [label for _, label in corpus]
    members = [
        MultinomialNaiveBayes(),
        KNearestNeighbors(k=3, block_size=4),
        LinearSvmClassifier(epochs=2, seed=1),
    ]
    ensemble = VotingEnsemble(members).fit(train_titles, train_labels)
    for model in members + [ensemble]:
        batched = model.predict_batch(titles)
        assert len(batched) == len(titles)
        for title, row in zip(titles, batched):
            assert _bits(row) == _bits(model.predict(title)), (model.name, title)
