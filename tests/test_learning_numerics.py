"""Numeric sanity tests for the learning substrate internals."""

from unittest import mock

import numpy as np
import pytest

from repro.learning import (
    KNearestNeighbors,
    LogisticRegressionClassifier,
    MultinomialNaiveBayes,
    TfidfVectorizer,
)
from repro.learning import knn
from repro.learning.base import _normalize_scores
from repro.learning.logistic import _softmax


class TestScoreNormalization:
    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        probabilities = _softmax(logits)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities > 0).all()

    def test_softmax_stable_for_huge_logits(self):
        logits = np.array([[1e6, 1e6 - 1.0]])
        probabilities = _softmax(logits)
        assert np.isfinite(probabilities).all()
        assert probabilities[0, 0] > probabilities[0, 1]

    def test_normalize_scores_monotone(self):
        scores = np.array([3.0, 1.0, 2.0])
        weights = _normalize_scores(scores)
        assert weights[0] > weights[2] > weights[1]
        assert abs(weights.sum() - 1.0) < 1e-9

    def test_normalize_scores_uniform_on_ties(self):
        weights = _normalize_scores(np.array([4.0, 4.0]))
        assert np.allclose(weights, 0.5)


class TestNaiveBayesInternals:
    def test_priors_follow_class_frequency(self):
        titles = ["gold ring"] * 8 + ["blue jeans"] * 2
        labels = ["rings"] * 8 + ["jeans"] * 2
        clf = MultinomialNaiveBayes().fit(titles, labels)
        priors = np.exp(clf._log_prior)
        by_label = dict(zip(clf.encoder.classes, priors))
        assert by_label["rings"] == pytest.approx(0.8)
        assert by_label["jeans"] == pytest.approx(0.2)

    def test_likelihoods_are_distributions(self):
        titles = ["gold ring", "blue jeans", "area rug"]
        labels = ["rings", "jeans", "area rugs"]
        clf = MultinomialNaiveBayes().fit(titles, labels)
        row_sums = np.exp(clf._log_likelihood).sum(axis=1)
        assert np.allclose(row_sums, 1.0)


class TestKnnInternals:
    def test_k_clipped_to_training_size(self):
        clf = KNearestNeighbors(k=50).fit(["gold ring", "blue jeans"],
                                          ["rings", "jeans"])
        # With only 2 training rows, prediction must still work.
        assert clf.predict("gold ring")[0].label == "rings"

    def test_block_size_does_not_change_results(self):
        titles = [f"item number {i} gold ring" for i in range(30)] + \
                 [f"item number {i} blue jeans" for i in range(30)]
        labels = ["rings"] * 30 + ["jeans"] * 30
        model = KNearestNeighbors().fit(titles, labels)
        queries = ["gold ring sale", "jeans cheap", "item number 5"]
        big = model.predict_batch(queries)
        with mock.patch.object(knn, "BLOCK_SIZE", 2):
            small = model.predict_batch(queries)
        assert big == small


class TestLogisticInternals:
    def test_scores_are_log_probabilities(self):
        clf = LogisticRegressionClassifier(epochs=30).fit(
            ["gold ring", "blue jeans"], ["rings", "jeans"])
        scores = clf._scores(["gold ring"])
        assert (scores <= 0).all()  # log p <= 0
        assert np.allclose(np.exp(scores).sum(axis=1), 1.0, atol=1e-6)


class TestVectorizerDeterminism:
    def test_vocabulary_order_stable(self):
        titles = ["b a c", "c b d"]
        vocab1 = TfidfVectorizer().fit(titles).vocabulary
        vocab2 = TfidfVectorizer().fit(titles).vocabulary
        assert vocab1 == vocab2
        assert list(vocab1) == sorted(vocab1)
