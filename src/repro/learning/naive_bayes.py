"""Multinomial Naive Bayes on sparse TF-IDF counts."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.learning.base import TextClassifier
from repro.learning.features import TfidfVectorizer


class MultinomialNaiveBayes(TextClassifier):
    """Classic multinomial NB with Laplace smoothing.

    Works on TF-IDF weights rather than raw counts (a common practical
    variant); scores are joint log-likelihoods.
    """

    name = "naive-bayes"

    def __init__(self, alpha: float = 0.1, top_k: int = 3):
        super().__init__(top_k=top_k)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.vectorizer = TfidfVectorizer()
        self._log_prior: np.ndarray = np.zeros(0)
        self._log_likelihood: np.ndarray = np.zeros((0, 0))

    def _fit(self, titles: Sequence[str], y: np.ndarray) -> None:
        features = self.vectorizer.fit_transform(titles)
        n_classes = len(self.encoder)
        class_counts = np.bincount(y, minlength=n_classes).astype(float)
        self._log_prior = np.log(class_counts / class_counts.sum())

        feature_mass = features.class_mass(y, n_classes)
        smoothed = feature_mass + self.alpha
        self._log_likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))

    def _scores(self, titles: Sequence[str]) -> np.ndarray:
        features = self.vectorizer.transform(titles)
        return features.dot(self._log_likelihood.T) + self._log_prior
