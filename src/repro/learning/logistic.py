"""Softmax (multinomial logistic) regression trained by gradient descent."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.learning.base import TextClassifier
from repro.learning.features import TfidfVectorizer


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegressionClassifier(TextClassifier):
    """Full-batch softmax regression with L2 regularization.

    Scores are log-probabilities, which makes this the best-calibrated
    member of the ensemble (useful for the Voting Master's confidence
    threshold).
    """

    name = "logistic"

    def __init__(
        self,
        epochs: int = 150,
        learning_rate: float = 50.0,
        regularization: float = 1e-4,
        top_k: int = 3,
    ):
        super().__init__(top_k=top_k)
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.vectorizer = TfidfVectorizer()
        self._weights: np.ndarray = np.zeros((0, 0))
        self._bias: np.ndarray = np.zeros(0)

    def _fit(self, titles: Sequence[str], y: np.ndarray) -> None:
        features = self.vectorizer.fit_transform(titles)
        n_samples, n_features = features.shape
        n_classes = len(self.encoder)
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        weights = np.zeros((n_classes, n_features))
        bias = np.zeros(n_classes)
        for epoch in range(self.epochs):
            step = self.learning_rate / np.sqrt(1.0 + epoch)
            logits = features.dot(weights.T) + bias
            probabilities = _softmax(logits)
            error = probabilities - one_hot  # (n_samples, n_classes)
            gradient = features.tdot(error) / n_samples  # (classes, features)
            weights -= step * (gradient + self.regularization * weights)
            bias -= step * error.mean(axis=0)
        self._weights = weights
        self._bias = bias

    def _scores(self, titles: Sequence[str]) -> np.ndarray:
        features = self.vectorizer.transform(titles)
        logits = features.dot(self._weights.T) + self._bias
        return np.log(_softmax(logits) + 1e-12)
