"""Linear SVM (one-vs-rest, SGD on the hinge loss)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.learning.base import TextClassifier
from repro.learning.features import TfidfVectorizer


class LinearSvmClassifier(TextClassifier):
    """One-vs-rest linear SVM trained with mini-batch subgradient descent.

    The weight matrix is dense (n_classes x n_features); updates are
    vectorized over the mini-batch and over classes, which keeps training
    fast at catalog scale without any ML library.
    """

    name = "svm"

    def __init__(
        self,
        epochs: int = 8,
        batch_size: int = 64,
        learning_rate: float = 0.5,
        regularization: float = 1e-4,
        top_k: int = 3,
        seed: int = 0,
    ):
        super().__init__(top_k=top_k)
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.seed = seed
        self.vectorizer = TfidfVectorizer()
        self._weights: np.ndarray = np.zeros((0, 0))
        self._bias: np.ndarray = np.zeros(0)

    def _fit(self, titles: Sequence[str], y: np.ndarray) -> None:
        features = self.vectorizer.fit_transform(titles)
        n_samples, n_features = features.shape
        n_classes = len(self.encoder)
        rng = np.random.default_rng(self.seed)
        weights = np.zeros((n_classes, n_features))
        bias = np.zeros(n_classes)

        # One-vs-rest targets in {-1, +1}: targets[i, c] = +1 iff y[i] == c.
        for epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            step = self.learning_rate / (1.0 + epoch)
            for start in range(0, n_samples, self.batch_size):
                batch_rows = order[start : start + self.batch_size]
                x_batch = features.take(batch_rows)
                y_batch = y[batch_rows]
                targets = -np.ones((len(batch_rows), n_classes))
                targets[np.arange(len(batch_rows)), y_batch] = 1.0

                margins = targets * (x_batch.dot(weights.T) + bias)
                violating = (margins < 1.0).astype(float) * targets  # (batch, classes)

                gradient = -x_batch.tdot(violating) / len(batch_rows)
                weights *= 1.0 - step * self.regularization
                weights -= step * gradient
                bias += step * violating.mean(axis=0)
        self._weights = weights
        self._bias = bias

    def _scores(self, titles: Sequence[str]) -> np.ndarray:
        features = self.vectorizer.transform(titles)
        return features.dot(self._weights.T) + self._bias
