"""k-nearest-neighbours text classifier (cosine similarity on TF-IDF)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.learning.base import TextClassifier
from repro.learning.features import TfidfVectorizer
from repro.learning.sparse import CsrMatrix

# Queries scored per dense similarity block (bounds its memory).
BLOCK_SIZE = 512


class KNearestNeighbors(TextClassifier):
    """kNN with cosine similarity and similarity-weighted voting.

    Rows are L2-normalized by the vectorizer, so the dense dot product of
    the query block with the training matrix *is* the cosine similarity.
    Queries are processed in blocks of :data:`BLOCK_SIZE` to bound memory.
    """

    name = "knn"

    def __init__(self, k: int = 7, top_k: int = 3):
        super().__init__(top_k=top_k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.vectorizer = TfidfVectorizer()
        self._columns: Optional[CsrMatrix] = None  # the training matrix, by column
        self._y: np.ndarray = np.zeros(0, dtype=np.int64)

    def _fit(self, titles: Sequence[str], y: np.ndarray) -> None:
        self._columns = self.vectorizer.fit_transform(titles).by_column()
        self._y = y

    def _scores(self, titles: Sequence[str]) -> np.ndarray:
        queries = self.vectorizer.transform(titles)
        n_queries = queries.shape[0]
        k = min(self.k, self._columns.shape[1])
        scores = np.zeros((n_queries, len(self.encoder)))
        for start in range(0, n_queries, BLOCK_SIZE):
            block = queries.take(np.arange(start, min(start + BLOCK_SIZE, n_queries)))
            similarity = block.similarity(self._columns)
            # Indices of the k most similar training rows per query.
            neighbours = np.argpartition(-similarity, k - 1, axis=1)[:, :k]
            weights = np.take_along_axis(similarity, neighbours, axis=1)
            voting = weights > 0
            # Row-major, as a loop over rows and then neighbours would add.
            np.add.at(
                scores,
                (np.nonzero(voting)[0] + start, self._y[neighbours[voting]]),
                weights[voting],
            )
        return scores
