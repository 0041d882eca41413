"""TF-IDF feature extraction into :class:`~repro.learning.sparse.CsrMatrix` rows."""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.learning.sparse import CsrMatrix
from repro.utils.text import tokenize


class TfidfVectorizer:
    """Bag-of-words TF-IDF with an optional bigram channel.

    Product titles are short, so token unigrams (and optionally bigrams,
    which capture phrases like "wedding band") are the feature space the
    paper's learning ensemble effectively works in.
    """

    def __init__(self, use_bigrams: bool = True, min_df: int = 1, sublinear_tf: bool = True):
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.use_bigrams = use_bigrams
        self.min_df = min_df
        self.sublinear_tf = sublinear_tf
        self.vocabulary: Dict[str, int] = {}
        self._idf: np.ndarray = np.zeros(0)
        self._fitted = False

    def _features(self, title: Union[str, Sequence[str]]) -> List[str]:
        """A title's features; a title may come already tokenized (as
        :func:`tokenize` does it), as a served item's prepared view holds it."""
        tokens = tokenize(title) if isinstance(title, str) else title
        features = list(tokens)
        if self.use_bigrams:
            features.extend(map("_".join, zip(tokens, tokens[1:])))
        return features

    def fit(self, titles: Sequence[str]) -> "TfidfVectorizer":
        if not titles:
            raise ValueError("cannot fit vectorizer on an empty corpus")
        document_frequency: Dict[str, int] = {}
        for title in titles:
            for feature in set(self._features(title)):
                document_frequency[feature] = document_frequency.get(feature, 0) + 1
        self.vocabulary = {}
        for feature in sorted(document_frequency):
            if document_frequency[feature] >= self.min_df:
                self.vocabulary[feature] = len(self.vocabulary)
        n_docs = len(titles)
        idf = np.zeros(len(self.vocabulary))
        for feature, index in self.vocabulary.items():
            idf[index] = np.log((1 + n_docs) / (1 + document_frequency[feature])) + 1.0
        self._idf = idf
        self._fitted = True
        return self

    def transform(self, titles: Sequence[str]) -> CsrMatrix:
        """Row-normalized TF-IDF matrix of shape (len(titles), |vocab|)."""
        if not self._fitted:
            raise RuntimeError("vectorizer is not fitted; call fit() first")
        vocabulary = self.vocabulary
        counts = CsrMatrix.from_rows(
            [list(map(vocabulary.get, self._features(title), repeat(-1))) for title in titles],
            len(vocabulary),
        )
        tf = 1.0 + np.log(counts.data) if self.sublinear_tf else counts.data
        tfidf = CsrMatrix(tf * self._idf[counts.indices], counts.indices, counts.indptr, counts.shape)
        return tfidf.normalized()

    def fit_transform(self, titles: Sequence[str]) -> CsrMatrix:
        return self.fit(titles).transform(titles)

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)

