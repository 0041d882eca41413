"""TF-IDF feature extraction on scipy.sparse matrices."""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np
from scipy import sparse

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
            features.extend(f"{a}_{b}" for a, b in zip(tokens, tokens[1:]))
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

    def transform(self, titles: Sequence[str]) -> sparse.csr_matrix:
        """Row-normalized TF-IDF matrix of shape (len(titles), |vocab|)."""
        if not self._fitted:
            raise RuntimeError("vectorizer is not fitted; call fit() first")
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for row_index, title in enumerate(titles):
            counts: Dict[int, int] = {}
            for feature in self._features(title):
                col = self.vocabulary.get(feature)
                if col is not None:
                    counts[col] = counts.get(col, 0) + 1
            for col, count in counts.items():
                tf = 1.0 + np.log(count) if self.sublinear_tf else float(count)
                rows.append(row_index)
                cols.append(col)
                data.append(tf * self._idf[col])
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(titles), len(self.vocabulary))
        )
        return _l2_normalize(matrix)

    def fit_transform(self, titles: Sequence[str]) -> sparse.csr_matrix:
        return self.fit(titles).transform(titles)

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


def _l2_normalize(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Normalize rows to unit L2 norm (zero rows stay zero)."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    norms[norms == 0] = 1.0
    inverse = sparse.diags(1.0 / norms)
    return (inverse @ matrix).tocsr()
