"""The learners as they were on scipy.sparse: the oracle for repro.learning.

Each class is the library's learner with its sparse algebra put back on
``scipy.sparse``, expression for expression as the package computed it
before :mod:`repro.learning.sparse` replaced it (vocabulary and idf are the
library's own; they never touched scipy). ``tests/test_learning_oracle.py``
holds the library to these bit for bit. scipy is a test dependency only.
"""

from typing import List

import numpy as np
from scipy import sparse

from repro.learning import knn
from repro.learning.features import TfidfVectorizer
from repro.learning.knn import KNearestNeighbors
from repro.learning.logistic import LogisticRegressionClassifier, _softmax
from repro.learning.naive_bayes import MultinomialNaiveBayes
from repro.learning.svm import LinearSvmClassifier
from repro.utils.text import tokenize


class ScipyTfidf(TfidfVectorizer):
    def _features(self, title) -> List[str]:
        tokens = tokenize(title) if isinstance(title, str) else title
        features = list(tokens)
        if self.use_bigrams:
            features.extend(f"{a}_{b}" for a, b in zip(tokens, tokens[1:]))
        return features

    def transform(self, titles) -> sparse.csr_matrix:
        rows, cols, data = [], [], []
        for row_index, title in enumerate(titles):
            counts = {}
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
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        norms[norms == 0] = 1.0
        return (sparse.diags(1.0 / norms) @ matrix).tocsr()


class ScipyNaiveBayes(MultinomialNaiveBayes):
    def __init__(self, **options):
        super().__init__(**options)
        self.vectorizer = ScipyTfidf()

    def _fit(self, titles, y):
        features = self.vectorizer.fit_transform(titles)
        n_classes = len(self.encoder)
        class_counts = np.bincount(y, minlength=n_classes).astype(float)
        self._log_prior = np.log(class_counts / class_counts.sum())
        indicator = sparse.csr_matrix(
            (np.ones(len(y)), (y, np.arange(len(y)))), shape=(n_classes, len(y))
        )
        feature_mass = np.asarray((indicator @ features).todense())
        smoothed = feature_mass + self.alpha
        self._log_likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))

    def _scores(self, titles):
        features = self.vectorizer.transform(titles)
        return np.asarray(features @ self._log_likelihood.T) + self._log_prior


class ScipyKnn(KNearestNeighbors):
    def __init__(self, **options):
        super().__init__(**options)
        self.vectorizer = ScipyTfidf()

    def _fit(self, titles, y):
        self._train = self.vectorizer.fit_transform(titles)
        self._y = y

    def _scores(self, titles):
        queries = self.vectorizer.transform(titles)
        k = min(self.k, self._train.shape[0])
        scores = np.zeros((queries.shape[0], len(self.encoder)))
        for start in range(0, queries.shape[0], knn.BLOCK_SIZE):
            block = queries[start : start + knn.BLOCK_SIZE]
            similarity = np.asarray((block @ self._train.T).todense())
            neighbour_index = np.argpartition(-similarity, k - 1, axis=1)[:, :k]
            for row in range(similarity.shape[0]):
                for col in neighbour_index[row]:
                    weight = similarity[row, col]
                    if weight > 0:
                        scores[start + row, self._y[col]] += weight
        return scores


class ScipySvm(LinearSvmClassifier):
    def __init__(self, **options):
        super().__init__(**options)
        self.vectorizer = ScipyTfidf()

    def _fit(self, titles, y):
        features = self.vectorizer.fit_transform(titles)
        n_samples, n_features = features.shape
        n_classes = len(self.encoder)
        rng = np.random.default_rng(self.seed)
        weights = np.zeros((n_classes, n_features))
        bias = np.zeros(n_classes)
        for epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            step = self.learning_rate / (1.0 + epoch)
            for start in range(0, n_samples, self.batch_size):
                batch_rows = order[start : start + self.batch_size]
                x_batch = features[batch_rows]
                y_batch = y[batch_rows]
                targets = -np.ones((len(batch_rows), n_classes))
                targets[np.arange(len(batch_rows)), y_batch] = 1.0
                margins = targets * (np.asarray(x_batch @ weights.T) + bias)
                violating = (margins < 1.0).astype(float) * targets
                gradient = -np.asarray(violating.T @ x_batch) / len(batch_rows)
                weights *= 1.0 - step * self.regularization
                weights -= step * gradient
                bias += step * violating.mean(axis=0)
        self._weights = weights
        self._bias = bias

    def _scores(self, titles):
        features = self.vectorizer.transform(titles)
        return np.asarray(features @ self._weights.T) + self._bias


class ScipyLogistic(LogisticRegressionClassifier):
    def __init__(self, **options):
        super().__init__(**options)
        self.vectorizer = ScipyTfidf()

    def _fit(self, titles, y):
        features = self.vectorizer.fit_transform(titles)
        n_samples, n_features = features.shape
        n_classes = len(self.encoder)
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        weights = np.zeros((n_classes, n_features))
        bias = np.zeros(n_classes)
        for epoch in range(self.epochs):
            step = self.learning_rate / np.sqrt(1.0 + epoch)
            logits = np.asarray(features @ weights.T) + bias
            error = _softmax(logits) - one_hot
            gradient = np.asarray((features.T @ error)).T / n_samples
            weights -= step * (gradient + self.regularization * weights)
            bias -= step * error.mean(axis=0)
        self._weights = weights
        self._bias = bias

    def _scores(self, titles):
        features = self.vectorizer.transform(titles)
        logits = np.asarray(features @ self._weights.T) + self._bias
        return np.log(_softmax(logits) + 1e-12)


#: Each library learner with its oracle, and the fitted arrays to compare.
PAIRS = [
    (MultinomialNaiveBayes, ScipyNaiveBayes, ("_log_prior", "_log_likelihood")),
    (KNearestNeighbors, ScipyKnn, ("_y",)),
    (LinearSvmClassifier, ScipySvm, ("_weights", "_bias")),
    (LogisticRegressionClassifier, ScipyLogistic, ("_weights", "_bias")),
]
