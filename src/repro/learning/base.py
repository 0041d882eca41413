"""Shared classifier interfaces.

Every classifier consumes raw title strings and produces ranked
:class:`~repro.core.rule.Prediction` lists ("each prediction is a list of
product types together with weights", section 3.3), so rule-based and
learning-based classifiers are interchangeable inside Chimera's voting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

import numpy as np

from repro.core.rule import Prediction


class LabelEncoder:
    """Bidirectional label <-> integer index mapping."""

    def __init__(self):
        self._label_to_index: Dict[str, int] = {}
        self._labels: List[str] = []

    def fit(self, labels: Sequence[str]) -> "LabelEncoder":
        for label in labels:
            if label not in self._label_to_index:
                self._label_to_index[label] = len(self._labels)
                self._labels.append(label)
        return self

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        try:
            return np.array([self._label_to_index[label] for label in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unseen label {exc.args[0]!r}") from None

    def decode(self, index: int) -> str:
        return self._labels[index]

    @property
    def classes(self) -> List[str]:
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


class TextClassifier(ABC):
    """Base class: fit on (titles, labels), predict ranked types per title."""

    name: str = "classifier"

    def __init__(self, top_k: int = 3):
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.encoder = LabelEncoder()
        self._fitted = False

    @abstractmethod
    def _fit(self, titles: Sequence[str], y: np.ndarray) -> None:
        """Train on encoded labels."""

    @abstractmethod
    def _scores(self, titles: Sequence[str]) -> np.ndarray:
        """(n_titles, n_classes) score matrix; larger is more likely."""

    def fit(self, titles: Sequence[str], labels: Sequence[str]) -> "TextClassifier":
        if len(titles) != len(labels):
            raise ValueError(
                f"titles ({len(titles)}) and labels ({len(labels)}) must align"
            )
        if not titles:
            raise ValueError(f"{self.name}: cannot fit on an empty training set")
        self.encoder = LabelEncoder().fit(labels)
        self._fit(titles, self.encoder.encode(labels))
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{self.name} is not fitted; call fit() first")

    def predict_batch(self, titles: Sequence[str]) -> List[List[Prediction]]:
        """Top-k predictions per title, weights normalized into [0, 1]."""
        self._require_fitted()
        if not titles:
            return []
        scores = self._scores(titles)
        return [self._rank(row) for row in scores]

    def predict(self, title: str) -> List[Prediction]:
        return self.predict_batch([title])[0]

    def _rank(self, row: np.ndarray) -> List[Prediction]:
        """Top-k of one score row — a pure function of that row, which is
        what lets a batch be scored in one call.

        The order is exactly ``np.argsort(row)[::-1]``: score descending,
        and among equal scores the reverse of whatever order numpy's
        default sort leaves them in (for short rows, higher class index
        first). Ties are common — about half of kNN rows on the served
        catalogs tie inside the top k+1 — so any other rule, ``kind=
        "stable"`` included, moves labels, provenance and every digest.
        """
        k = min(self.top_k, len(row))
        top = np.argsort(row)[::-1][:k]
        weights = _normalize_scores(row[top])
        return [
            Prediction(self.encoder.decode(int(index)), weight=float(weight), source=self.name)
            for index, weight in zip(top, weights)
        ]


def _normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Softmax-style normalization so ensemble votes are comparable."""
    if scores.size == 0:
        return scores
    shifted = scores - scores.max()
    exp = np.exp(np.clip(shifted, -30, 0))
    total = exp.sum()
    if total <= 0:
        return np.full_like(scores, 1.0 / scores.size)
    return exp / total
