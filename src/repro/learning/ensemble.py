"""Weighted voting ensemble over heterogeneous classifiers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rule import Prediction
from repro.learning.base import TextClassifier
from repro.learning.knn import KNearestNeighbors
from repro.learning.naive_bayes import MultinomialNaiveBayes
from repro.learning.svm import LinearSvmClassifier


class VotingEnsemble:
    """Combines member classifiers' ranked predictions by weighted vote.

    This is the "learning ensemble" of section 3.1. Each member emits
    normalized top-k predictions; the ensemble sums ``member_weight x
    prediction_weight`` per label, renormalizes, and keeps its own top-k.
    Chimera's Voting Master consumes the result alongside rule votes.
    """

    name = "ensemble"

    def __init__(
        self,
        members: Sequence[TextClassifier],
        weights: Optional[Sequence[float]] = None,
        top_k: int = 3,
    ):
        if not members:
            raise ValueError("ensemble needs at least one member classifier")
        if weights is None:
            weights = [1.0] * len(members)
        if len(weights) != len(members):
            raise ValueError(
                f"got {len(weights)} weights for {len(members)} members"
            )
        if any(w < 0 for w in weights):
            raise ValueError("member weights must be non-negative")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.members: List[TextClassifier] = list(members)
        self.weights: List[float] = list(weights)
        self.top_k = top_k

    def fit(self, titles: Sequence[str], labels: Sequence[str]) -> "VotingEnsemble":
        for member in self.members:
            member.fit(titles, labels)
        return self

    def predict_batch(self, titles: Sequence[str]) -> List[List[Prediction]]:
        if not titles:
            return []
        member_outputs = [member.predict_batch(titles) for member in self.members]
        combined: List[List[Prediction]] = []
        for row_index in range(len(titles)):
            votes: Dict[str, float] = {}
            for member_weight, outputs in zip(self.weights, member_outputs):
                for prediction in outputs[row_index]:
                    votes[prediction.label] = (
                        votes.get(prediction.label, 0.0)
                        + member_weight * prediction.weight
                    )
            combined.append(self._rank(votes))
        return combined

    def predict(self, title: str) -> List[Prediction]:
        return self.predict_batch([title])[0]

    def _rank(self, votes: Dict[str, float]) -> List[Prediction]:
        total = sum(votes.values())
        if total <= 0:
            return []
        ranked = sorted(votes.items(), key=lambda pair: (-pair[1], pair[0]))
        return [
            Prediction(label, weight=weight / total, source=self.name)
            for label, weight in ranked[: self.top_k]
        ]

    def known_labels(self) -> List[str]:
        """Union of labels any member can emit."""
        labels = set()
        for member in self.members:
            labels.update(member.encoder.classes)
        return sorted(labels)


def default_ensemble(seed: int = 0) -> VotingEnsemble:
    """The NB + kNN + SVM ensemble of section 3.1, equally weighted; ``seed``
    drives the SVM's mini-batch order."""
    return VotingEnsemble(
        [
            MultinomialNaiveBayes(),
            KNearestNeighbors(),
            LinearSvmClassifier(seed=seed),
        ]
    )
