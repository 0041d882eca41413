"""The Voting Master: combines stage predictions into a final vote.

"Given an item, all classifiers make predictions ... The Voting Master and
the Filter combine these predictions into a final prediction" (section 3.3).
"If the Voting Master refuses to make a prediction (due to low confidence),
the incoming item remains unclassified."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chimera.classifiers import StageAnswer
from repro.core.rule import Prediction


class VotingMaster:
    """Weighted combination of stage votes with a confidence threshold.

    ``stage_weights`` maps stage name → multiplier; rule stages default to a
    higher weight than learning, reflecting that a firing whitelist rule is
    a strong, analyst-authored signal. Analysts can also tune combination
    behaviour here (the paper: "to the Combiner to control the combination
    of predictions").
    """

    def __init__(
        self,
        stage_weights: Optional[Dict[str, float]] = None,
        confidence_threshold: float = 0.5,
    ):
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError(
                f"confidence_threshold must be in [0, 1], got {confidence_threshold}"
            )
        self.stage_weights = dict(stage_weights or {})
        self.default_weights = {"rule-based": 2.0, "attr-value": 2.0, "learning": 1.0}
        self.confidence_threshold = confidence_threshold
        # Types the operator has suppressed pipeline-wide (scale-down).
        self.suppressed_types: Set[str] = set()

    def weight_for(self, stage_name: str) -> float:
        if stage_name in self.stage_weights:
            return self.stage_weights[stage_name]
        return self.default_weights.get(stage_name, 1.0)

    def combine(
        self, answers: Sequence[StageAnswer]
    ) -> Tuple[Optional[Prediction], List[Prediction]]:
        """Combine one item's answers from the enabled stages: each votes
        its ``votes`` at its stage's weight, and each ``allowed`` restricts
        every stage's candidates.

        Returns ``(final, ranked)`` where ``final`` is None when confidence
        is below threshold (the item stays unclassified) and ``ranked`` is
        the full ranked candidate list (the Filter walks it).
        """
        votes: Dict[str, float] = {}
        allowed: Optional[Set[str]] = None
        for answer in answers:
            if not answer.enabled:
                continue
            for prediction in answer.votes:
                if prediction.label in self.suppressed_types:
                    continue
                votes[prediction.label] = votes.get(prediction.label, 0.0) + (
                    self.weight_for(answer.name) * prediction.weight
                )
            if answer.allowed is not None:
                allowed = answer.allowed if allowed is None else allowed & answer.allowed
        if allowed is not None:
            votes = {label: v for label, v in votes.items() if label in allowed}
        if not votes:
            return None, []
        total = sum(votes.values())
        ranked = [
            Prediction(label, weight=value / total, source="voting-master")
            for label, value in sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        final = ranked[0] if ranked[0].weight >= self.confidence_threshold else None
        return final, ranked
