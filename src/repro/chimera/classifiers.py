"""Chimera's three classifier stages (section 3.3).

1. a **rule-based classifier**: analyst whitelist/blacklist regex rules;
2. an **attribute/value-based classifier**: attribute-presence rules
   (``attr(isbn) -> books``) plus value rules that *constrain* candidate
   types (brand "apple" → laptop/phone/...);
3. **learning-based classifiers** behind a voting ensemble.

All stages emit weighted :class:`~repro.core.rule.Prediction` lists so the
Voting Master can combine them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Set

from repro.catalog.types import ProductItem
from repro.chimera.matching import RuleSetMatcher
from repro.core.prepared import ItemLike
from repro.core.rule import Prediction
from repro.core.ruleset import RuleSet, RuleVerdict
from repro.learning.ensemble import VotingEnsemble
from repro.observability.provenance import StageTrace


class StageAnswer:
    """One stage's answer for one item — votes, allowed-type restriction
    and provenance trace — in the shape :meth:`VotingMaster.combine
    <repro.chimera.voting.VotingMaster.combine>` reads a stage, so the
    pipeline votes over answers a batch call computed earlier."""

    __slots__ = ("name", "enabled", "votes", "allowed", "trace")

    def __init__(
        self,
        stage,
        votes: List[Prediction],
        allowed: Optional[Set[str]] = None,
        trace: Optional[StageTrace] = None,
    ):
        self.name = stage.name
        self.enabled = stage.enabled
        self.votes = votes
        self.allowed = allowed
        self.trace = trace

    def predict(self, item: ItemLike) -> List[Prediction]:
        return self.votes

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        return self.allowed


class ClassifierStage(ABC):
    """A named pipeline stage producing per-item answers.

    When ``record_provenance`` is on, each answer carries a
    :class:`~repro.observability.provenance.StageTrace` of what fired and
    what was voted, captured from the values the stage computed anyway —
    recording never re-evaluates a rule, which is what keeps labels
    byte-identical with telemetry on or off. A stage with nothing to
    report — untrained, or simply no rule fired and no vote cast — leaves
    the trace None, so empty traces never hit the recording budget.
    """

    def __init__(self, name: str):
        self.name = name
        self.enabled = True
        self.record_provenance = False

    @abstractmethod
    def answer(self, item: ItemLike) -> StageAnswer:
        """Votes, restriction and trace for one item, evaluated once."""

    def answer_batch(self, items: Sequence[ItemLike]) -> List[StageAnswer]:
        """One answer per item, in order: the call the pipeline guards."""
        return [self.answer(item) for item in items]

    def predict(self, item: ItemLike) -> List[Prediction]:
        """Weighted type votes for one item (empty when nothing fires)."""
        return self.answer(item).votes

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        """Allowed-type restriction for ``item``, or None for unconstrained."""
        return None


class RuleSetStage(ClassifierStage):
    """A stage whose votes are one rule set's verdict.

    The verdict comes from :attr:`matcher` — the row the fired-map tracker
    wrote when the batch arrived, else one engine evaluation — folded by
    the rule set; never from ``rules.apply``.
    """

    def __init__(self, rules: Optional[RuleSet], name: str):
        super().__init__(name)
        self.rules = rules if rules is not None else RuleSet(name=name)
        self.matcher = RuleSetMatcher(self.rules)

    def allowed(self, verdict: RuleVerdict) -> Optional[Set[str]]:
        """The restriction ``verdict`` puts on *other* stages' votes: none —
        a rule set's constraints already shaped its own predictions."""
        return None

    def answer(self, item: ItemLike) -> StageAnswer:
        verdict = self.matcher.verdict(item)
        votes = [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in verdict.predictions
        ]
        trace = None
        if self.record_provenance and (
            verdict.fired or verdict.vetoed or verdict.constrained_to is not None
        ):
            trace = StageTrace(
                self.name,
                verdict.fired,
                tuple([(p.label, p.weight, p.source) for p in votes]),
                verdict.vetoed,
                verdict.constrained_to,
            )
        return StageAnswer(self, votes, self.allowed(verdict), trace)


class RuleBasedClassifier(RuleSetStage):
    """Stage 1: whitelist/blacklist regex rules written by analysts."""

    def __init__(self, rules: Optional[RuleSet] = None, name: str = "rule-based"):
        super().__init__(rules, name)


class AttributeValueClassifier(RuleSetStage):
    """Stage 2: attribute rules predict; value rules constrain."""

    def __init__(self, rules: Optional[RuleSet] = None, name: str = "attr-value"):
        super().__init__(rules, name)

    def allowed(self, verdict: RuleVerdict) -> Optional[Set[str]]:
        """Value rules constrain every stage's candidates, not just ours."""
        if verdict.constrained_to is None:
            return None
        return set(verdict.constrained_to)

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        return self.allowed(self.matcher.verdict(item))


class LearningClassifierStage(ClassifierStage):
    """Stage 3: the learning ensemble, guarded against being unfit.

    The stage reports no predictions until it has been trained — Chimera
    must keep running (and declining) even when learning is not ready for
    some or all types (section 3.2).
    """

    def __init__(self, ensemble: VotingEnsemble, name: str = "learning"):
        super().__init__(name)
        self.ensemble = ensemble
        self._trained = False
        # Types the operator has suppressed (incident scale-down).
        self.suppressed_types: Set[str] = set()

    def fit(self, titles: Sequence[str], labels: Sequence[str]) -> None:
        self.ensemble.fit(titles, labels)
        self._trained = True

    @property
    def is_trained(self) -> bool:
        return self._trained

    def answer(self, item: ItemLike) -> StageAnswer:
        return self.answer_batch([item])[0]

    def answer_batch(self, items: Sequence[ItemLike]) -> List[StageAnswer]:
        """The ensemble's unsuppressed votes, sourced to this stage, from
        one ``predict_batch`` over every title."""
        if not self._trained:
            return [StageAnswer(self, []) for _ in items]
        answers = []
        for predictions in self.ensemble.predict_batch([item.title for item in items]):
            surviving = [
                Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
                for p in predictions
                if p.label not in self.suppressed_types
            ]
            trace = None
            if self.record_provenance and surviving:
                # Learning votes carry no fired rule ids — the vote source
                # names the ensemble member, which is exactly the liability
                # distinction §3.2 draws between rule and learning labels.
                trace = StageTrace(
                    self.name,
                    (),
                    tuple([(p.label, p.weight, p.source) for p in surviving]),
                )
            answers.append(StageAnswer(self, surviving, None, trace))
        return answers
