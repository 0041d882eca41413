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
from itertools import repeat
from typing import TYPE_CHECKING, Collection, List, Optional, Sequence, Set

from repro.core.prepared import ItemLike, prepare
from repro.core.rule import Prediction
from repro.core.ruleset import NOTHING_FIRED, RuleSet, RuleVerdict
from repro.observability.provenance import StageTrace

if TYPE_CHECKING:
    from repro.learning.ensemble import VotingEnsemble


#: One item's hit ids for one rule set (any order, disabled rules too), or
#: None when nobody read them.
Hits = Optional[Collection[str]]


class RuleFold:
    """One rule set's consumer: its verdict is ``rules.fold`` over the
    item's hits of that set, which the pipeline reads from its engine; no
    hits, no fold. With ``hits`` None (a consumer on its own, or an item
    whose engine evaluation raised) it evaluates each of its rules by
    ``matches_prepared``, disabled ones too as the engine does, so a
    raising condition raises inside the caller's guard."""

    rules: RuleSet

    def verdict(self, item: ItemLike, hits: Hits = None) -> RuleVerdict:
        """What ``rules.apply(item)`` returns."""
        if hits is None:
            prepared = prepare(item)
            hits = [rule.rule_id for rule in self.rules if rule.matches_prepared(prepared)]
        return self.rules.fold(hits) if hits else NOTHING_FIRED


class StageAnswer:
    """One stage's answer for one item — votes, allowed-type restriction
    and provenance trace, under the stage's ``name`` and ``enabled`` — and
    the one thing a stage hands on: :meth:`VotingMaster.combine
    <repro.chimera.voting.VotingMaster.combine>` reads these fields, so
    the pipeline votes over answers a batch call computed earlier."""

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


class ClassifierStage(ABC):
    """A named pipeline stage producing per-item answers.

    Asked with ``traced`` (the pipeline asks while a provenance log is
    attached), each answer carries a
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

    @abstractmethod
    def answer(self, item: ItemLike, traced: bool = False, hits: Hits = None) -> StageAnswer:
        """Votes, restriction and (when ``traced``) trace for one item,
        evaluated once (``hits``: see :class:`RuleFold`)."""

    def answer_batch(
        self,
        items: Sequence[ItemLike],
        traced: bool = False,
        hits: Optional[Sequence[Hits]] = None,
    ) -> List[StageAnswer]:
        """One answer per item, in order: the call the pipeline guards."""
        per_item = repeat(None) if hits is None else hits
        return [self.answer(item, traced, h) for item, h in zip(items, per_item)]

    def predict(self, item: ItemLike) -> List[Prediction]:
        """Weighted type votes for one item (empty when nothing fires)."""
        return self.answer(item).votes

    def constraints(self, item: ItemLike, hits: Hits = None) -> Optional[Set[str]]:
        """Allowed-type restriction for ``item``, or None for unconstrained."""
        return None


class RuleSetStage(ClassifierStage, RuleFold):
    """A stage whose votes are one rule set's verdict (see :class:`RuleFold`)."""

    def __init__(self, rules: Optional[RuleSet], name: str):
        super().__init__(name)
        self.rules = rules if rules is not None else RuleSet(name=name)

    def allowed(self, verdict: RuleVerdict) -> Optional[Set[str]]:
        """The restriction ``verdict`` puts on *other* stages' votes: none —
        a rule set's constraints already shaped its own predictions."""
        return None

    def answer(self, item: ItemLike, traced: bool = False, hits: Hits = None) -> StageAnswer:
        verdict = self.verdict(item, hits)
        votes = [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in verdict.predictions
        ]
        trace = None
        if traced and (
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

    def constraints(self, item: ItemLike, hits: Hits = None) -> Optional[Set[str]]:
        return self.allowed(self.verdict(item, hits))


class LearningClassifierStage(ClassifierStage):
    """Stage 3: the learning ensemble, guarded against being unfit.

    The stage reports no predictions until it has been trained — Chimera
    must keep running (and declining) even when learning is not ready for
    some or all types (section 3.2).

    Without an explicit ``ensemble`` the stage holds none (``ensemble is
    None``) until its first :meth:`fit` builds
    :func:`~repro.learning.ensemble.default_ensemble` from ``seed``. The
    learning package (numpy only) is imported there, so a rules-only
    process never loads it.
    """

    def __init__(
        self,
        ensemble: Optional[VotingEnsemble] = None,
        name: str = "learning",
        seed: int = 0,
    ):
        super().__init__(name)
        self.ensemble = ensemble
        self.seed = seed
        self._trained = False
        # Types the operator has suppressed (incident scale-down).
        self.suppressed_types: Set[str] = set()

    def fit(self, titles: Sequence[str], labels: Sequence[str]) -> None:
        if self.ensemble is None:
            from repro.learning.ensemble import default_ensemble

            self.ensemble = default_ensemble(self.seed)
        self.ensemble.fit(titles, labels)
        self._trained = True

    @property
    def is_trained(self) -> bool:
        return self._trained

    def answer(self, item: ItemLike, traced: bool = False, hits: Hits = None) -> StageAnswer:
        return self.answer_batch([item], traced)[0]

    def answer_batch(
        self,
        items: Sequence[ItemLike],
        traced: bool = False,
        hits: Optional[Sequence[Hits]] = None,
    ) -> List[StageAnswer]:
        """The ensemble's unsuppressed votes, sourced to this stage, from
        one ``predict_batch`` over every title's prepared tokens."""
        if not self._trained:
            return [StageAnswer(self, []) for _ in items]
        answers = []
        titles = [prepare(item).tokens for item in items]
        for predictions in self.ensemble.predict_batch(titles):
            surviving = [
                Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
                for p in predictions
                if p.label not in self.suppressed_types
            ]
            trace = None
            if traced and surviving:
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
