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
from typing import List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.chimera.matching import RuleSetMatcher
from repro.core.prepared import ItemLike
from repro.core.rule import Prediction
from repro.core.ruleset import RuleSet, RuleVerdict
from repro.learning.ensemble import VotingEnsemble
from repro.observability.provenance import StageTrace


class ClassifierStage(ABC):
    """A named pipeline stage producing per-item predictions.

    When ``record_provenance`` is on, each ``predict`` call stashes a
    :class:`~repro.observability.provenance.StageTrace` of what fired and
    what was voted, captured from the values the stage computed anyway —
    recording never re-evaluates a rule, which is what keeps labels
    byte-identical with telemetry on or off. The pipeline collects the
    stash with :meth:`take_trace` (take-and-clear). A stage with nothing
    to report — routed around by its breaker, untrained, or simply no
    rule fired and no vote cast — stashes nothing, so empty traces never
    hit the per-item recording budget.
    """

    def __init__(self, name: str):
        self.name = name
        self.enabled = True
        self.record_provenance = False
        self._last_trace: Optional[StageTrace] = None

    @abstractmethod
    def predict(self, item: ItemLike) -> List[Prediction]:
        """Weighted type votes for one item (empty when nothing fires)."""

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        """Allowed-type restriction for ``item``, or None for unconstrained."""
        return None

    def take_trace(self) -> Optional[StageTrace]:
        """The last predict's provenance trace, cleared on read."""
        trace, self._last_trace = self._last_trace, None
        return trace


class RuleSetStage(ClassifierStage):
    """A stage whose votes are one rule set's verdict.

    The verdict comes from :attr:`matcher` — one engine evaluation per
    item, folded by the rule set — never from ``rules.apply``.
    """

    def __init__(self, rules: Optional[RuleSet], name: str):
        super().__init__(name)
        self.rules = rules if rules is not None else RuleSet(name=name)
        self.matcher = RuleSetMatcher(self.rules)

    def _evaluate(self, item: ItemLike) -> RuleVerdict:
        return self.matcher.verdict(item)

    def allowed(self, verdict: RuleVerdict) -> Optional[Set[str]]:
        """The restriction ``verdict`` puts on *other* stages' votes: none —
        a rule set's constraints already shaped its own predictions."""
        return None

    def predict(self, item: ItemLike) -> List[Prediction]:
        verdict = self._evaluate(item)
        predictions = [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in verdict.predictions
        ]
        if self.record_provenance and (
            verdict.fired or verdict.vetoed or verdict.constrained_to is not None
        ):
            self._last_trace = StageTrace(
                self.name,
                verdict.fired,
                tuple([(p.label, p.weight, p.source) for p in predictions]),
                verdict.vetoed,
                verdict.constrained_to,
            )
        return predictions


class RuleBasedClassifier(RuleSetStage):
    """Stage 1: whitelist/blacklist regex rules written by analysts."""

    def __init__(self, rules: Optional[RuleSet] = None, name: str = "rule-based"):
        super().__init__(rules, name)


class AttributeValueClassifier(RuleSetStage):
    """Stage 2: attribute rules predict; value rules constrain."""

    def __init__(self, rules: Optional[RuleSet] = None, name: str = "attr-value"):
        super().__init__(rules, name)
        # predict() leaves its verdict here for the constraints() call the
        # Voting Master makes next on the same item (taken once, and only
        # while the rule set is unchanged), so the pair evaluates once.
        self._handoff: Tuple[Optional[ItemLike], int, Optional[RuleVerdict]] = (
            None, -1, None,
        )

    def _evaluate(self, item: ItemLike) -> RuleVerdict:
        verdict = self.matcher.verdict(item)
        self._handoff = (item, self.rules.version, verdict)
        return verdict

    def allowed(self, verdict: RuleVerdict) -> Optional[Set[str]]:
        """Value rules constrain every stage's candidates, not just ours."""
        if verdict.constrained_to is None:
            return None
        return set(verdict.constrained_to)

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        held_item, held_version, verdict = self._handoff
        self._handoff = (None, -1, None)
        if held_item is not item or held_version != self.rules.version:
            verdict = self.matcher.verdict(item)
        return self.allowed(verdict)


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

    def votes(self, item: ItemLike) -> List[Prediction]:
        """The ensemble's unsuppressed votes, sourced to this stage."""
        if not self._trained:
            return []
        return [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in self.ensemble.predict(item.title)
            if p.label not in self.suppressed_types
        ]

    def predict(self, item: ItemLike) -> List[Prediction]:
        surviving = self.votes(item)
        if self.record_provenance and surviving:
            # Learning votes carry no fired rule ids — the vote source
            # names the ensemble member, which is exactly the liability
            # distinction §3.2 draws between rule and learning labels.
            self._last_trace = StageTrace(
                self.name,
                (),
                tuple([(p.label, p.weight, p.source) for p in surviving]),
            )
        return surviving
