"""The Filter: last-line blacklist control over final predictions.

Section 3.3: analysts add rules "to the Filter to control classifiers'
behavior (here the analysts use mostly blacklist rules)", including
business-mandated kill rules ("a rule is inserted killing off predictions
regarding these types, routing such product items to the manual
classification team").
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.catalog.types import ProductItem
from repro.chimera.matching import RuleSetMatcher
from repro.core.prepared import ItemLike
from repro.core.rule import Prediction
from repro.core.ruleset import RuleSet
from repro.observability.provenance import StageTrace


class FinalFilter:
    """Walks the ranked candidates, dropping vetoed or killed types.

    Asked with ``traced``, :meth:`select` returns beside its pick which
    filter rules fired and which types were vetoed (captured from the
    verdict it computed anyway). The verdict is :attr:`matcher`'s — one
    engine evaluation per item, folded by the rule set.
    """

    def __init__(self, rules: Optional[RuleSet] = None):
        self.rules = rules if rules is not None else RuleSet(name="filter")
        self.matcher = RuleSetMatcher(self.rules)
        # Business kill switches: predictions for these types are always
        # dropped and the items routed to manual classification.
        self.killed_types: Set[str] = set()

    def kill_type(self, type_name: str) -> None:
        self.killed_types.add(type_name)

    def revive_type(self, type_name: str) -> None:
        self.killed_types.discard(type_name)

    def vetoed_types(self, item: ItemLike) -> Set[str]:
        verdict = self.matcher.verdict(item)
        return set(verdict.vetoed) | self.killed_types

    def select(
        self,
        item: ItemLike,
        ranked: List[Prediction],
        confidence_threshold: float,
        traced: bool = False,
    ) -> Tuple[Optional[Prediction], Optional[StageTrace]]:
        """First ranked candidate that survives vetoes and the threshold,
        and the filter's provenance trace (None unless ``traced``).

        Only candidates at or above the Voting Master's confidence threshold
        are considered — the Filter removes bad answers, it does not rescue
        low-confidence ones.
        """
        verdict = self.matcher.verdict(item)
        vetoed = set(verdict.vetoed) | self.killed_types
        trace = None
        if traced:
            trace = StageTrace(
                stage="filter",
                fired=verdict.fired,
                vetoed=tuple(sorted(vetoed)),
            )
        return first_surviving(ranked, vetoed, confidence_threshold), trace


def first_surviving(
    ranked: List[Prediction], vetoed: Set[str], confidence_threshold: float
) -> Optional[Prediction]:
    """The Filter's walk: the first candidate of ``ranked`` not ``vetoed``,
    stopping at the first one below ``confidence_threshold``."""
    for candidate in ranked:
        if candidate.weight < confidence_threshold:
            return None
        if candidate.label not in vetoed:
            return candidate
    return None
