"""Interactive rule development support."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyst.analyst import SimulatedAnalyst
from repro.catalog.types import ProductItem
from repro.core.rule import BlacklistRule, Rule
from repro.core.ruleset import RuleSet
from repro.execution.data_index import DataIndex
from repro.utils.stats import wilson_interval
from repro.utils.text import tokenize


@dataclass
class RulePreview:
    """What a draft rule does on the development set."""

    rule_id: str
    matched: int
    candidate_fraction: float
    sample_titles: List[str] = field(default_factory=list)
    estimated_precision: Optional[float] = None
    precision_interval: Optional[Tuple[float, float]] = None
    conflicting_rules: List[str] = field(default_factory=list)
    suggested_blacklists: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"rule {self.rule_id}: {self.matched} matches "
            f"(index scanned {self.candidate_fraction:.1%} of D)",
        ]
        for title in self.sample_titles:
            lines.append(f"  · {title}")
        if self.estimated_precision is not None:
            low, high = self.precision_interval
            lines.append(
                f"  precision ≈ {self.estimated_precision:.1%} "
                f"[{low:.1%}, {high:.1%}]"
            )
        if self.conflicting_rules:
            lines.append(f"  conflicts with: {', '.join(self.conflicting_rules)}")
        for suggestion in self.suggested_blacklists:
            lines.append(f"  suggest blacklist: {suggestion}")
        return "\n".join(lines)


class RuleWorkbench:
    """A development data set + the checks an analyst runs before deploying.

    The development set is indexed once; every preview reuses the index, so
    iterating on a rule costs milliseconds instead of a full scan — the
    section 4 requirement for effective rule development. The index holds
    no records: row ``i`` is ``items[i]``.
    """

    def __init__(
        self,
        development_items: Sequence[ProductItem],
        deployed: Optional[RuleSet] = None,
        analyst: Optional[SimulatedAnalyst] = None,
        seed: int = 0,
    ):
        if not development_items:
            raise ValueError("workbench needs a development data set")
        self.items = list(development_items)
        self.index = DataIndex(self.items)
        self.deployed = deployed if deployed is not None else RuleSet(name="deployed")
        self.analyst = analyst
        self.rng = random.Random(seed)

    # -- previews -----------------------------------------------------------------

    def preview(
        self,
        rule: Rule,
        sample_size: int = 5,
        verify_sample: int = 30,
    ) -> RulePreview:
        """Run a draft rule against the indexed development set."""
        matches = self._matches(rule)
        sample = matches[:sample_size]
        preview = RulePreview(
            rule_id=rule.rule_id,
            matched=len(matches),
            candidate_fraction=self.index.candidate_fraction(rule),
            sample_titles=[item.title for item in sample],
        )
        if self.analyst is not None and matches and not rule.is_blacklist:
            check = matches
            if len(matches) > verify_sample:
                check = self.rng.sample(matches, verify_sample)
            correct = sum(
                1 for item in check
                if self.analyst.verify_pair(item, rule.target_type)
            )
            preview.estimated_precision = correct / len(check)
            preview.precision_interval = wilson_interval(correct, len(check))
        preview.conflicting_rules = self.conflicts(rule, matches)
        if (
            preview.estimated_precision is not None
            and preview.estimated_precision < 1.0
        ):
            preview.suggested_blacklists = self.suggest_blacklists(rule, matches)
        return preview

    def conflicts(self, rule: Rule, matches: Optional[List[ProductItem]] = None) -> List[str]:
        """Deployed whitelist rules asserting a *different* type on the
        draft rule's matches — the order-sensitivity hazard of section 4."""
        if rule.is_blacklist or rule.is_constraint:
            return []
        if matches is None:
            matches = self._matches(rule)
        conflicting: Set[str] = set()
        for item in matches:
            for deployed_rule in self.deployed.whitelists():
                if (
                    deployed_rule.target_type != rule.target_type
                    and deployed_rule.matches(item)
                ):
                    conflicting.add(deployed_rule.rule_id)
        return sorted(conflicting)

    def suggest_blacklists(
        self,
        rule: Rule,
        matches: Optional[List[ProductItem]] = None,
        top: int = 3,
    ) -> List[str]:
        """Propose blacklist patterns from the rule's likely false positives.

        Uses the analyst's verification to split matches into accepted and
        rejected, then surfaces the bigrams most distinctive of the rejected
        side — the phrases a blacklist should key on.
        """
        if self.analyst is None:
            return []
        if matches is None:
            matches = self._matches(rule)
        rejected: List[ProductItem] = []
        accepted_tokens: Counter = Counter()
        for item in matches:
            if self.analyst.verify_pair(item, rule.target_type):
                accepted_tokens.update(self._bigrams(item))
            else:
                rejected.append(item)
        if not rejected:
            return []
        rejected_bigrams: Counter = Counter()
        for item in rejected:
            rejected_bigrams.update(self._bigrams(item))
        distinctive = [
            (count, bigram)
            for bigram, count in rejected_bigrams.items()
            if accepted_tokens[bigram] == 0 and count >= 2
        ]
        distinctive.sort(key=lambda pair: (-pair[0], pair[1]))
        return [
            f"{' '.join(bigram)} -> NOT {rule.target_type}"
            for _, bigram in distinctive[:top]
        ]

    def _matches(self, rule: Rule) -> List[ProductItem]:
        """Development items matching ``rule``, via the index."""
        return [self.items[row] for row in self.index.matches(rule, self.items)]

    @staticmethod
    def _bigrams(item: ProductItem) -> List[Tuple[str, str]]:
        tokens = tokenize(item.title, drop_stopwords=False)
        return list(zip(tokens, tokens[1:]))
