"""Handling taxonomy changes (section 4).

"The product taxonomy may also change, rendering certain rules
inapplicable. For example, when the product type 'pants' is divided into
'work pants' and 'jeans', the rules written for 'pants' become inapplicable.
They need to be removed and new rules need to be written."

:func:`plan_for_split` computes which rules a split invalidates and, using
sample items already labeled with the new types, proposes a retarget for
each old rule whose coverage lands (cleanly enough) in one new type.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.types import ProductItem
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet


@dataclass
class TaxonomyChangePlan:
    """What to do with each rule affected by a type split."""

    old_type: str
    new_types: Tuple[str, ...]
    invalidated: List[str] = field(default_factory=list)
    retargets: Dict[str, str] = field(default_factory=dict)  # rule_id -> new type
    undecidable: List[str] = field(default_factory=list)

    @property
    def n_affected(self) -> int:
        return len(self.invalidated)


def plan_for_split(
    rules: Sequence[Rule],
    old_type: str,
    new_types: Sequence[str],
    sample_items: Sequence[ProductItem],
    purity_threshold: float = 0.8,
    min_matches: int = 3,
) -> TaxonomyChangePlan:
    """Plan the rule migration for splitting ``old_type`` into ``new_types``.

    Every rule targeting ``old_type`` is invalidated. For each, the rule is
    run over ``sample_items`` (which carry the *new* type labels); if at
    least ``purity_threshold`` of its matches fall into a single new type,
    the plan proposes retargeting the rule there, otherwise the rule is
    undecidable and must be rewritten by an analyst.
    """
    if not new_types:
        raise ValueError("a split needs at least one new type")
    if not 0.0 < purity_threshold <= 1.0:
        raise ValueError(f"purity_threshold must be in (0, 1], got {purity_threshold}")
    plan = TaxonomyChangePlan(old_type=old_type, new_types=tuple(sorted(new_types)))
    new_type_set = set(new_types)
    for rule in rules:
        if rule.target_type != old_type:
            continue
        plan.invalidated.append(rule.rule_id)
        matches = Counter()
        for item in sample_items:
            if item.true_type in new_type_set and rule.matches(item):
                matches[item.true_type] += 1
        total = sum(matches.values())
        if total < min_matches:
            plan.undecidable.append(rule.rule_id)
            continue
        best_type, best_count = matches.most_common(1)[0]
        if best_count / total >= purity_threshold:
            plan.retargets[rule.rule_id] = best_type
        else:
            plan.undecidable.append(rule.rule_id)
    return plan


def plan_for_merge(
    rules: Sequence[Rule], old_types: Sequence[str], merged_type: str
) -> TaxonomyChangePlan:
    """Plan the rule migration for merging ``old_types`` into one type.

    Merges are the easy direction: every rule targeting any merged type is
    retargeted to the coarser type (its matches remain correct there), so
    nothing is undecidable.
    """
    if not old_types:
        raise ValueError("a merge needs at least one old type")
    plan = TaxonomyChangePlan(
        old_type="+".join(sorted(old_types)), new_types=(merged_type,)
    )
    old = set(old_types)
    for rule in rules:
        if rule.target_type in old:
            plan.invalidated.append(rule.rule_id)
            plan.retargets[rule.rule_id] = merged_type
    return plan


def apply_plan(rulesets: Sequence[RuleSet], plan: TaxonomyChangePlan) -> List[Rule]:
    """Apply a plan through the rule sets' own mutators, so a bound
    repository logs every change: each retargeted rule is replaced by a
    copy aimed at its new type, and the rest of the invalidated rules are
    disabled. Returns the disabled rules."""
    disabled: List[Rule] = []
    retargets = plan.retargets
    for ruleset in rulesets:
        for rule in list(ruleset):
            if rule.rule_id in retargets:
                retargeted = copy.copy(rule)
                retargeted.target_type = retargets[rule.rule_id]
                ruleset.replace(retargeted)
            elif rule.rule_id in plan.undecidable:
                ruleset.disable(rule.rule_id)
                disabled.append(rule)
    return disabled
