"""Classification explanations.

Section 3.2, "Business Requirements": "legal and liability concerns may
require the system to be able to explain (or explain quickly, should the
need arise) why it classifies certain products into certain types (e.g.,
medicine). In such cases, rules will be used to ensure a clear explanation
can be generated quickly."

:func:`explain_verdict` turns a rule-set evaluation into a structured,
human-readable account: which rules fired, what they asserted or vetoed,
and which constraints narrowed the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.catalog.types import ProductItem
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet, RuleVerdict


@dataclass(frozen=True)
class ExplanationStep:
    """One contributing rule, in evaluation order."""

    rule_id: str
    kind: str           # "whitelist" | "blacklist" | "constraint"
    statement: str      # the rule's own description
    effect: str         # what it did to this item's outcome


@dataclass
class Explanation:
    """A full account of one item's rule-set verdict."""

    item_id: str
    title: str
    outcome: Optional[str]
    steps: List[ExplanationStep] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text rendering for audit trails and support tickets."""
        lines = [f"item {self.item_id}: {self.title!r}"]
        if not self.steps:
            lines.append("  no rule fired")
        for step in self.steps:
            lines.append(f"  [{step.kind}] {step.statement}")
            lines.append(f"      -> {step.effect}")
        lines.append(f"  outcome: {self.outcome if self.outcome else 'unclassified'}")
        return "\n".join(lines)


def explain_verdict(
    ruleset: RuleSet, item: ProductItem, verdict: Optional[RuleVerdict] = None
) -> Explanation:
    """Account for ``ruleset``'s verdict on ``item``, effect by effect.

    ``verdict`` is the verdict to explain when the caller already holds it
    (the pipeline explains the one it classified from); by default the
    item is re-evaluated with the reference :meth:`RuleSet.apply`.
    """
    if verdict is None:
        verdict = ruleset.apply(item)
    best = verdict.best()
    explanation = Explanation(
        item_id=item.item_id,
        title=item.title,
        outcome=best.label if best else None,
    )
    surviving = set(verdict.labels)
    vetoed = set(verdict.vetoed)
    for rule in ruleset.active_rules():
        if rule.rule_id not in verdict.fired:
            continue
        if rule.is_constraint:
            allowed = "|".join(verdict.constrained_to or ())
            explanation.steps.append(ExplanationStep(
                rule_id=rule.rule_id,
                kind="constraint",
                statement=rule.describe(),
                effect=f"restricted candidates to {{{allowed}}}",
            ))
        elif rule.is_blacklist:
            explanation.steps.append(ExplanationStep(
                rule_id=rule.rule_id,
                kind="blacklist",
                statement=rule.describe(),
                effect=f"vetoed type {rule.target_type!r}",
            ))
        else:
            if rule.target_type in vetoed:
                effect = f"asserted {rule.target_type!r} (later vetoed)"
            elif rule.target_type in surviving:
                effect = f"asserted {rule.target_type!r}"
            else:
                effect = f"asserted {rule.target_type!r} (dropped by a constraint)"
            explanation.steps.append(ExplanationStep(
                rule_id=rule.rule_id,
                kind="whitelist",
                statement=rule.describe(),
                effect=effect,
            ))
    return explanation
