"""The engine's candidate-count contract, written plainly.

``CompiledRuleSet`` reports, per item, how many rules it evaluated. This
is that number from the rules alone: a rule counts when its probe anchor
is among the item's ``anchor_tokens`` — a sequence rule's one anchor is
its ``rarest_anchor``, any of a regex rule's ``anchor_literals`` will do —
and a rule without anchors (the residue) always counts. Every rule the
engine was handed counts, enabled or not.
"""

from repro.core.prepared import prepare
from repro.core.rule import SequenceRule
from repro.execution import rarest_anchor


def reference_evaluations(rules, item, token_frequency=None):
    """Rule evaluations the engine owes ``item`` under ``rules``."""
    probe = prepare(item).anchor_tokens
    count = 0
    for rule in rules:
        if isinstance(rule, SequenceRule):
            anchors = {rarest_anchor(rule.token_sequence, token_frequency or {})}
        else:
            anchors = rule.anchor_literals()
        count += not anchors or not probe.isdisjoint(anchors)
    return count
