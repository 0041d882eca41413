"""The Gate Keeper: preliminary processing before classification.

"Given items to classify, the Gate Keeper does preliminary processing, and
under certain conditions can immediately classify an item (see the line
from the Gate Keeper to the Result)" — section 3.3 / Figure 2. Analysts
"can add rules to the Gate Keeper to bypass the system".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.chimera.classifiers import Hits, RuleFold
from repro.core.prepared import ItemLike
from repro.core.ruleset import RuleSet


class GateAction(enum.Enum):
    PASS = "pass"          # send to the classifiers
    CLASSIFY = "classify"  # bypass: the gate itself assigns the type
    REJECT = "reject"      # junk; do not classify at all


@dataclass(frozen=True)
class GateDecision:
    action: GateAction
    label: Optional[str] = None
    reason: str = ""


class GateKeeper(RuleFold):
    """Preliminary item screening with an analyst-editable bypass rule set."""

    def __init__(self, bypass_rules: Optional[RuleSet] = None, min_title_tokens: int = 1):
        self.rules = bypass_rules if bypass_rules is not None else RuleSet(name="gate")
        self.min_title_tokens = min_title_tokens

    def rejects(self, item: ItemLike) -> bool:
        """Whether ``item`` is junk: an empty or too short title."""
        title = item.title.strip()
        return not title or len(title.split()) < self.min_title_tokens

    def process(self, item: ItemLike, hits: Hits = None) -> GateDecision:
        """Reject junk, else bypass on the bypass rules' strongest vote."""
        if self.rejects(item):
            return GateDecision(GateAction.REJECT, reason="empty-or-short-title")
        best = self.verdict(item, hits).best()
        if best is not None:
            return GateDecision(GateAction.CLASSIFY, label=best.label, reason=best.source)
        return GateDecision(GateAction.PASS)
