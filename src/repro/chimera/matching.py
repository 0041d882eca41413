"""One evaluation per item: the seam between a rule set and the engine.

Section 4 asks how to "quickly execute all rules on all records". The
served path's answer is to never scan: every rule set Chimera consults —
gate bypass, rule-based, attr-value, filter — is evaluated through the
compiled engine (:mod:`repro.execution.compiler`), and the verdict is
:meth:`RuleSet.fold <repro.core.ruleset.RuleSet.fold>` over the rule ids
the engine reports. :meth:`RuleSet.apply <repro.core.ruleset.RuleSet.apply>`
— every active rule against the item — stays as the reference the tests
hold this path equal to; nothing under :mod:`repro.chimera` or
:mod:`repro.service` calls it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.prepared import ItemLike
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet, RuleVerdict
from repro.execution.compiler import CompiledRuleSet
from repro.execution.incremental import IncrementalExecutor


def _keep_in_step(compiled: CompiledRuleSet) -> Callable[[str, Rule], None]:
    """A ``RuleSet.subscribe`` listener patching ``compiled`` per mutation.

    It closes over the artifact only, never the matcher, so the rule set's
    listener table does not tie its owner into a reference cycle.
    """

    def on_event(event: str, rule: Rule) -> None:
        # enabled/disabled need nothing: the artifact holds disabled rules
        # too, and fold() reads the flag at verdict time.
        if event in ("removed", "replaced"):
            compiled.remove_rule(rule.rule_id)
        if event in ("added", "replaced"):
            compiled.add_rule(rule)

    return on_event


class RuleSetMatcher:
    """Evaluates one :class:`RuleSet` once per item, through the engine.

    Two sources of hit ids, one fold:

    * on its own, the matcher keeps a ``CompiledRuleSet(include_disabled=
      True)`` in step with the set through ``RuleSet.subscribe`` (lowered
      on first use) and runs each item through it;
    * after :meth:`follow`, it reads a fired-map tracker instead — the
      :class:`~repro.execution.incremental.MatchStore` row ``add_items``
      wrote when the item arrived — until that tracker detaches.

    A raising rule raises out of :meth:`verdict`, inside whatever guard the
    caller runs under.
    """

    def __init__(self, rules: RuleSet):
        self.rules = rules
        self._compiled: Optional[CompiledRuleSet] = None
        self._unsubscribe: Callable[[], None] = lambda: None
        self._tracker: Optional[IncrementalExecutor] = None

    def follow(self, tracker: IncrementalExecutor) -> None:
        """Take hit ids from ``tracker`` (attached to the same rule set)
        for as long as it stays attached."""
        self._unsubscribe()
        self._compiled = None
        self._tracker = tracker
        tracker.on_detach(lambda: self._release(tracker))

    def _release(self, tracker: IncrementalExecutor) -> None:
        if self._tracker is tracker:
            self._tracker = None

    def _own(self) -> CompiledRuleSet:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledRuleSet(
                self.rules, include_disabled=True
            )
            self._unsubscribe = self.rules.subscribe(_keep_in_step(compiled))
        return compiled

    def verdict(self, item: ItemLike) -> RuleVerdict:
        """What ``rules.apply(item)`` returns, from one engine evaluation."""
        if self._tracker is not None:
            hits = self._tracker.match_row(item)
        else:
            hits, _ = self._own().match_item(item)
        return self.rules.fold(hits)
