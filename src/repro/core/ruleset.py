"""Rule sets: ordered collections with whitelist-before-blacklist semantics.

Section 4 ("Rule System Properties and Design"): "in Chimera the rule-based
module always executes the whitelist rules before the blacklist rules. So
under certain assumptions ... the execution order among the whitelist rules
(or the blacklist rules) does not affect the final output." A
:class:`RuleSet` implements exactly that evaluation discipline; the
order-independence assumptions themselves are checked by
:mod:`repro.core.properties`. A set is live state only — which rules, in
what order, enabled or not; a rule's revisions and change history belong
to :mod:`repro.repository`.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.errors import DuplicateRuleError, UnknownRuleError
from repro.core.prepared import ItemLike, prepare
from repro.core.rule import Prediction, Rule


@dataclass(frozen=True)
class RuleVerdict:
    """The outcome of applying a rule set to one item.

    ``predictions`` are the surviving whitelist votes; ``vetoed`` records the
    types blacklists killed (useful for debugging, section 3.2's "ability to
    trace errors"); ``fired`` lists every rule id that matched.
    """

    predictions: Tuple[Prediction, ...]
    vetoed: Tuple[str, ...] = ()
    constrained_to: Optional[Tuple[str, ...]] = None
    fired: Tuple[str, ...] = ()

    @property
    def labels(self) -> List[str]:
        return [p.label for p in self.predictions]

    def best(self) -> Optional[Prediction]:
        """Highest-weight surviving prediction, ties broken by label."""
        if not self.predictions:
            return None
        return max(self.predictions, key=lambda p: (p.weight, p.label))


#: What both evaluations return when no enabled rule's condition holds.
NOTHING_FIRED = RuleVerdict(predictions=())


class RuleSet:
    """An ordered, mutable collection of rules with stable evaluation.

    Evaluation order (fixed by design, per section 4):

    1. whitelist rules (any internal order) produce candidate predictions;
    2. constraint rules restrict the candidate label set;
    3. blacklist rules veto labels.

    Disabled rules are retained (so they can be re-enabled after an incident,
    section 2.2's scale-down/restore) but never fire.

    **Rule-state ownership (copy-on-add).** The set stores a shallow *copy*
    of every rule handed to :meth:`add` / :meth:`replace`, so per-rule
    mutable state — today just ``enabled`` — is owned per set. Two rule
    sets built from the same :class:`Rule` objects do not alias: disabling
    a rule in one cannot silently disable it in the other, and every set's
    subscribers see exactly the ``"disabled"`` events for *their* set.
    Rule conditions are immutable, so the shallow copy shares them.
    Writing ``enabled`` on a copy the set holds calls :meth:`enable` /
    :meth:`disable`, so even that write is recorded and announced.

    **Live state, one write path.** A set holds which rules are live, in
    what order, and their enabled flags; its mutators are the only way to
    change them. A set bound to a repository namespace has a ``recorder``:
    each mutator validates, calls ``recorder(op, rule)`` with the
    change-log op, and applies and notifies only once it returns, so a
    recorder that raises leaves the set untouched.
    """

    def __init__(self, rules: Iterable[Rule] = (), name: str = "ruleset"):
        self.name = name
        # Insertion order IS live rule order: add appends, replace keeps
        # the key's place, remove deletes, a re-add goes last.
        self._rules: Dict[str, Rule] = {}
        # The same order as a comparable key per rule, so fold() can sort
        # an unordered handful of hit ids without walking the whole set.
        self._live_key: Dict[str, int] = {}
        self._keys_issued = 0
        #: ``recorder(op, rule)`` runs before each mutation applies; set by
        #: ``RuleRepository.bind``, ``None`` when unbound.
        self.recorder: Optional[Callable[[str, Rule], None]] = None
        # Change notification for incremental consumers (§4's "when rule R
        # is modified ... re-run only what changed"). Subscriptions are
        # tracked by token (not listener value), so the same callable
        # registered twice unsubscribes independently.
        self._listeners: Dict[int, Callable[[str, Any], None]] = {}
        self._listener_tokens = 0
        self._peers: Tuple[weakref.ref, ...] = ()  # see share_ids
        for rule in rules:
            self.add(rule)

    # -- change notification ------------------------------------------------------

    def subscribe(self, listener: Callable[[str, Any], None]) -> Callable[[], None]:
        """Register ``listener(event, payload)`` for mutations; returns unsubscribe.

        Events: ``"added"``, ``"removed"``, ``"replaced"``, ``"enabled"``,
        ``"disabled"`` with the rule as payload, and ``"extended"`` with
        the tuple of rules one :meth:`extend` added, in order. Listeners
        run synchronously inside the mutation, after it is recorded and
        applied.
        Each call registers an independent subscription (tracked by token):
        subscribing the same callable twice and unsubscribing once detaches
        only that registration, never the other one.
        """
        token = self._listener_tokens
        self._listener_tokens += 1
        self._listeners[token] = listener

        def unsubscribe() -> None:
            self._listeners.pop(token, None)

        return unsubscribe

    def _record(self, op: str, rule: Rule) -> None:
        if self.recorder is not None:
            self.recorder(op, rule)

    def _notify(self, event: str, payload: Any) -> None:
        for listener in list(self._listeners.values()):
            listener(event, payload)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise UnknownRuleError(rule_id) from None

    def holds(self, rule: Rule) -> bool:
        """Whether ``rule`` is the very copy this set stores."""
        return self._rules.get(rule.rule_id) is rule

    def is_enabled(self, rule_id: str) -> bool:
        """This set's enabled flag for the rule (per-set state)."""
        return self.get(rule_id).enabled

    # -- mutation ---------------------------------------------------------------

    def add(self, rule: Rule) -> Rule:
        """Add a rule; returns the set-owned copy actually stored."""
        rule = self._insert(rule)
        self._notify("added", rule)
        return rule

    def extend(self, rules: Iterable[Rule]) -> None:
        """Add each rule in turn, validated and recorded as :meth:`add`
        does, then announce them once, as one ``"extended"`` event (an
        engine folds a deployed rule set in as one delta). When rule k is
        refused, the k - 1 before it stay added and are announced before
        the error propagates: the state k - 1 single adds leave."""
        added: List[Rule] = []
        try:
            for rule in rules:
                added.append(self._insert(rule))
        finally:
            if added:
                self._notify("extended", tuple(added))

    def _insert(self, rule: Rule) -> Rule:
        """:meth:`add` up to the announcement."""
        if rule.rule_id in self._rules:
            raise DuplicateRuleError(f"rule {rule.rule_id!r} already in {self.name!r}")
        for peer in self._peers:
            other = peer()
            if other is not None and rule.rule_id in other:
                raise DuplicateRuleError(
                    f"rule {rule.rule_id!r} already in {other.name!r}, not added to {self.name!r}"
                )
        rule = copy.copy(rule)
        self._record("add", rule)
        rule._owner = weakref.ref(self)
        self._rules[rule.rule_id] = rule
        self._keys_issued += 1
        self._live_key[rule.rule_id] = self._keys_issued
        return rule

    def remove(self, rule_id: str) -> Rule:
        rule = self.get(rule_id)
        self._record("remove", rule)
        del self._rules[rule_id]
        del self._live_key[rule_id]
        self._notify("removed", rule)
        return rule

    def replace(self, rule: Rule) -> Rule:
        """Swap in an edited rule with the same rule_id (an analyst edit).

        The rule keeps its position in evaluation order and its enabled
        flag (flip that with :meth:`enable` / :meth:`disable`); returns
        the old rule object. This is the mutation §4's
        incremental-execution discussion is about — subscribers see a
        single ``"replaced"`` event instead of a remove/add pair.
        """
        old = self.get(rule.rule_id)
        rule = copy.copy(rule)
        rule.enabled = old.enabled
        self._record("replace", rule)
        rule._owner = weakref.ref(self)
        self._rules[rule.rule_id] = rule
        self._notify("replaced", rule)
        return old

    def disable(self, rule_id: str) -> None:
        """Switch a rule off without losing it (fast incident response)."""
        rule = self.get(rule_id)
        if rule.enabled:
            self._record("disable", rule)
            object.__setattr__(rule, "enabled", False)
            self._notify("disabled", rule)

    def enable(self, rule_id: str) -> None:
        rule = self.get(rule_id)
        if not rule.enabled:
            self._record("enable", rule)
            object.__setattr__(rule, "enabled", True)
            self._notify("enabled", rule)

    def disable_type(self, target_type: str) -> List[str]:
        """Disable every rule targeting ``target_type``; returns their ids.

        This is the "scale down" primitive: when predictions for one type go
        bad, kill that type's rules with minimal impact on the rest.
        """
        disabled = [
            rule.rule_id for rule in self
            if rule.target_type == target_type and rule.enabled
        ]
        for rule_id in disabled:
            self.disable(rule_id)
        return disabled

    def enable_all(self, rule_ids: Iterable[str]) -> None:
        for rule_id in rule_ids:
            self.enable(rule_id)

    # -- views --------------------------------------------------------------------

    def active_rules(self) -> List[Rule]:
        return [rule for rule in self if rule.enabled]

    def whitelists(self) -> List[Rule]:
        return [r for r in self.active_rules() if not r.is_blacklist and not r.is_constraint]

    def blacklists(self) -> List[Rule]:
        return [r for r in self.active_rules() if r.is_blacklist]

    def constraints(self) -> List[Rule]:
        return [r for r in self.active_rules() if r.is_constraint]

    def rules_for_type(self, target_type: str) -> List[Rule]:
        return [r for r in self if r.target_type == target_type]

    def target_types(self) -> Set[str]:
        return {r.target_type for r in self}

    # -- evaluation ------------------------------------------------------------------

    def apply(self, item: ItemLike) -> RuleVerdict:
        """Evaluate all active rules on ``item`` (whitelists → constraints →
        blacklists) and return the verdict.

        Accepts either a raw :class:`~repro.catalog.types.ProductItem` or a
        :class:`~repro.core.prepared.PreparedItem`; either way the item's
        derived text views are computed at most once for the whole verdict.
        """
        prepared = prepare(item)
        fired: List[str] = []
        predictions: List[Prediction] = []
        seen_labels: Set[str] = set()
        for rule in self.whitelists():
            prediction = rule.predict_prepared(prepared)
            if prediction is not None:
                fired.append(rule.rule_id)
                if prediction.label not in seen_labels:
                    predictions.append(prediction)
                    seen_labels.add(prediction.label)
                else:
                    # Keep the strongest vote per label.
                    predictions = [
                        p if p.label != prediction.label or p.weight >= prediction.weight
                        else prediction
                        for p in predictions
                    ]

        allowed: Optional[Set[str]] = None
        for rule in self.constraints():
            if rule.matches_prepared(prepared):
                fired.append(rule.rule_id)
                rule_allowed = set(rule.allowed_types)
                allowed = rule_allowed if allowed is None else (allowed & rule_allowed)
        if allowed is not None:
            predictions = [p for p in predictions if p.label in allowed]

        vetoed: List[str] = []
        for rule in self.blacklists():
            if rule.matches_prepared(prepared):
                fired.append(rule.rule_id)
                vetoed.append(rule.target_type)
        veto_set = set(vetoed)
        surviving = tuple(p for p in predictions if p.label not in veto_set)

        return RuleVerdict(
            predictions=surviving,
            vetoed=tuple(sorted(veto_set)),
            constrained_to=tuple(sorted(allowed)) if allowed is not None else None,
            fired=tuple(fired),
        )

    def fold(self, hit_ids: Iterable[str]) -> RuleVerdict:
        """The verdict :meth:`apply` returns, folded from an engine's answer.

        ``hit_ids`` are the ids of this set's rules whose *condition* holds
        on the item — enabled or not, in any order — as a
        :class:`~repro.execution.compiler.CompiledRuleSet` handed every rule
        (or the :class:`~repro.execution.incremental.MatchStore` row it
        maintains) reports them. No rule is evaluated here: ``enabled`` is
        read now, the hits are put in live rule order, and the rest is
        ``apply``'s bookkeeping — whitelists → constraints → blacklists,
        the strongest vote per label with an equal-weight duplicate keeping
        the earlier rule, ``fired`` in that same order. A whitelist hit votes
        ``Prediction(target_type, confidence, source=rule_id)``, the shape
        :meth:`Rule.predict_prepared` gives every rule class. :meth:`apply`
        stays the executable definition; the property tests hold the two
        equal under churn.
        """
        rules = self._rules
        try:
            hits = [rules[rule_id] for rule_id in hit_ids]
        except KeyError as error:
            raise UnknownRuleError(error.args[0]) from None
        hits = [rule for rule in hits if rule.enabled]
        if not hits:
            return NOTHING_FIRED
        if len(hits) > 1:
            live_key = self._live_key
            hits.sort(key=lambda rule: live_key[rule.rule_id])

        votes: Dict[str, Prediction] = {}  # first sighting fixes a label's place
        constraints: List[Rule] = []
        blacklists: List[Rule] = []
        fired: List[str] = []
        for rule in hits:
            is_constraint, is_blacklist = rule.is_constraint, rule.is_blacklist
            if is_constraint:
                constraints.append(rule)
            if is_blacklist:
                blacklists.append(rule)
            if is_constraint or is_blacklist:
                continue
            fired.append(rule.rule_id)
            held = votes.get(rule.target_type)
            if held is None or held.weight < rule.confidence:
                votes[rule.target_type] = Prediction(
                    rule.target_type, weight=rule.confidence, source=rule.rule_id
                )
        predictions = list(votes.values())

        allowed: Optional[Set[str]] = None
        for rule in constraints:
            fired.append(rule.rule_id)
            rule_allowed = set(rule.allowed_types)
            allowed = rule_allowed if allowed is None else (allowed & rule_allowed)
        if allowed is not None:
            predictions = [p for p in predictions if p.label in allowed]

        fired.extend(rule.rule_id for rule in blacklists)
        veto_set = {rule.target_type for rule in blacklists}
        return RuleVerdict(
            predictions=tuple(p for p in predictions if p.label not in veto_set),
            vetoed=tuple(sorted(veto_set)),
            constrained_to=tuple(sorted(allowed)) if allowed is not None else None,
            fired=tuple(fired),
        )

    def coverage(self, items: Sequence[ItemLike]) -> Dict[str, List[str]]:
        """rule id -> item ids it fires on. The §4 evaluation methods and the
        §5.2 selection algorithms both work off coverage sets."""
        covered: Dict[str, List[str]] = {rule.rule_id: [] for rule in self}
        active = self.active_rules()
        for item in items:
            prepared = prepare(item)
            for rule in active:
                if rule.matches_prepared(prepared):
                    covered[rule.rule_id].append(prepared.item_id)
        return covered


def share_ids(rulesets: Sequence[RuleSet]) -> None:
    """Make ``rulesets`` one id space: :meth:`RuleSet.add` refuses an id
    another of them holds, before anything is recorded, and sets that
    already share an id are refused here. They refer to each other weakly."""
    holder: Dict[str, RuleSet] = {}
    for ruleset in rulesets:
        for rule in ruleset:
            other = holder.setdefault(rule.rule_id, ruleset)
            if other is not ruleset:
                raise DuplicateRuleError(
                    f"rule {rule.rule_id!r} is in both {other.name!r} and {ruleset.name!r}"
                )
    for ruleset in rulesets:
        ruleset._peers = tuple(
            weakref.ref(other) for other in rulesets if other is not ruleset
        )
