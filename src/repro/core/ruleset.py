"""Rule sets: ordered collections with whitelist-before-blacklist semantics.

Section 4 ("Rule System Properties and Design"): "in Chimera the rule-based
module always executes the whitelist rules before the blacklist rules. So
under certain assumptions ... the execution order among the whitelist rules
(or the blacklist rules) does not affect the final output." A
:class:`RuleSet` implements exactly that evaluation discipline; the
order-independence assumptions themselves are checked by
:mod:`repro.core.properties`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
_NOTHING_FIRED = RuleVerdict(predictions=())


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
    sets built from the same :class:`Rule` objects (e.g. a pipeline stage
    and a repository's materialized view) do not alias: disabling
    a rule in one cannot silently disable it in the other, and every set's
    subscribers see exactly the ``"disabled"`` events for *their* set.
    Rule conditions are immutable, so the shallow copy shares them.
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
        # Change-notification plumbing for incremental consumers (§4's
        # "when rule R is modified ... re-run only what changed"): every
        # mutation bumps `version`, assigns the touched rule a fresh
        # per-rule revision, and fans the event out to subscribers.
        self._version = 0
        self._revisions: Dict[str, int] = {}
        # Highest revision ever reaped by remove(); see _next_revision.
        self._revision_watermark = 0
        # Subscriptions are tracked by token (not listener value), so the
        # same callable registered twice unsubscribes independently.
        self._listeners: Dict[int, Callable[[str, Rule], None]] = {}
        self._listener_tokens = 0
        for rule in rules:
            self.add(rule)

    # -- change notification ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (cheap staleness check)."""
        return self._version

    def revision(self, rule_id: str) -> int:
        """The rule's revision number: bumped on add and on replace.

        ``(rule_id, revision)`` is the *versioned rule identity* — two
        sightings of the same pair are guaranteed to denote the same rule
        condition, so cached per-rule results keyed on it stay sound. The
        guarantee holds across remove/re-add churn: a re-added rule's
        revision is strictly greater than any revision its id ever held
        (see :meth:`_next_revision`), without keeping a tombstone entry
        per removed id.
        """
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        return self._revisions[rule_id]

    def _next_revision(self, rule_id: str) -> int:
        """A revision strictly above everything ``rule_id`` ever held.

        ``_revisions`` only keeps entries for *live* rules; :meth:`remove`
        folds the departing revision into a single scalar watermark (the
        max revision ever reaped). A fresh add starts above the watermark,
        so heavy churn cannot grow the dict without bound and the
        versioned-identity guarantee survives: the watermark dominates
        every removed id's last revision, in particular this one's.
        """
        return max(self._revisions.get(rule_id, 0), self._revision_watermark) + 1

    def subscribe(self, listener: Callable[[str, Rule], None]) -> Callable[[], None]:
        """Register ``listener(event, rule)`` for mutations; returns unsubscribe.

        Events: ``"added"``, ``"removed"``, ``"replaced"``, ``"enabled"``,
        ``"disabled"``. Listeners run synchronously inside the mutation.
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

    def _notify(self, event: str, rule: Rule) -> None:
        self._version += 1
        for listener in list(self._listeners.values()):
            listener(event, rule)

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

    def is_enabled(self, rule_id: str) -> bool:
        """This set's enabled flag for the rule (per-set state)."""
        return self.get(rule_id).enabled

    # -- mutation ---------------------------------------------------------------

    def add(self, rule: Rule) -> Rule:
        """Add a rule; returns the set-owned copy actually stored."""
        if rule.rule_id in self._rules:
            raise DuplicateRuleError(f"rule {rule.rule_id!r} already in {self.name!r}")
        rule = copy.copy(rule)
        self._rules[rule.rule_id] = rule
        self._keys_issued += 1
        self._live_key[rule.rule_id] = self._keys_issued
        self._revisions[rule.rule_id] = self._next_revision(rule.rule_id)
        self._notify("added", rule)
        return rule

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    def remove(self, rule_id: str) -> Rule:
        rule = self.get(rule_id)
        del self._rules[rule_id]
        del self._live_key[rule_id]
        # Reap the tombstoned revision into the watermark so churn cannot
        # grow _revisions without bound (see _next_revision).
        self._revision_watermark = max(
            self._revision_watermark, self._revisions.pop(rule_id)
        )
        self._notify("removed", rule)
        return rule

    def replace(self, rule: Rule) -> Rule:
        """Swap in an edited rule with the same rule_id (an analyst edit).

        The rule keeps its position in evaluation order but gets a fresh
        revision; returns the old rule object. This is the mutation §4's
        incremental-execution discussion is about — subscribers see a
        single ``"replaced"`` event instead of a remove/add pair.
        """
        old = self.get(rule.rule_id)
        rule = copy.copy(rule)
        self._rules[rule.rule_id] = rule
        self._revisions[rule.rule_id] += 1
        self._notify("replaced", rule)
        return old

    def disable(self, rule_id: str) -> None:
        """Switch a rule off without losing it (fast incident response)."""
        rule = self.get(rule_id)
        if rule.enabled:
            rule.enabled = False
            self._notify("disabled", rule)

    def enable(self, rule_id: str) -> None:
        rule = self.get(rule_id)
        if not rule.enabled:
            rule.enabled = True
            self._notify("enabled", rule)

    def disable_type(self, target_type: str) -> List[str]:
        """Disable every rule targeting ``target_type``; returns their ids.

        This is the "scale down" primitive: when predictions for one type go
        bad, kill that type's rules with minimal impact on the rest.
        """
        disabled = []
        for rule in self:
            if rule.target_type == target_type and rule.enabled:
                rule.enabled = False
                self._notify("disabled", rule)
                disabled.append(rule.rule_id)
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
        :class:`~repro.execution.compiler.CompiledRuleSet` built with
        ``include_disabled=True`` (or the
        :class:`~repro.execution.incremental.MatchStore` row it maintains)
        reports them. No rule is evaluated here: ``enabled`` is read now,
        the hits are put in live rule order, and the rest is ``apply``'s
        bookkeeping — whitelists → constraints → blacklists, the strongest
        vote per label with an equal-weight duplicate keeping the earlier
        rule, ``fired`` in that same order. A whitelist hit votes
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
            return _NOTHING_FIRED
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
