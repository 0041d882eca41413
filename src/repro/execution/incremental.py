"""Incremental execution: re-evaluate only the delta, not the world.

Section 4 poses rule maintenance under *churn* as an open problem: "when
rule R is modified ... re-run only what changed". Chimera never stops —
analysts add, refine, disable, and retire rules daily while vendor batches
keep arriving — yet a from-scratch executor recomputes the full
``rules × items`` fired map on every change. This module is the
materialized-view answer (the classic incremental view-maintenance trick;
see PAPERS.md on incremental view maintenance and DeepDive's incremental
KB construction):

* :class:`MatchStore` — the materialized fired map, a set of
  ``(rule_id, item_id)`` match pairs mirrored both ways, with per-rule and
  per-item generation counters recording how often each side was
  (re)computed, and a record of which rows moved since the last read;
* :class:`IncrementalExecutor` — wraps the store with a delta API
  (``add_rules`` / ``remove_rules`` / ``update_rule`` / ``add_items`` /
  ``remove_items`` / ``refresh``). Rule-side deltas consult the
  :class:`~repro.execution.data_index.DataIndex` for the candidate *rows*
  of just the changed rules, so a single-rule edit costs O(candidate items
  of that rule); item-side deltas run just the new items through the
  :class:`~repro.execution.compiler.CompiledRuleSet` kept in step with the
  rule base, so a batch arrival costs O(batch), not O(corpus).

Soundness rests on one anchor contract shared by both sides (any matching
item carries an anchor token of the rule in its probe alphabet): every
true match pair is inside the candidate set the delta re-evaluates, in
either arrival order, so the store always equals the truth table and
:meth:`IncrementalExecutor.fired_map` is byte-identical to a from-scratch
:class:`~repro.execution.executor.NaiveExecutor` run over the current
rules and items.

The store records matches for *all* tracked rules, enabled or not: a match
is a property of the rule's condition and the item, while ``enabled`` is a
view filter. Disabling a type (§2.2 scale-down) and restoring it are
therefore zero-evaluation deltas.

Reads cost what moved, not what is stored: every store mutator records the
item ids whose row it touched, and the executor patches its enabled view,
its pair count and its 256-bit set hash (:meth:`IncrementalExecutor.fired_fingerprint`)
over just those rows plus the columns of rules whose enabled flag flipped.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import DuplicateRuleError, UnknownRuleError
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet
from repro.execution.compiler import CompiledRuleSet
from repro.execution.data_index import DataIndex
from repro.execution.executor import ExecutionStats
from repro.observability import Observability, ensure_observability


class MatchStore:
    """Materialized fired map keyed by ``(rule_id, item_id)``.

    Pairs are mirrored in both directions (rule -> items, item -> rules) so
    either side of a delta can find exactly the entries it invalidates.
    ``generation`` bumps on every mutation; the per-rule / per-item
    counters record how many times that row/column has been (re)computed —
    the audit trail tests use to prove a delta did not touch the rest of
    the store. All three are process-local audit counters, not durable
    state: a resumed service rebuilds the pairs from its logs
    (:meth:`IncrementalExecutor.restore_items`) and the counters restart.

    Every mutator also notes what it moved, for readers that patch instead
    of recompute: the item ids whose row changed (:meth:`drain_touched`)
    and, per rule, how many new pairs were recorded
    (:meth:`drain_recorded`). Both are bounded by the live corpus / rule
    base and emptied by whoever consumes them.
    """

    def __init__(self) -> None:
        self._by_item: Dict[str, Set[str]] = {}
        self._by_rule: Dict[str, Set[str]] = {}
        self._rule_generation: Dict[str, int] = {}
        self._item_generation: Dict[str, int] = {}
        self.generation = 0
        self._touched: Set[str] = set()
        self._recorded: Dict[str, int] = {}

    def __len__(self) -> int:
        return sum(len(rules) for rules in self._by_item.values())

    @property
    def row_count(self) -> int:
        """Items holding at least one pair (O(1), unlike ``len``)."""
        return len(self._by_item)

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        rule_id, item_id = pair
        return item_id in self._by_rule.get(rule_id, ())

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """All stored ``(rule_id, item_id)`` pairs (unordered)."""
        for rule_id, item_ids in self._by_rule.items():
            for item_id in item_ids:
                yield (rule_id, item_id)

    def items_of_rule(self, rule_id: str) -> FrozenSet[str]:
        return frozenset(self._by_rule.get(rule_id, ()))

    def rules_of_item(self, item_id: str) -> FrozenSet[str]:
        return frozenset(self._by_item.get(item_id, ()))

    def rule_generation(self, rule_id: str) -> int:
        """How many times this rule's column has been (re)computed."""
        return self._rule_generation.get(rule_id, 0)

    def item_generation(self, item_id: str) -> int:
        """How many times this item's row has been (re)computed."""
        return self._item_generation.get(item_id, 0)

    # -- delta writes -------------------------------------------------------------

    def set_rule_matches(self, rule_id: str, item_ids: Iterable[str]) -> int:
        """Replace a rule's column wholesale; returns pairs invalidated."""
        new = set(item_ids)
        old = self._by_rule.get(rule_id, set())
        invalidated = len(old - new)
        for item_id in old - new:
            self._discard_pair(rule_id, item_id)
        for item_id in new - old:
            self._record_pair(rule_id, item_id)
        self._rule_generation[rule_id] = self._rule_generation.get(rule_id, 0) + 1
        self.generation += 1
        return invalidated

    def set_item_matches(self, item_id: str, rule_ids: Iterable[str]) -> int:
        """Replace an item's row wholesale; returns pairs invalidated."""
        new = set(rule_ids)
        old = self._by_item.get(item_id, set())
        invalidated = len(old - new)
        for rule_id in old - new:
            self._discard_pair(rule_id, item_id)
        for rule_id in new - old:
            self._record_pair(rule_id, item_id)
        self._item_generation[item_id] = self._item_generation.get(item_id, 0) + 1
        self.generation += 1
        return invalidated

    def discard_rule(self, rule_id: str) -> int:
        """Drop every pair of a retired rule; returns pairs invalidated."""
        item_ids = self._by_rule.pop(rule_id, set())
        for item_id in item_ids:
            row = self._by_item.get(item_id)
            if row is not None:
                row.discard(rule_id)
                if not row:
                    del self._by_item[item_id]
        self._touched |= item_ids
        self._rule_generation.pop(rule_id, None)
        self.generation += 1
        return len(item_ids)

    def discard_item(self, item_id: str) -> int:
        """Drop every pair of a removed item; returns pairs invalidated."""
        rule_ids = self._by_item.pop(item_id, set())
        for rule_id in rule_ids:
            column = self._by_rule.get(rule_id)
            if column is not None:
                column.discard(item_id)
                if not column:
                    del self._by_rule[rule_id]
        if rule_ids:
            self._touched.add(item_id)
        self._item_generation.pop(item_id, None)
        self.generation += 1
        return len(rule_ids)

    def clear(self) -> int:
        """Drop everything (full refresh); returns pairs invalidated."""
        invalidated = len(self)
        self._touched.update(self._by_item)
        self._by_item.clear()
        self._by_rule.clear()
        self.generation += 1
        return invalidated

    def _record_pair(self, rule_id: str, item_id: str) -> None:
        self._by_rule.setdefault(rule_id, set()).add(item_id)
        self._by_item.setdefault(item_id, set()).add(rule_id)
        self._touched.add(item_id)
        self._recorded[rule_id] = self._recorded.get(rule_id, 0) + 1

    def _discard_pair(self, rule_id: str, item_id: str) -> None:
        self._touched.add(item_id)
        column = self._by_rule.get(rule_id)
        if column is not None:
            column.discard(item_id)
            if not column:
                del self._by_rule[rule_id]
        row = self._by_item.get(item_id)
        if row is not None:
            row.discard(rule_id)
            if not row:
                del self._by_item[item_id]

    # -- what moved since the last read -------------------------------------------

    def drain_touched(self) -> Set[str]:
        """Item ids whose row changed since the last call (then forgotten)."""
        touched, self._touched = self._touched, set()
        return touched

    def drain_recorded(self) -> Dict[str, int]:
        """rule_id -> pairs newly recorded since the last call (then
        forgotten): each ``(rule, item)`` pair counts once, when it enters
        the store, whichever side of the delta brought it."""
        recorded, self._recorded = self._recorded, {}
        return recorded


_FINGERPRINT_MODULUS = 1 << 256


def _row_hash(item_id: str, rule_ids: List[str]) -> int:
    """One fired-map row as a 256-bit integer: sha256 over the canonical
    JSON of ``[item_id, sorted enabled rule ids]``."""
    payload = json.dumps([item_id, rule_ids], separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest(), "big")


class IncrementalExecutor:
    """Delta-maintained executor: same fired map, a fraction of the work.

    Holds the live corpus in a mutable :class:`DataIndex` — the one table
    of served items, each row its prepared view, entered only through
    :meth:`_admit` — the live rule base lowered into a
    :class:`CompiledRuleSet`, and the materialized matches in a
    :class:`MatchStore`; the delta API keeps all three consistent.

    ``stats`` accumulates the lifetime ledger (every delta op also returns
    its own :class:`ExecutionStats`): ``delta_rules`` / ``delta_items``
    count what the delta path re-evaluated, ``invalidations`` counts
    stored pairs dropped as stale, and ``cache_hits`` / ``cache_misses``
    count fired-map reads served without / with a new copy. An op is
    booked there, on the metrics registry and on a span; nothing grows
    per op.

    Evaluation is fail-fast: a raising rule/record propagates (wrap inputs
    upstream; the degraded modes live on the batch executors).

    The *item-side* delta (the hot path — every arriving batch) runs
    through the compiled rule set: rule churn patches only the lanes the
    rule occupies (no full recompile), riding the same generation-counter
    discipline as the match store. The artifact is compiled with
    ``include_disabled=True`` because the store records condition-truth
    for disabled rules too. Rule-side deltas (one changed rule over its
    candidate rows) call the rule's own ``matches_prepared`` — they are
    O(one rule) and gain nothing from lowering.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        items: Iterable[ItemLike] = (),
        token_frequency: Optional[Dict[str, int]] = None,
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.observability = ensure_observability(observability)
        self._clock = clock if clock is not None else time.perf_counter
        self._rules: Dict[str, Rule] = {}
        self._data_index = DataIndex()
        self._compiled = CompiledRuleSet(
            (), token_frequency=token_frequency, include_disabled=True
        )
        self.store = MatchStore()
        self.stats = ExecutionStats()
        # The enabled view, patched in place by _sync(): item id -> sorted
        # enabled rule ids, non-empty rows only, item ids ascending unless
        # _view_sorted is False. Row lists are replaced, never edited, so
        # a dict handed out by fired_map() can share them.
        self._view: Dict[str, List[str]] = {}
        self._view_sorted = True
        self._view_enabled: FrozenSet[str] = frozenset()
        self._fired_pairs = 0
        self._fingerprint = 0
        # The last dict fired_map() returned, while the view still equals it.
        self._snapshot: Optional[Dict[str, List[str]]] = None
        self._unsubscribes: List[Callable[[], None]] = []
        if rules:
            self.add_rules(rules)
        if items:
            self.add_items(items)

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def for_ruleset(
        cls,
        ruleset: RuleSet,
        items: Iterable[ItemLike] = (),
        **kwargs,
    ) -> "IncrementalExecutor":
        """Build over a :class:`RuleSet` and subscribe to its churn.

        Every subsequent ``add`` / ``remove`` / ``replace`` on the rule set
        — including :meth:`~repro.core.ruleset.RuleSet.disable_type` from
        the §2.2 scale-down playbook and the repair rules analysts add —
        flows into this executor as a delta automatically.
        """
        executor = cls(rules=list(ruleset), items=items, **kwargs)
        executor.attach_ruleset(ruleset)
        return executor

    def attach_ruleset(self, ruleset: RuleSet) -> Callable[[], None]:
        """Subscribe to ``ruleset`` mutations; returns the unsubscribe."""

        def on_event(event: str, rule: Rule) -> None:
            if event == "added":
                self.add_rules([rule])
            elif event == "removed":
                self.remove_rules([rule.rule_id])
            elif event == "replaced":
                self.update_rule(rule)
            elif event in ("enabled", "disabled"):
                # No recompute: stored matches are condition-truth; the
                # next read's enabled-set comparison sees the flip. Rule sets own
                # their rule copies, so mirror the flag onto our tracked
                # object when the executor was built from different ones.
                tracked = self._rules.get(rule.rule_id)
                if tracked is not None and tracked is not rule:
                    tracked.enabled = rule.enabled

        unsubscribe = ruleset.subscribe(on_event)
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def follow_batches(self, stream) -> Callable[[], None]:
        """Subscribe to a :class:`~repro.catalog.batches.BatchStream` so
        every arriving vendor batch lands as an ``add_items`` delta."""
        unsubscribe = stream.subscribe(lambda batch: self.add_items(batch.items))
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def on_detach(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when :meth:`detach` ends this executor's
        subscriptions — how a reader of its rows learns they stop being
        maintained."""
        self._unsubscribes.append(callback)

    def detach(self) -> None:
        """Drop every subscription taken out by this executor."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def item_count(self) -> int:
        return len(self._data_index)

    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    # -- delta API ----------------------------------------------------------------

    def add_items(self, items: Iterable[ItemLike]) -> ExecutionStats:
        """Fold a batch arrival in: O(batch × candidate rules), not O(corpus).

        An item_id already tracked is treated as a re-listing: its old row
        is invalidated and the item is re-evaluated from scratch.
        """
        op = ExecutionStats()
        items = list(items)
        with self.observability.span("exec.incremental.add_items", items=len(items)):
            started = self._clock()
            for item in items:
                self._admit(item, op)
            return self._finish("add_items", op, started)

    def _admit(self, item: ItemLike, op: ExecutionStats) -> None:
        """The one way into the corpus: prepare and warm ``item``, drop
        the row a re-listing replaces (its stored matches must not
        survive), index it, evaluate it once and write its row. The work
        is booked on ``op`` and nowhere else."""
        prepare_started = self._clock()
        prepared = prepare(item).warm()
        op.prepare_time += self._clock() - prepare_started
        item_id = prepared.item_id
        if item_id in self._data_index:
            op.invalidations += self.store.discard_item(item_id)
        self._data_index.add(prepared)
        hits, n_evaluated = self._compiled.match_item(prepared)
        op.rule_evaluations += n_evaluated
        op.invalidations += self.store.set_item_matches(item_id, hits)
        op.matches += len(hits)
        op.items += 1
        op.delta_items += 1

    def remove_items(self, item_ids: Iterable[str]) -> ExecutionStats:
        """Drop departed items; cost is O(their stored matches)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.remove_items"):
            started = self._clock()
            for item_id in item_ids:
                if self._data_index.remove(item_id):
                    op.invalidations += self.store.discard_item(item_id)
                    op.delta_items += 1
            return self._finish("remove_items", op, started)

    def add_rules(self, rules: Iterable[Rule]) -> ExecutionStats:
        """Fold new rules in: O(candidate rows of each rule), not O(catalog)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.add_rules"):
            started = self._clock()
            for rule in rules:
                if rule.rule_id in self._rules:
                    raise DuplicateRuleError(
                        f"rule {rule.rule_id!r} already tracked; use update_rule"
                    )
                self._rules[rule.rule_id] = rule
                self._compiled.add_rule(rule)
                self._evaluate_rule(rule, op)
                op.delta_rules += 1
            return self._finish("add_rules", op, started)

    def remove_rules(self, rule_ids: Iterable[str]) -> ExecutionStats:
        """Retire rules; cost is O(their postings + stored matches)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.remove_rules"):
            started = self._clock()
            for rule_id in rule_ids:
                if rule_id not in self._rules:
                    raise UnknownRuleError(rule_id)
                del self._rules[rule_id]
                self._compiled.remove_rule(rule_id)
                op.invalidations += self.store.discard_rule(rule_id)
                op.delta_rules += 1
            return self._finish("remove_rules", op, started)

    def update_rule(self, rule: Rule) -> ExecutionStats:
        """An analyst edited ``rule`` (same rule_id, new condition).

        The rule's column is recomputed over the *new* condition's
        candidate rows; stale pairs the new condition no longer proves are
        invalidated. Everything else in the store is untouched.
        """
        op = ExecutionStats()
        with self.observability.span(
            "exec.incremental.update_rule", rule_id=rule.rule_id
        ):
            started = self._clock()
            if rule.rule_id not in self._rules:
                raise UnknownRuleError(rule.rule_id)
            self._rules[rule.rule_id] = rule
            self._compiled.remove_rule(rule.rule_id)
            self._compiled.add_rule(rule)
            self._evaluate_rule(rule, op)
            op.delta_rules += 1
            return self._finish("update_rule", op, started)

    def refresh(self) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Rebuild the store from scratch (escape hatch / initial load).

        Returns ``(fired map, op stats)``; the op's ``invalidations`` is
        the size of the store it threw away.
        """
        op = ExecutionStats()
        with self.observability.span("exec.incremental.refresh"):
            started = self._clock()
            op.invalidations += self.store.clear()
            for _row, prepared in self._data_index.live_rows():
                hits, n_evaluated = self._compiled.match_item(prepared)
                op.rule_evaluations += n_evaluated
                self.store.set_item_matches(prepared.item_id, hits)
                op.matches += len(hits)
                op.items += 1
                op.delta_items += 1
            op.delta_rules += len(self._rules)
            self._finish("refresh", op, started)
        return self.fired_map(), op

    # -- resume -------------------------------------------------------------------

    def restore_items(self, items: Iterable[ItemLike]) -> int:
        """Re-derive the view over previously-admitted items, silently.

        The resume half of :meth:`add_items`: each item goes through
        :meth:`_admit` against the current rule base — but ``stats``,
        metrics and spans see nothing, because an uninterrupted run
        observed these items once already. Consumes ``items`` lazily;
        returns how many it admitted.
        """
        unbooked = ExecutionStats()
        for item in items:
            self._admit(item, unbooked)
        self.store.drain_recorded()
        return unbooked.items

    # -- reads --------------------------------------------------------------------

    def _enabled_ids(self) -> FrozenSet[str]:
        return frozenset(
            rule_id for rule_id, rule in self._rules.items() if rule.enabled
        )

    def _sync(self) -> None:
        """Bring the enabled view, its pair count and its fingerprint up
        to the store: O(rules) for the enabled-set comparison (so a silent
        ``rule.enabled = ...`` is seen) plus O(rows touched since the last
        read + columns of rules whose flag differs from that read)."""
        enabled = self._enabled_ids()
        touched = self.store.drain_touched()
        if enabled != self._view_enabled:
            for rule_id in enabled ^ self._view_enabled:
                touched |= self.store.items_of_rule(rule_id)
            self._view_enabled = enabled
        if not touched:
            return
        view = self._view
        fingerprint = self._fingerprint
        for item_id in sorted(touched):
            old = view.get(item_id)
            new = sorted(self.store.rules_of_item(item_id) & enabled)
            if new == (old or []):
                continue
            self._snapshot = None
            if old:
                fingerprint -= _row_hash(item_id, old)
                self._fired_pairs -= len(old)
            if new:
                fingerprint += _row_hash(item_id, new)
                self._fired_pairs += len(new)
                if old is None and view and item_id < next(reversed(view)):
                    self._view_sorted = False
                view[item_id] = new
            else:
                del view[item_id]
        self._fingerprint = fingerprint % _FINGERPRINT_MODULUS

    def fired_map(self) -> Dict[str, List[str]]:
        """The current materialized fired map (enabled rules only).

        Byte-identical (canonical JSON) to
        ``NaiveExecutor(rules).run(items)[0]`` over the executor's
        current rules and items, item ids ascending. Costs :meth:`_sync`
        plus, when a row moved since the last call, one C-level copy of
        the view (and one C-level sort if an item id arrived below the
        largest one held); otherwise the previous dict is returned again.
        A returned dict is never changed afterwards. Feeds no metric.
        """
        self._sync()
        if self._snapshot is not None:
            self.stats.cache_hits += 1
            return self._snapshot
        self.stats.cache_misses += 1
        if not self._view_sorted:
            self._view = dict(sorted(self._view.items()))
            self._view_sorted = True
        self._snapshot = dict(self._view)
        return self._snapshot

    def fired_fingerprint(self) -> str:
        """64 hex digits standing for the whole of :meth:`fired_map`: the
        sum mod 2**256 of :func:`_row_hash` over its rows. Additive, so it
        is patched row by row and never recomputed. Equal maps give equal
        fingerprints and maps that diverged by accident differ with
        probability 1 - 2**-256: a divergence check between honest runs,
        not a defence against a forger (additive hashes admit
        generalised-birthday collisions).
        """
        self._sync()
        return f"{self._fingerprint:064x}"

    @property
    def fired_pairs(self) -> int:
        """Number of ``(enabled rule, item)`` pairs in :meth:`fired_map`."""
        self._sync()
        return self._fired_pairs

    def match_row(self, item: ItemLike) -> Iterable[str]:
        """Ids of the tracked rules — enabled or not, unordered — whose
        condition holds on ``item``: the input of
        :meth:`~repro.core.ruleset.RuleSet.fold`.

        When the store holds this very record the answer is the row
        ``add_items`` wrote on arrival, kept current by every rule delta
        since: a read, no evaluation. Any other record — never admitted,
        re-listed since under its id, or shadowed by a duplicate id later
        in its batch — is evaluated through the same compiled rule set and
        leaves the store untouched; those evaluations are counted on
        ``stats.rule_evaluations``.
        """
        if self.admitted(item) is not None:
            return self.store.rules_of_item(item.item_id)
        hits, n_evaluated = self._compiled.match_item(item)
        self.stats.rule_evaluations += n_evaluated
        return hits

    def admitted(self, item: ItemLike) -> Optional[PreparedItem]:
        """The prepared view the corpus holds for ``item`` when this very
        record — by identity or by value — is the row under its id; None
        for a record never admitted, removed, or re-listed since with
        different content."""
        record = item.item if isinstance(item, PreparedItem) else item
        held = self._data_index.get(record.item_id)
        if held is not None and (held.item is record or held.item == record):
            return held
        return None

    def fired_for_item(self, item_id: str) -> List[str]:
        """Sorted enabled rule ids currently firing on one item."""
        return sorted(
            rule_id
            for rule_id in self.store.rules_of_item(item_id)
            if self._rules[rule_id].enabled
        )

    def fired_for_rule(self, rule_id: str) -> List[str]:
        """Sorted item ids one rule currently fires on (enabled or not)."""
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        return sorted(self.store.items_of_rule(rule_id))

    # -- internals ----------------------------------------------------------------

    def _evaluate_rule(self, rule: Rule, op: ExecutionStats) -> None:
        """Recompute one rule's column over its DataIndex candidate rows."""
        matched: List[str] = []
        for row in self._data_index.candidate_rows(rule):
            prepared = self._data_index.prepared_at(row)
            op.rule_evaluations += 1
            if rule.matches_prepared(prepared):
                matched.append(prepared.item_id)
        op.invalidations += self.store.set_rule_matches(rule.rule_id, matched)
        op.matches += len(matched)

    def _finish(
        self, op_name: str, op: ExecutionStats, started: float
    ) -> ExecutionStats:
        op.wall_time = self._clock() - started
        op.match_time = max(0.0, op.wall_time - op.prepare_time)
        # Serial composition: each delta op ran after the previous one, so
        # the lifetime ledger's wall clock is the sum of op walls.
        self.stats.merge(op, wall="sum")
        obs = self.observability
        recorded = self.store.drain_recorded()
        if obs.enabled:
            obs.observe_execution(op, executor="incremental")
            obs.metrics.counter("incremental_ops_total", op=op_name).inc()
            obs.metrics.observe_rule_fires(recorded)
        return op
