"""Incremental execution: re-evaluate only the delta, not the world.

Section 4 poses rule maintenance under *churn* as an open problem: "when
rule R is modified ... re-run only what changed". Chimera never stops —
analysts add, refine, disable, and retire rules daily while vendor batches
keep arriving — yet a from-scratch executor recomputes the full
``rules × items`` fired map on every change. This module is the
materialized-view answer (the classic incremental view-maintenance trick;
see PAPERS.md on incremental view maintenance and DeepDive's incremental
KB construction):

* :class:`MatchStore` — the materialized fired map, the
  ``(rule_id, row)`` match pairs held as columns indexed by corpus row
  (one shared ``frozenset`` of rule ids per row, one ascending
  ``array('i')`` of rows per rule), with per-rule generation counters
  recording how often a column was (re)computed, and a record of which
  rows moved since the last read;
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

The corpus row number is the engine's item key: the executor is the only
code that translates between item ids and rows. The corpus holds what
rules read (id, title, tokens; attributes once an attribute or value rule
is tracked): an arriving item is evaluated with its record in hand, then a
record source keeps the record — RAM by default, the batch journal in the
daemon — for the few paths that read it back.

Reads cost what moved, not what is stored: every store mutator records the
rows it touched, and the executor patches its pair count, its 256-bit set
hash (:meth:`IncrementalExecutor.fired_fingerprint`) and, once a read built
it, its enabled view over just those rows plus the columns of rules whose
enabled flag flipped.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from bisect import bisect_left, insort
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

from repro.catalog.types import ProductItem
from repro.core.errors import DuplicateRuleError, UnknownRuleError
from repro.core.prepared import ItemLike, PreparedItem
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet
from repro.execution.compiler import CompiledRuleSet
from repro.execution.data_index import DataIndex
from repro.execution.executor import ExecutionStats
from repro.observability import Observability, ensure_observability


_NO_RULES: FrozenSet[str] = frozenset()
_NO_ROWS = array("i")


class MemoryRecords:
    """The default record source: every live row's record, in RAM. A source
    is told each admitted row (ascending) and each released one, hands back
    ascending rows' records in order, and counts in ``held`` those in RAM."""

    def __init__(self) -> None:
        self._by_row: List[Optional[ProductItem]] = []
        self.held = 0

    def admit(self, row: int, record: ProductItem) -> None:
        self._by_row.append(record)
        self.held += 1

    def release(self, row: int) -> None:
        self._by_row[row] = None
        self.held -= 1

    def records(self, rows: Sequence[int]) -> Iterator[ProductItem]:
        return map(self._by_row.__getitem__, rows)


class _SharedRows:
    """One canonical object per distinct row value, counted by holders.

    :meth:`hold` returns the held object equal to ``key`` (making
    ``build(key)``, or ``key`` itself, that object when none is) and
    counts one more holder; :meth:`release` counts one fewer and forgets
    the row with its last holder. The table is therefore exactly the
    distinct rows some item holds, however rows churn.
    """

    __slots__ = ("_rows", "_holders")

    def __init__(self) -> None:
        self._rows: Dict[FrozenSet[str], object] = {}
        self._holders: Dict[FrozenSet[str], int] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def hold(self, key: FrozenSet[str], build: Optional[Callable] = None) -> object:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = key if build is None else build(key)
            self._holders[key] = 1
        else:
            self._holders[key] += 1
        return row

    def release(self, key: FrozenSet[str]) -> None:
        left = self._holders[key] - 1
        if left:
            self._holders[key] = left
        else:
            del self._holders[key]
            del self._rows[key]


class MatchStore:
    """Materialized fired map: the ``(rule_id, row)`` pairs whose rule
    condition holds on the corpus row, as columns indexed by row.

    ``_by_row[row]`` is the row's rule ids, an immutable ``frozenset``
    shared by every row equal to it (a few hundred distinct rows for the
    daemon's tens of thousands of items); ``_by_rule[rule_id]`` is the
    rule's column, an ascending ``array('i')`` of rows. Mutators replace
    row sets and never edit them, so :meth:`rules_of_row` hands one out
    without copying; a column is edited in place, so only the batch loop's
    thread may mutate the store. ``generation`` bumps on every mutation
    and the per-rule counter records how many times a column has been
    (re)computed — audit counters tests read to prove a delta did not
    touch the rest of the store, process-local, not durable: a resumed
    service rebuilds the pairs from its logs
    (:meth:`IncrementalExecutor.restore_items`) and the counters restart.

    Every mutator also notes what it moved, for readers that patch instead
    of recompute: the rows whose rule set changed (:meth:`drain_touched`)
    and, per rule, how many new pairs were recorded
    (:meth:`drain_recorded`). Both are bounded by the live corpus / rule
    base and emptied by whoever consumes them.
    """

    def __init__(self) -> None:
        self._by_row: List[FrozenSet[str]] = []
        self._by_rule: Dict[str, array] = {}
        self._rows = _SharedRows()
        self._held = 0
        self._rule_generation: Dict[str, int] = {}
        self.generation = 0
        self._touched: Dict[int, FrozenSet[str]] = {}
        self._recorded: Dict[str, int] = {}

    def __len__(self) -> int:
        return sum(map(len, self._by_rule.values()))

    @property
    def row_count(self) -> int:
        """Rows holding at least one pair (O(1), unlike ``len``)."""
        return self._held

    @property
    def shared_rows(self) -> int:
        """Distinct rows held, one object each (O(1))."""
        return len(self._rows)

    def __contains__(self, pair: Tuple[str, int]) -> bool:
        rule_id, row = pair
        return rule_id in self.rules_of_row(row)

    def pairs(self) -> Iterator[Tuple[str, int]]:
        """All stored ``(rule_id, row)`` pairs (rules unordered)."""
        for rule_id, rows in self._by_rule.items():
            for row in rows:
                yield (rule_id, row)

    def rows_of_rule(self, rule_id: str) -> array:
        """The rule's column, ascending: the array itself, not a copy."""
        return self._by_rule.get(rule_id, _NO_ROWS)

    def rules_of_row(self, row: int) -> FrozenSet[str]:
        """The row's rule ids (shared and immutable, so not copied)."""
        by_row = self._by_row
        return by_row[row] if row < len(by_row) else _NO_RULES

    def rule_generation(self, rule_id: str) -> int:
        """How many times this rule's column has been (re)computed."""
        return self._rule_generation.get(rule_id, 0)

    # -- delta writes -------------------------------------------------------------

    def set_rule_matches(self, rule_id: str, rows: Iterable[int]) -> int:
        """Replace a rule's column wholesale; returns pairs invalidated."""
        new = set(rows)
        column = array("i", sorted(new))
        old = set(self._by_rule.pop(rule_id, _NO_ROWS))
        gone, came = old - new, new - old
        drop = {rule_id}
        for row in gone:
            self._set_row(row, self._by_row[row] - drop)
        for row in came:
            self._set_row(row, self.rules_of_row(row) | drop)
        if column:
            self._by_rule[rule_id] = column
        if came:
            self._recorded[rule_id] = self._recorded.get(rule_id, 0) + len(came)
        self._rule_generation[rule_id] = self._rule_generation.get(rule_id, 0) + 1
        self.generation += 1
        return len(gone)

    def set_item_matches(self, row: int, rule_ids: Iterable[str]) -> int:
        """Replace a row's rule set wholesale; returns pairs invalidated."""
        new = frozenset(rule_ids)
        old = self.rules_of_row(row)
        invalidated = len(old - new)
        if new != old:
            for rule_id in old - new:
                self._column_discard(rule_id, row)
            for rule_id in new - old:
                self._column_add(rule_id, row)
            self._set_row(row, new)
        self.generation += 1
        return invalidated

    def discard_rule(self, rule_id: str) -> int:
        """Drop every pair of a retired rule; returns pairs invalidated."""
        column = self._by_rule.pop(rule_id, _NO_ROWS)
        drop = {rule_id}
        for row in column:
            self._set_row(row, self._by_row[row] - drop)
        self._rule_generation.pop(rule_id, None)
        self.generation += 1
        return len(column)

    def discard_item(self, row: int) -> int:
        """Drop every pair of a removed row; returns pairs invalidated."""
        rule_ids = self.rules_of_row(row)
        if rule_ids:
            for rule_id in rule_ids:
                self._column_discard(rule_id, row)
            self._set_row(row, _NO_RULES)
        self.generation += 1
        return len(rule_ids)

    def _set_row(self, row: int, rule_ids: FrozenSet[str]) -> None:
        """Point ``row`` at the shared set equal to ``rule_ids`` (the empty
        one when empty), note the set it held as touched, and release it."""
        by_row = self._by_row
        if row >= len(by_row):
            if not rule_ids:
                return
            by_row.extend([_NO_RULES] * (row + 1 - len(by_row)))
        old = by_row[row]
        self._touched.setdefault(row, old)
        by_row[row] = self._rows.hold(rule_ids) if rule_ids else _NO_RULES
        if old:
            self._rows.release(old)
        self._held += bool(rule_ids) - bool(old)

    def _column_add(self, rule_id: str, row: int) -> None:
        # Admission's rows arrive ascending, so this is an append there.
        column = self._by_rule.get(rule_id)
        if column is None:
            self._by_rule[rule_id] = array("i", (row,))
        else:
            insort(column, row)
        self._recorded[rule_id] = self._recorded.get(rule_id, 0) + 1

    def _column_discard(self, rule_id: str, row: int) -> None:
        column = self._by_rule[rule_id]
        del column[bisect_left(column, row)]
        if not column:
            del self._by_rule[rule_id]

    # -- what moved since the last read -------------------------------------------

    def drain_touched(self) -> Dict[int, FrozenSet[str]]:
        """``{row: its set before the first change}`` since the last call."""
        touched, self._touched = self._touched, {}
        return touched

    def drain_recorded(self) -> Dict[str, int]:
        """rule_id -> pairs newly recorded since the last call (then
        forgotten): each ``(rule, row)`` pair counts once, when it enters
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

    Holds the live corpus in a mutable :class:`DataIndex` (columns by
    row, no records, entered only through :meth:`_admit`; ``records`` is
    the record source, :class:`MemoryRecords` by default), the live rule
    base lowered into a :class:`CompiledRuleSet`, and the materialized
    matches in a :class:`MatchStore` keyed by the same rows; the delta API
    keeps them consistent and translates item ids to rows. A Chimera
    pipeline holds one over its four rule sets (``Chimera.engine``).

    ``stats`` accumulates the lifetime ledger (every delta op also returns
    its own :class:`ExecutionStats`): ``delta_rules`` / ``delta_items``
    count what the delta path re-evaluated, ``invalidations`` counts
    stored pairs dropped as stale, and ``cache_hits`` / ``cache_misses``
    count fired-map reads served without / with a new copy. An op is
    booked there, on the metrics registry and on a span; nothing grows
    per op.

    Evaluation is fail-fast: a raising rule/record propagates (wrap inputs
    upstream; the one degraded mode is the sharded executor's shard skip).

    The *item-side* delta (the hot path — every arriving batch) runs
    through the compiled rule set: rule churn patches only the lanes the
    rule occupies (no full recompile), riding the same generation-counter
    discipline as the match store. The artifact lowers every rule,
    disabled ones too, because the store records condition-truth and
    filters ``enabled`` at read time. Rule-side deltas (one changed rule
    over its candidate rows) call the rule's own ``matches_prepared`` —
    they are O(one rule) and gain nothing from lowering.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        items: Iterable[ItemLike] = (),
        observability: Optional[Observability] = None,
    ):
        self.observability = ensure_observability(observability)
        self._rules: Dict[str, Rule] = {}
        self._data_index = DataIndex()
        self._records = MemoryRecords()
        # The last add_items batch by id (a later duplicate wins), for admitted().
        self._arrived: Dict[str, ProductItem] = {}
        self._compiled = CompiledRuleSet()
        self.store = MatchStore()
        self.stats = ExecutionStats()
        # The enabled view, None until fired_map() builds it, then patched
        # in place by _sync(): item id -> sorted enabled rule ids, non-empty
        # rows only, item ids ascending unless _view_sorted is False. Row
        # lists are replaced, never edited, so a dict handed out by
        # fired_map() can share them, and so can items: _view_rows holds
        # one list per distinct row.
        self._view: Optional[Dict[str, List[str]]] = None
        self._view_rows = _SharedRows()
        self._view_sorted = True
        self._synced_enabled: FrozenSet[str] = frozenset()
        self._fired_pairs = 0
        self._fingerprint = 0
        # The last dict fired_map() returned, while the view still equals it.
        self._snapshot: Optional[Dict[str, List[str]]] = None
        # Rules added with in_view=False: tracked, but not in the view.
        self._outside: Set[str] = set()
        self._unsubscribes: List[Callable[[], None]] = []
        if rules:
            self.add_rules(rules)
        if items:
            self.add_items(items)

    # -- construction helpers -----------------------------------------------------

    def attach_ruleset(self, ruleset: RuleSet, in_view: bool = True) -> Callable[[], None]:
        """Track ``ruleset``: add its rules, then take every mutation —
        :meth:`~repro.core.ruleset.RuleSet.disable_type` from the §2.2
        scale-down playbook and analysts' repair rules included — as a
        delta; returns the unsubscribe. With ``in_view=False`` its rules
        keep rows and columns (:attr:`store`, :meth:`fired_for_rule`)
        but stay out of :meth:`fired_map` and everything derived from it."""
        if ruleset:
            self.add_rules(ruleset, in_view)

        def on_event(event: str, payload) -> None:
            # enabled/disabled need nothing: the store records
            # condition-truth, the rules tracked are the set's own objects,
            # and the next read's enabled-set comparison sees the flip.
            if event == "extended":  # a deployed rule set: one delta
                self.add_rules(payload, in_view)
            elif event == "added":
                self.add_rules([payload], in_view)
            elif event == "removed":
                self.remove_rules([payload.rule_id])
            elif event == "replaced":
                self.update_rule(payload)

        unsubscribe = ruleset.subscribe(on_event)
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def use_records(self, records) -> None:
        """Hand arriving records to ``records``; call before the first."""
        self._records = records

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

    @property
    def dead_postings(self) -> int:
        """Posting entries the corpus index still holds for removed
        items (O(1))."""
        return self._data_index.dead_postings

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
        self._arrived = {}
        with self.observability.span("exec.incremental.add_items", items=len(items)):
            started = time.perf_counter()
            for item in items:
                record = self._admit(item, op)
                self._arrived[record.item_id] = record
            return self._finish("add_items", op, started)

    def _admit(self, item: ItemLike, op: ExecutionStats) -> ProductItem:
        """The one way into the corpus: drop the row a re-listing replaces
        (its stored matches must not survive), index the item in a new row
        (its title tokenized there, once), evaluate the row's view over the
        record in hand, write the row's matches and hand the record to the
        source. The work is booked on ``op`` only."""
        index = self._data_index
        record = item.item if isinstance(item, PreparedItem) else item
        item_id = record.item_id
        self._arrived.pop(item_id, None)
        replaced = index.remove(item_id)
        if replaced is not None:
            self._records.release(replaced)
            op.invalidations += self.store.discard_item(replaced)
        prepare_started = time.perf_counter()
        row = index.add(record)
        op.prepare_time += time.perf_counter() - prepare_started
        self._records.admit(row, record)
        hits, n_evaluated = self._compiled.match_item(index.view(row, record))
        op.rule_evaluations += n_evaluated
        op.invalidations += self.store.set_item_matches(row, hits)
        op.matches += len(hits)
        op.items += 1
        op.delta_items += 1
        return record

    def remove_items(self, item_ids: Iterable[str]) -> ExecutionStats:
        """Drop departed items; cost is O(their stored matches)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.remove_items"):
            started = time.perf_counter()
            for item_id in item_ids:
                row = self._data_index.remove(item_id)
                if row is not None:
                    self._records.release(row)
                    op.invalidations += self.store.discard_item(row)
                    op.delta_items += 1
            return self._finish("remove_items", op, started)

    def add_rules(self, rules: Iterable[Rule], in_view: bool = True) -> ExecutionStats:
        """Fold new rules in: O(candidate rows of each rule), not O(catalog);
        ``in_view``: see :meth:`attach_ruleset`."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.add_rules"):
            started = time.perf_counter()
            for rule in rules:
                if rule.rule_id in self._rules:
                    raise DuplicateRuleError(
                        f"rule {rule.rule_id!r} already tracked; use update_rule"
                    )
                self._rules[rule.rule_id] = rule
                if not in_view:
                    self._outside.add(rule.rule_id)
                self._compiled.add_rule(rule)
                self._hold_attributes()
                self._evaluate_rule(rule, op)
                op.delta_rules += 1
            return self._finish("add_rules", op, started)

    def remove_rules(self, rule_ids: Iterable[str]) -> ExecutionStats:
        """Retire rules; cost is O(their postings + stored matches)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.remove_rules"):
            started = time.perf_counter()
            for rule_id in rule_ids:
                if rule_id not in self._rules:
                    raise UnknownRuleError(rule_id)
                del self._rules[rule_id]
                self._outside.discard(rule_id)
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
            started = time.perf_counter()
            if rule.rule_id not in self._rules:
                raise UnknownRuleError(rule.rule_id)
            self._rules[rule.rule_id] = rule
            self._compiled.remove_rule(rule.rule_id)
            self._compiled.add_rule(rule)
            self._hold_attributes()
            self._evaluate_rule(rule, op)
            op.delta_rules += 1
            return self._finish("update_rule", op, started)

    def refresh(self) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Re-evaluate every row from scratch over its record, read back in
        one pass (escape hatch / initial load), and rewrite each row whose
        matches differ; only pairs the store did not hold count as fired.

        Returns ``(fired map, op stats)``; the op's ``invalidations`` is
        the size of the store it re-derived.
        """
        op = ExecutionStats()
        with self.observability.span("exec.incremental.refresh"):
            started = time.perf_counter()
            op.invalidations += len(self.store)
            rows = self._data_index.live_rows()
            for row, view in zip(rows, self._views(rows, True)):
                hits, n_evaluated = self._compiled.match_item(view)
                op.rule_evaluations += n_evaluated
                self.store.set_item_matches(row, hits)
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
        outside = self._outside
        return frozenset(
            rule_id for rule_id, rule in self._rules.items()
            if rule.enabled and rule_id not in outside
        )

    def _sync(self) -> None:
        """Bring the pair count, the fingerprint and (once built) the
        enabled view up to the store: O(rules) for the enabled-set
        comparison (so a ``rule.enabled = ...`` on a bare rule is seen)
        plus O(rows touched since the last read + columns of rules whose
        flag differs from that read), each row from its value then to now."""
        was, enabled = self._synced_enabled, self._enabled_ids()
        store = self.store
        touched = store.drain_touched()
        rules_of_row = store.rules_of_row
        if enabled != was:
            for rule_id in enabled ^ was:
                for row in store.rows_of_rule(rule_id):
                    if row not in touched:
                        touched[row] = rules_of_row(row)
            self._synced_enabled = enabled
        view, shared = self._view, self._view_rows
        fingerprint, ids = self._fingerprint, self._data_index.ids
        # Ascending rows: a re-listed id's tombstoned row comes before the
        # row that replaced it.
        for row in sorted(touched):
            old_key = touched[row] & was
            key = rules_of_row(row) & enabled
            if key == old_key:
                continue
            item_id = ids[row]
            if old_key:
                fingerprint -= _row_hash(item_id, sorted(old_key))
                self._fired_pairs -= len(old_key)
            if key:
                fingerprint += _row_hash(item_id, sorted(key))
                self._fired_pairs += len(key)
            if view is None:
                continue
            self._snapshot = None
            if old_key:
                shared.release(old_key)
            if key:
                if not old_key and view and item_id < next(reversed(view)):
                    self._view_sorted = False
                view[item_id] = shared.hold(key, sorted)
            else:
                del view[item_id]
        self._fingerprint = fingerprint % _FINGERPRINT_MODULUS

    def fired_map(self) -> Dict[str, List[str]]:
        """The current materialized fired map (enabled rules in view only).

        Byte-identical (canonical JSON) to
        ``NaiveExecutor(rules).run(items)[0]`` over the executor's
        current rules and items, item ids ascending. Costs :meth:`_sync`
        plus, when a row moved since the last call, one C-level copy of
        the view (and one C-level sort if an item id arrived below the
        largest one held); otherwise the previous dict is returned again.
        A returned dict is never changed afterwards. Feeds no metric. The
        first call builds the view (one walk of the store) for _sync to keep.
        """
        self._sync()
        if self._view is None:
            hold, ids, enabled = self._view_rows.hold, self._data_index.ids, self._synced_enabled
            self._view = dict(sorted(
                (ids[row], hold(rule_ids & enabled, sorted))
                for row, rule_ids in enumerate(self.store._by_row) if rule_ids & enabled
            ))
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

    def evaluate(self, item: ItemLike) -> Iterable[str]:
        """Ids of the tracked rules whose condition holds on ``item``, by the
        compiled set (counted on ``stats``); the store is untouched."""
        hits, n_evaluated = self._compiled.match_item(item)
        self.stats.rule_evaluations += n_evaluated
        return hits

    def admitted(self, item: ItemLike) -> Optional[int]:
        """The row held for ``item`` when this very record — by identity
        or by value — is the one admitted under its id (the last
        ``add_items`` batch is checked in memory, older ones via the
        source); None if never admitted, shadowed by a later duplicate in
        its batch, removed, or re-listed since changed. The row's stored
        matches then stand in for an evaluation of ``item``."""
        record = item.item if isinstance(item, PreparedItem) else item
        row = self._data_index.row_of(record.item_id)
        if row is None:
            return None
        held = self._arrived.get(record.item_id)
        if held is None:
            held = next(self._records.records((row,)))
        return row if held is record or held == record else None

    def view(self, row: int, record: Optional[ProductItem] = None) -> PreparedItem:
        """:meth:`DataIndex.view`: the row's tokens are decoded, not
        tokenized again."""
        return self._data_index.view(row, record)

    def fired_for_item(self, item_id: str) -> List[str]:
        """Sorted enabled rule ids currently firing on one item, in view."""
        row = self._data_index.row_of(item_id)
        if row is None:
            return []
        return sorted(
            rule_id
            for rule_id in self.store.rules_of_row(row)
            if self._rules[rule_id].enabled and rule_id not in self._outside
        )

    def fired_for_rule(self, rule_id: str) -> List[str]:
        """Sorted item ids one rule currently fires on (enabled or not).
        Writes nothing, so a request thread may call it: ``tolist`` copies
        the column in one step while the batch loop may be editing it."""
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        rows = self.store.rows_of_rule(rule_id).tolist()
        return sorted(map(self._data_index.ids.__getitem__, rows))

    # -- internals ----------------------------------------------------------------

    def _views(self, rows: List[int], records: bool) -> Iterator[PreparedItem]:
        """Views of the ascending ``rows`` — with ``records``, each over
        its record, read back from the source in one pass."""
        view = self._data_index.view
        if not records:
            return map(view, rows)
        return map(view, rows, self._records.records(rows))

    def _hold_attributes(self) -> None:
        """Once the compiled set first reads attributes, start the
        corpus's attributes column, in one pass over the source; it stays."""
        if self._data_index.attributes is None and self._compiled.reads_attributes:
            self._data_index.hold_attributes(self._records.records)

    def _evaluate_rule(self, rule: Rule, op: ExecutionStats) -> None:
        """Recompute one rule's column over its DataIndex candidate rows
        (over their records, when the rule may read past the title)."""
        rows = self._data_index.candidate_rows(rule)
        views = self._views(rows, self._compiled.reads_record(rule.rule_id))
        matched = [row for row, view in zip(rows, views) if rule.matches_prepared(view)]
        op.rule_evaluations += len(rows)
        op.invalidations += self.store.set_rule_matches(rule.rule_id, matched)
        op.matches += len(matched)

    def _finish(
        self, op_name: str, op: ExecutionStats, started: float
    ) -> ExecutionStats:
        op.wall_time = time.perf_counter() - started
        op.match_time = max(0.0, op.wall_time - op.prepare_time)
        # Serial composition: each delta op ran after the previous one, so
        # the lifetime ledger's wall clock is the sum of op walls.
        self.stats.merge(op)
        self.stats.wall_time += op.wall_time
        obs = self.observability
        recorded = self.store.drain_recorded()
        if obs.enabled:
            obs.observe_execution(op, executor="incremental")
            obs.metrics.counter("incremental_ops_total", op=op_name).inc()
            obs.metrics.observe_rule_fires(recorded)
        return op
