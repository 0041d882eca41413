"""Incremental execution: delta maintenance is invisible in the output.

The contract under test: after ANY interleaved sequence of
``add_rules / update_rule / remove_rules / add_items / remove_items``
(plus enable/disable churn), :class:`IncrementalExecutor.fired_map` is
byte-identical to a from-scratch :class:`NaiveExecutor` run over the
executor's current rules and items — while touching only the delta
(checked through the MatchStore's per-rule generation counters and the
stats ledger).
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.generator import CatalogGenerator
from repro.catalog.types import ProductItem
from repro.chimera import Chimera
from repro.core import (
    AttributeRule,
    BlacklistRule,
    PredicateRule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
)
from repro.core.durability import AppendLog, json_line
from repro.core.errors import DuplicateRuleError, UnknownRuleError
from repro.core.prepared import PreparedItem, RecordNotHeld
from repro.core.rule import Clause
from repro.core.ruleset import RuleSet
from repro.core.serialize import rules_from_dicts
from repro.execution import (
    DataIndex,
    ExecutionStats,
    IncrementalExecutor,
    MatchStore,
    NaiveExecutor,
    prepare_all,
    rarest_anchor,
)
from repro.execution.incremental import MemoryRecords
from repro.observability import Observability
from repro.rulegen import RuleGenerator
from repro.service.daemon import JournalRecords, _item_to_dict
from tests.chain_audit import store_fired_map
from tests.test_resident_budget import _traced_growth

GOLDEN = pathlib.Path(__file__).parent / "golden"

_ids = itertools.count()

VOCAB = (
    "ring rings gold diamond area rug rugs motor engine oil jeans denim "
    "relaxed fit mystery novel gadget lamp shade with for 5x7 pack blue"
).split()


def item(title, **attrs):
    return ProductItem(item_id=f"inc-{next(_ids):06d}", title=title, attributes=attrs)


def canonical(fired) -> str:
    return json.dumps(fired, sort_keys=True, indent=2) + "\n"


def full_fired(rules, items):
    return NaiveExecutor(list(rules)).run(list(items))[0]


# ---------------------------------------------------------------------------
# MatchStore unit behavior
# ---------------------------------------------------------------------------


class TestMatchStore:
    def test_pairs_mirrored_both_ways(self):
        store = MatchStore()
        store.set_rule_matches("r1", [2, 1])
        store.set_item_matches(3, ["r1", "r2"])
        assert list(store.rows_of_rule("r1")) == [1, 2, 3]
        assert store.rules_of_row(3) == {"r1", "r2"}
        assert ("r1", 2) in store
        assert ("r2", 1) not in store
        assert len(store) == 4
        assert set(store.pairs()) == {
            ("r1", 1), ("r1", 2), ("r1", 3), ("r2", 3),
        }

    def test_set_rule_matches_reports_invalidations(self):
        store = MatchStore()
        store.set_rule_matches("r1", [1, 2, 3])
        # 1 kept, 2/3 dropped, 4 added -> 2 invalidations.
        assert store.set_rule_matches("r1", [1, 4]) == 2
        assert list(store.rows_of_rule("r1")) == [1, 4]

    def test_discards_report_invalidations_and_clean_up(self):
        store = MatchStore()
        store.set_rule_matches("r1", [1, 2])
        store.set_rule_matches("r2", [1])
        assert store.discard_item(1) == 2
        assert store.rules_of_row(1) == frozenset()
        assert store.discard_rule("r1") == 1
        assert len(store) == 0 and store.row_count == 0

    def test_generation_counters_track_recomputes(self):
        store = MatchStore()
        assert store.rule_generation("r1") == 0
        store.set_rule_matches("r1", [1])
        store.set_rule_matches("r1", [2])
        store.set_item_matches(9, ["r1"])
        assert store.rule_generation("r1") == 2  # the row write is not a recompute
        assert store.generation == 3

    def test_fired_map_filters_and_sorts(self):
        store = MatchStore()
        store.set_item_matches(0, ["r2", "r1", "r3"])
        store.set_item_matches(1, ["r3"])
        fired = store_fired_map(store, ["b", "a"], frozenset({"r1", "r2"}))
        assert fired == {"b": ["r1", "r2"]}
        assert list(fired) == sorted(fired)


# ---------------------------------------------------------------------------
# Delta API: costs land on the delta, results equal the full run
# ---------------------------------------------------------------------------


def small_world():
    items = [
        item("gold rings for women"),
        item("area rug 5x7 blue"),
        item("mystery novel pack", isbn="978"),
        item("motor engine oil"),
    ]
    rules = [
        WhitelistRule("rings?", "rings", rule_id=f"w-{next(_ids):06d}"),
        SequenceRule(("area", "rug"), "rugs", rule_id=f"s-{next(_ids):06d}"),
        AttributeRule("isbn", "books", rule_id=f"a-{next(_ids):06d}"),
        BlacklistRule("motor engine", "jewelry", rule_id=f"b-{next(_ids):06d}"),
    ]
    return rules, items


class TestIncrementalExecutor:
    def test_initial_load_matches_full_run(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        assert incremental.fired_map() == full_fired(rules, items)
        assert incremental.rule_count == len(rules)
        assert incremental.item_count == len(items)

    def test_single_rule_edit_touches_only_its_candidates(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        edit = WhitelistRule("(rings?|novel)", "rings", rule_id=rules[0].rule_id)
        op = incremental.update_rule(edit)
        # Only the anchored candidates (ring/novel items) were evaluated.
        assert op.rule_evaluations == 2
        # No item row was re-evaluated: the delta went through the rule side.
        assert op.delta_rules == 1 and op.delta_items == 0
        new_rules = [edit] + rules[1:]
        assert incremental.fired_map() == full_fired(new_rules, items)

    def test_update_rule_invalidates_stale_pairs(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        narrowed = WhitelistRule("nothingmatches", "rings", rule_id=rules[0].rule_id)
        op = incremental.update_rule(narrowed)
        assert op.invalidations == 1  # the old rings match died
        assert incremental.fired_map() == full_fired([narrowed] + rules[1:], items)

    def test_batch_arrival_costs_o_batch(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        rule_gens = {r.rule_id: incremental.store.rule_generation(r.rule_id)
                     for r in rules}
        batch = [item("gold rings novel"), item("blue jeans denim")]
        op = incremental.add_items(batch)
        assert op.delta_items == len(batch)
        # No rule column was wholesale recomputed by an item-side delta.
        for rule in rules:
            assert incremental.store.rule_generation(rule.rule_id) \
                == rule_gens[rule.rule_id]
        assert incremental.fired_map() == full_fired(rules, items + batch)

    def test_remove_items_and_rules(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        incremental.remove_items([items[0].item_id])
        incremental.remove_rules([rules[2].rule_id])
        remaining_rules = [r for r in rules if r is not rules[2]]
        assert incremental.fired_map() == full_fired(remaining_rules, items[1:])

    def test_relisted_item_is_reevaluated(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        relisted = ProductItem(item_id=items[0].item_id, title="motor engine oil")
        op = incremental.add_items([relisted])
        assert op.invalidations >= 1  # the old rings match died with the title
        current = [relisted] + list(items[1:])
        assert incremental.fired_map() == full_fired(rules, current)

    def test_enable_disable_is_a_zero_evaluation_delta(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        incremental.fired_map()
        evaluations = incremental.stats.rule_evaluations
        rules[0].enabled = False
        assert incremental.fired_map() == full_fired(rules, items)
        rules[0].enabled = True
        assert incremental.fired_map() == full_fired(rules, items)
        assert incremental.stats.rule_evaluations == evaluations

    def test_fired_map_snapshot_is_memoized(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        first = incremental.fired_map()
        hits_before = incremental.stats.cache_hits
        assert incremental.fired_map() is first
        assert incremental.stats.cache_hits == hits_before + 1
        incremental.add_items([item("gold rings")])
        assert incremental.fired_map() is not first

    def test_rule_fired_total_counts_a_pair_once_however_often_it_is_read(self):
        """The counter moves when the store records a ``(rule, item)`` pair
        — item side and rule side alike — and never on a read: it used to
        re-count the whole map on every read after a change, so it grew
        with (items served) x (reads)."""
        obs = Observability()
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items, observability=obs)

        def counted():
            series = obs.metrics.series("rule_fired_total")
            return sum(counter.value for counter in series.values())

        assert counted() == len(incremental.store) > 0
        for _ in range(3):
            incremental.add_items([item("gold rings")])
            incremental.fired_map()
            incremental.fired_fingerprint()
        assert counted() == len(incremental.store)
        disabled = WhitelistRule("gold", "rings", rule_id=f"w-{next(_ids):06d}")
        disabled.enabled = False
        incremental.add_rules([disabled])
        assert counted() == len(incremental.store)  # disabled: recorded all the same
        rules[0].enabled = False
        incremental.fired_map()
        before = counted()
        # A silent resume feeds nothing.
        incremental.restore_items([item("rings rings")])
        assert counted() == before == len(incremental.store) - 1

    def test_snapshot_memo_keys_on_enabled_identity_not_count(self):
        # Regression guard: the memo key must be the enabled-rule
        # *identity set*, not its size (or the store generation alone).
        # Disabling rule A while enabling rule B between snapshots keeps
        # the count and the generation unchanged; a count-keyed memo
        # would serve rule A's stale snapshot.
        rules, items = small_world()
        rules[0].enabled = True
        rules[1].enabled = False
        incremental = IncrementalExecutor(rules, items)
        first = incremental.fired_map()
        generation = incremental.store.generation
        rules[0].enabled = False
        rules[1].enabled = True  # same enabled count, different identity
        assert incremental.store.generation == generation
        second = incremental.fired_map()
        assert second is not first
        assert second == full_fired(rules, items)
        assert first != second  # the two views genuinely differ on this corpus
        # Flipping back serves the correct view again (and re-memoizes).
        rules[0].enabled = True
        rules[1].enabled = False
        assert incremental.fired_map() == first
        assert incremental.fired_map() is incremental.fired_map()

    def test_refresh_rebuilds_from_scratch(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        pairs = len(incremental.store)
        fired, op = incremental.refresh()
        assert op.invalidations == pairs
        assert fired == full_fired(rules, items)

    def test_refresh_records_no_stored_pair_again(self):
        """``rule_fired_total`` moves only when the store records a pair it
        did not hold: a refresh that re-derives the same two pairs leaves
        it at two."""
        obs = Observability()
        items = [item("gold rings"), item("silver ring"), item("blue jeans")]
        incremental = IncrementalExecutor(
            [WhitelistRule("rings?", "rings", rule_id="w1")], items, observability=obs
        )
        counter = obs.metrics.counter("rule_fired_total", rule_id="w1")
        assert counter.value == 2
        _, op = incremental.refresh()
        assert op.invalidations == 2
        assert counter.value == incremental.fired_pairs == 2

    def test_per_rule_and_per_item_views(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        assert incremental.fired_for_rule(rules[0].rule_id) == [items[0].item_id]
        assert incremental.fired_for_item(items[0].item_id) == [rules[0].rule_id]
        rules[0].enabled = False
        assert incremental.fired_for_item(items[0].item_id) == []
        # Disabled rules keep their (condition-truth) matches visible.
        assert incremental.fired_for_rule(rules[0].rule_id) == [items[0].item_id]

    def test_duplicate_and_unknown_rule_errors(self):
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        with pytest.raises(DuplicateRuleError):
            incremental.add_rules([rules[0]])
        with pytest.raises(UnknownRuleError):
            incremental.remove_rules(["no-such-rule"])
        with pytest.raises(UnknownRuleError):
            incremental.update_rule(WhitelistRule("x", "t", rule_id="no-such-rule"))
        with pytest.raises(UnknownRuleError):
            incremental.fired_for_rule("no-such-rule")

    def test_ruleset_attachment_drives_deltas(self):
        rules, items = small_world()
        ruleset = RuleSet(rules, name="tracked")
        incremental = IncrementalExecutor()
        incremental.attach_ruleset(ruleset)
        incremental.add_items(items)
        ruleset.add(WhitelistRule("jeans", "jeans", rule_id="rs-add"))
        ruleset.replace(WhitelistRule("novel", "books", rule_id=rules[0].rule_id))
        ruleset.remove(rules[3].rule_id)
        ruleset.disable(rules[1].rule_id)
        assert incremental.fired_map() == full_fired(list(ruleset), items)
        incremental.detach()
        ruleset.add(WhitelistRule("lamp", "lamps", rule_id="after-detach"))
        assert incremental.rule_count == len(ruleset) - 1


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary interleavings stay byte-identical to from-scratch
# ---------------------------------------------------------------------------

tokens = st.sampled_from(VOCAB)
titles = st.lists(tokens, min_size=1, max_size=6).map(" ".join)


@st.composite
def operations(draw):
    """One abstract mutation; applied against live state later."""
    kind = draw(st.sampled_from(
        ["add_rule", "update_rule", "remove_rule", "toggle_rule",
         "add_items", "remove_item"]
    ))
    payload = {
        "titles": draw(st.lists(titles, min_size=1, max_size=3)),
        "pick": draw(st.integers(min_value=0, max_value=10 ** 6)),
        "flavor": draw(st.integers(min_value=0, max_value=4)),
        "token": draw(tokens),
        "token2": draw(tokens),
    }
    return kind, payload


def build_rule(flavor, token, token2, rule_id=None):
    rule_id = rule_id or f"hyp-{next(_ids):06d}"
    if flavor == 0:
        return WhitelistRule(f"{token}s?", "t", rule_id=rule_id)
    if flavor == 1:
        return SequenceRule((token, token2), "t", rule_id=rule_id)
    if flavor == 2:
        return AttributeRule("isbn", "books", rule_id=rule_id)
    if flavor == 4:  # reads a record field no corpus row holds
        clause = Clause(f"udf({token})", lambda item: token in item.description)
        return PredicateRule([clause], "t", rule_id=rule_id)
    return BlacklistRule(f"({token}|{token2})", "t", rule_id=rule_id)


def described(title, **attrs):
    """An item whose description repeats its title's first word."""
    return ProductItem(
        item_id=f"inc-{next(_ids):06d}", title=title, attributes=attrs,
        description=f"a {title.split()[0]} product",
    )


def record_source(kind, directory):
    """``(records, admit)``: an executor's record source and the way a
    batch gets in — journalled first, like the daemon, for the journal
    source."""
    if kind == "memory":
        return MemoryRecords(), lambda executor, batch: executor.add_items(batch)
    log = AppendLog(os.path.join(directory, "batches.jsonl"), fsync=False)
    records = JournalRecords(log)

    def admit(executor, batch):
        line = log.append(json_line({"items": [_item_to_dict(i) for i in batch]}))
        records.next_line(line)
        executor.add_items(batch)

    return records, admit


@settings(max_examples=30, deadline=None)
@given(
    seed_titles=st.lists(titles, min_size=0, max_size=5),
    ops=st.lists(operations(), min_size=1, max_size=12),
)
def test_interleaved_deltas_match_from_scratch(seed_titles, ops):
    """Rule flavours include an attribute rule and a UDF over the
    description, so attribute and record read-back are in the loop; each
    example runs over both record sources, RAM and a journal."""
    for source in ("memory", "journal"):
        with tempfile.TemporaryDirectory() as directory:
            _interleave(*record_source(source, directory), seed_titles, ops)


def _interleave(records, admit, seed_titles, ops):
    rules = [
        WhitelistRule("rings?", "rings", rule_id=f"hyp-{next(_ids):06d}"),
        SequenceRule(("area", "rug"), "rugs", rule_id=f"hyp-{next(_ids):06d}"),
    ]
    items = [described(t, **({"isbn": "978"} if i % 2 else {}))
             for i, t in enumerate(seed_titles)]
    incremental = IncrementalExecutor(list(rules))
    incremental.use_records(records)
    admit(incremental, list(items))

    for kind, payload in ops:
        pick, flavor = payload["pick"], payload["flavor"]
        token, token2 = payload["token"], payload["token2"]
        if kind == "add_rule":
            rule = build_rule(flavor, token, token2)
            rules.append(rule)
            incremental.add_rules([rule])
        elif kind == "update_rule" and rules:
            old = rules[pick % len(rules)]
            rule = build_rule(flavor, token, token2, rule_id=old.rule_id)
            rule.enabled = old.enabled
            rules[rules.index(old)] = rule
            incremental.update_rule(rule)
        elif kind == "remove_rule" and rules:
            rule = rules.pop(pick % len(rules))
            incremental.remove_rules([rule.rule_id])
        elif kind == "toggle_rule" and rules:
            rule = rules[pick % len(rules)]
            rule.enabled = not rule.enabled
        elif kind == "add_items":
            batch = [described(t) for t in payload["titles"]]
            items.extend(batch)
            admit(incremental, batch)
        elif kind == "remove_item" and items:
            gone = items.pop(pick % len(items))
            incremental.remove_items([gone.item_id])
        # The materialized view equals a from-scratch run after EVERY step.
        assert incremental.fired_map() == full_fired(rules, items)
        naive = NaiveExecutor(list(rules)).run(list(items))[0]
        assert incremental.fired_map() == naive


# ---------------------------------------------------------------------------
# Golden corpus: byte-for-byte against the committed snapshot
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_world():
    records = json.loads((GOLDEN / "catalog.json").read_text())
    items = [
        ProductItem(
            item_id=r["item_id"],
            title=r["title"],
            attributes=r["attributes"],
            true_type=r["true_type"],
            vendor=r["vendor"],
            description=r["description"],
        )
        for r in records
    ]
    rules = rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))
    return rules, items


class TestGoldenIncremental:
    def test_incremental_build_reproduces_golden_bytes(self, golden_world):
        rules, items = golden_world
        half = len(items) // 2
        incremental = IncrementalExecutor(rules[: len(rules) // 2], items[:half])
        incremental.add_rules(rules[len(rules) // 2:])
        incremental.add_items(items[half:])
        assert canonical(incremental.fired_map()) == (GOLDEN / "fired.json").read_text()

    def test_churn_cycle_returns_to_golden_bytes(self, golden_world):
        rules, items = golden_world
        incremental = IncrementalExecutor(rules, items)
        # Retire a third of the rules, drop some items, then undo it all.
        retired = rules[:: 3]
        incremental.remove_rules([r.rule_id for r in retired])
        dropped = items[:: 5]
        incremental.remove_items([i.item_id for i in dropped])
        incremental.add_rules(retired)
        incremental.add_items(dropped)
        assert canonical(incremental.fired_map()) == (GOLDEN / "fired.json").read_text()


# ---------------------------------------------------------------------------
# One corpus: the DataIndex row is the prepared view (no second cache)
# ---------------------------------------------------------------------------


class TestSharedPreparedCache:
    def test_data_index_reuses_executor_preparations(self):
        """However an item got in, ``admitted`` hands back its row. The
        corpus holds the row as columns — id, title, tokens — and neither
        a record, which the record source keeps, nor a view, which each
        read builds over the row's token tuple, decoded from its columns."""
        rules, items = small_world()
        warmed = prepare_all(items[:1])[0]
        incremental = IncrementalExecutor(rules)
        incremental.add_items([warmed] + items[1:2])
        assert incremental.restore_items(items[2:]) == 2
        index = incremental._data_index
        rows = [incremental.admitted(thing) for thing in items]
        assert rows == [index.row_of(thing.item_id) for thing in items] == index.live_rows()
        assert index.tokens_of(rows[0]) == warmed.tokens_with_stopwords
        for row, thing in zip(rows, items):
            view = incremental.view(row)
            assert (view.item_id, view.title) == (thing.item_id, thing.title)
            assert view.tokens_with_stopwords == index.tokens_of(row)
            with pytest.raises(RecordNotHeld):
                view.item
            assert incremental.view(row, thing).item is thing
            assert incremental.view(row, thing).tokens_with_stopwords == index.tokens_of(row)
        assert not [
            value for column in vars(index).values() if isinstance(column, list)
            for value in column if isinstance(value, (ProductItem, PreparedItem))
        ]
        assert list(incremental._records.records(rows)) == items
        assert incremental._records.held == len(items)

    def test_incremental_shares_one_cache_everywhere(self):
        """``admitted`` is by identity or value, and only for the live row."""
        rules, items = small_world()
        incremental = IncrementalExecutor(rules, items)
        first, second, third = items[:3]
        # Re-listing with equal content: both records are "the row I hold".
        copy = ProductItem(first.item_id, first.title, dict(first.attributes))
        incremental.add_items([copy])
        at = incremental._data_index.row_of(first.item_id)
        assert next(incremental._records.records([at])) is copy
        assert incremental.admitted(copy) == at == incremental.admitted(first)
        # Re-listing with different content: the old record is not held.
        changed = ProductItem(item_id=second.item_id, title="gold rings")
        incremental.restore_items([changed])
        assert incremental.admitted(second) is None
        assert incremental.admitted(changed) == incremental._data_index.row_of(second.item_id)
        # Removed, and equal content under an id never admitted.
        incremental.remove_items([third.item_id])
        assert incremental.admitted(third) is None
        twin = ProductItem("inc-never-admitted", first.title, dict(first.attributes))
        assert incremental.admitted(twin) is None
        assert incremental.item_count == len(incremental._data_index._row_by_id) == 3
        assert incremental.fired_map() == full_fired(rules, [copy, changed, items[3]])


# ---------------------------------------------------------------------------
# DataIndex mutation
# ---------------------------------------------------------------------------


def _matched_ids(index, rule, records):
    return {records[row].item_id for row in index.matches(rule, records)}


class TestDataIndexMutation:
    def test_add_remove_keeps_matches_consistent(self):
        rules, items = small_world()
        index = DataIndex(items)
        records = list(items)
        rule = rules[0]
        assert _matched_ids(index, rule, records) == {items[0].item_id}
        index.remove(items[0].item_id)
        assert index.matches(rule, records) == []
        assert len(index) == len(items) - 1
        index.add(items[0])
        records.append(items[0])
        assert _matched_ids(index, rule, records) == {items[0].item_id}

    def test_unanchored_rules_scan_only_live_rows(self):
        rules, items = small_world()
        index = DataIndex(items)
        index.remove(items[1].item_id)
        attr_rule = rules[2]
        rows = index.candidate_rows(attr_rule)
        assert len(rows) == len(items) - 1
        assert index.candidate_fraction(attr_rule) == 1.0

    def test_duplicate_add_replaces(self):
        first = item("gold rings")
        replacement = ProductItem(item_id=first.item_id, title="area rug")
        index = DataIndex([first, replacement])
        assert len(index) == 1
        rule = SequenceRule(("area", "rug"), "rugs", rule_id=f"dx-{next(_ids):06d}")
        assert index.matches(rule, [first, replacement]) == [1]


def _posting_entries(index):
    """(dead, live) entries over every posting array, read off the arrays."""
    dead = live = 0
    for posted in index._postings.values():
        for row in posted:
            if not index._live_flags[row]:
                dead += 1
            else:
                live += 1
    return dead, live


@settings(max_examples=40, deadline=None)
@given(
    rule_specs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), tokens, tokens),
        min_size=1, max_size=4,
    ),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=5), titles),
        min_size=1, max_size=30,
    ),
)
def test_tombstoned_rows_never_surface(rule_specs, ops):
    """Re-listings and removals only tombstone rows in the append-only
    postings: after every op no candidate row is a tombstone, every rule
    matches what a from-scratch run fires, and the dead entries (counted
    off the arrays) are the index's count and never outnumber the live."""
    rules = [build_rule(*spec) for spec in rule_specs]
    index = DataIndex()
    live, records = {}, []
    for relist, key, title in ops:
        item_id = f"dx-h{key}"
        if relist:
            live[item_id] = ProductItem(
                item_id, title, attributes={"isbn": "978"} if key % 2 else {}
            )
            index.add(live[item_id])
            records.append(live[item_id])
        else:
            index.remove(item_id)
            live.pop(item_id, None)
        naive = full_fired(rules, live.values())
        for rule in rules:
            rows = index.candidate_rows(rule)
            assert all(index._live_flags[row] for row in rows)
            assert sorted(_matched_ids(index, rule, records)) == sorted(
                item_id for item_id, fired in naive.items() if rule.rule_id in fired
            )
        dead, live_entries = _posting_entries(index)
        assert dead == index.dead_postings <= live_entries


# ---------------------------------------------------------------------------
# rarest-anchor determinism
# ---------------------------------------------------------------------------


class TestRarestAnchor:
    def test_empty_frequency_prefers_longest_then_lexicographic(self):
        assert rarest_anchor(["ab", "abcd", "xyzw"], {}) == "abcd"
        assert rarest_anchor(["aa", "bb"], {}) == "aa"

    def test_missing_tokens_count_as_rare(self):
        frequency = {"common": 10_000, "rare": 2}
        assert rarest_anchor(["common", "rare"], frequency) == "rare"
        # Unseen vocabulary beats any seen count (treated as frequency 0).
        assert rarest_anchor(["common", "unseen"], frequency) == "unseen"

    def test_frequency_ties_break_by_length_then_lex(self):
        frequency = {"aa": 5, "bbbb": 5, "cccc": 5}
        assert rarest_anchor(["aa", "bbbb", "cccc"], frequency) == "bbbb"

    def test_anchor_choice_is_token_order_independent(self):
        frequency = {"area": 1000, "rug": 3}
        assert rarest_anchor(["area", "rug"], frequency) == "rug"
        assert rarest_anchor(["rug", "area"], frequency) == "rug"
        assert rarest_anchor(["abcd", "wxyz"], {}) == rarest_anchor(["wxyz", "abcd"], {})


# ---------------------------------------------------------------------------
# ExecutionStats: new fields merge correctly
# ---------------------------------------------------------------------------


class TestStatsMerge:
    def test_incremental_fields_merge(self):
        a = ExecutionStats(cache_hits=2, cache_misses=1, invalidations=3,
                           delta_rules=4, delta_items=5)
        b = ExecutionStats(cache_hits=10, cache_misses=20, invalidations=30,
                           delta_rules=40, delta_items=50)
        a.merge(b)
        assert (a.cache_hits, a.cache_misses, a.invalidations,
                a.delta_rules, a.delta_items) == (12, 21, 33, 44, 55)

    def test_cache_hit_rate(self):
        assert ExecutionStats().cache_hit_rate == 0.0
        assert ExecutionStats(cache_hits=3, cache_misses=1).cache_hit_rate == 0.75


# ---------------------------------------------------------------------------
# RuleSet notifications
# ---------------------------------------------------------------------------


class TestRuleSetNotifications:
    def test_version_bumps_and_events_fire(self):
        ruleset = RuleSet(name="notify")
        events = []
        unsubscribe = ruleset.subscribe(lambda event, rule: events.append(
            (event, rule.rule_id)))
        rule = WhitelistRule("rings?", "rings", rule_id="n1")
        ruleset.add(rule)
        ruleset.disable("n1")
        ruleset.disable("n1")  # no-op: already disabled, no event
        ruleset.enable("n1")
        ruleset.replace(WhitelistRule("rings?|band", "rings", rule_id="n1"))
        ruleset.remove("n1")
        assert events == [
            ("added", "n1"), ("disabled", "n1"), ("enabled", "n1"),
            ("replaced", "n1"), ("removed", "n1"),
        ]
        unsubscribe()
        ruleset.add(rule)
        assert len(events) == 5

    def test_replace_keeps_evaluation_order(self):
        first = WhitelistRule("rings?", "rings", rule_id="p1")
        second = WhitelistRule("rugs?", "rugs", rule_id="p2")
        ruleset = RuleSet([first, second], name="order")
        ruleset.replace(WhitelistRule("bands?", "rings", rule_id="p1"))
        assert [r.rule_id for r in ruleset] == ["p1", "p2"]
        assert ruleset.get("p1").pattern == "bands?"

    def test_disable_type_notifies_per_rule(self):
        ruleset = RuleSet(name="types")
        ruleset.add(WhitelistRule("rings?", "rings", rule_id="t1"))
        ruleset.add(WhitelistRule("bands?", "rings", rule_id="t2"))
        ruleset.add(WhitelistRule("rugs?", "rugs", rule_id="t3"))
        events = []
        ruleset.subscribe(lambda event, rule: events.append((event, rule.rule_id)))
        assert ruleset.disable_type("rings") == ["t1", "t2"]
        assert events == [("disabled", "t1"), ("disabled", "t2")]


# ---------------------------------------------------------------------------
# Nothing on the served path grows per *op*
# ---------------------------------------------------------------------------


@pytest.mark.gates
def test_empty_ops_leave_nothing_behind():
    """A daemon books one ``add_items`` per batch for as long as it lives:
    an op may cost time, never memory. 2,000 empty ops through a pipeline
    tracker (no observability, so no spans) grow the heap by under 16 KB —
    96 B measured; a per-op record list read 322,304 B."""
    tracker = Chimera.build().engine
    for _ in range(50):
        tracker.add_items([])
    with _traced_growth() as grown:
        for _ in range(2_000):
            tracker.add_items([])
    assert tracker.stats.items == 0
    assert grown[0] < 16 * 1024


def _clone(donor, rule_id, enabled=True):
    rule = copy.copy(donor)
    rule.rule_id = rule_id
    rule.enabled = enabled
    return rule


@pytest.mark.gates
def test_shared_rows_and_dead_postings_stay_bounded_under_churn(taxonomy):
    """The ledger's ``churn`` edit mix — add / replace / disable / enable /
    remove, each read back through ``fired_map()`` — 500 times over a
    2k-item corpus, re-listing four items and removing one per cycle.
    Throughout, the store's and the view's shared-row tables hold exactly
    the distinct rows some item holds, one object each, and the corpus
    index's dead posting entries never outnumber its live ones; at the end
    the view equals a from-scratch run."""
    generator = CatalogGenerator(taxonomy, seed=23)
    induced = list(
        RuleGenerator(min_support=0.01).generate(generator.generate_labeled(2000)).rules
    )
    for number, rule in enumerate(induced):
        rule.rule_id = f"churn-{number:04d}"
    deployed, donors = induced[: len(induced) // 2], induced[len(induced) // 2:]
    ruleset = RuleSet(deployed)
    corpus = {item.item_id: item for item in generator.generate_items(2000)}
    executor = IncrementalExecutor()
    executor.attach_ruleset(ruleset)
    executor.add_items(list(corpus.values()))
    ids = sorted(corpus)
    store, index = executor.store, executor._data_index

    for cycle in range(500):
        added = f"churn-add-{cycle:04d}"
        victim = deployed[cycle % len(deployed)].rule_id
        ruleset.add(_clone(donors[(cycle + 1) % len(donors)], added))
        executor.fired_map()
        ruleset.replace(
            _clone(donors[cycle % len(donors)], victim, ruleset.is_enabled(victim))
        )
        executor.fired_map()
        ruleset.disable(victim)
        executor.fired_map()
        ruleset.enable(victim)
        executor.fired_map()
        ruleset.remove(added)
        executor.fired_map()

        relisted = [
            ProductItem(item_id, generator.generate_item().title)
            for item_id in ids[4 * cycle % len(ids):][:4]
        ]
        executor.add_items(relisted)
        corpus.update((item.item_id, item) for item in relisted)
        gone = ids[(7 * cycle + 3) % len(ids)]
        executor.remove_items([gone])
        corpus.pop(gone, None)
        executor.fired_map()

        rows = [row for row in store._by_row if row]
        assert len(store._rows) == len(set(rows)) == len({id(row) for row in rows})
        views = list(executor._view.values())
        assert len(executor._view_rows) == len({tuple(v) for v in views}) \
            == len({id(v) for v in views})
        if cycle % 10 == 0:
            dead, live = _posting_entries(index)
            assert dead == executor.dead_postings <= live

    assert executor.fired_map() == full_fired(list(ruleset), corpus.values())
