"""One differential property: every engine mode equals the reference.

:class:`NaiveExecutor` — every enabled rule's ``matches_prepared`` against
every item — is the executable definition of rule execution. This module
drives the compiled engine's modes (a batch ``CompiledRuleSet.execute``,
a per-item ``CompiledRuleSet.match_item`` sweep; sharded
``PartitionedExecutor``, traced and under faults; delta
``IncrementalExecutor``) through a
random interleaving of item arrivals, re-listings, rule adds, edits,
retirements and enable/disable flips, over rules of every registered
class and clean as well as unclean titles, and asserts that each mode's
fired map on the final state is exactly the reference's — and that the
delta mode gives the same answer whichever of rules and items arrived
first. The sharded mode runs under the CI chaos job's fault plan
(``REPRO_CHAOS_SEED``), so a red run is replayable with the logged seed.
A batch that repeats an item id is decided by the id's last occurrence in
every mode.
"""

import copy
import itertools
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core import (
    AttributeRule,
    BlacklistRule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
    parse_rule,
)
from repro.core.rule import Clause, PredicateRule
from repro.core.ruleset import RuleSet
from repro.execution import (
    CompiledRuleSet,
    FaultPlan,
    IncrementalExecutor,
    NaiveExecutor,
    PartitionedExecutor,
)
from repro.execution import incremental as incremental_module
from repro.observability import Observability
from repro.scenario.runner import _check_fault_model
from tests.candidate_reference import reference_evaluations
from tests.chain_audit import fingerprint_from_scratch, store_fired_map

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0xC0FFEE"), 0)
N_WORKERS = 3

# Short stems on purpose: "tvs"/"pcs" are not singularized by the index's
# plural bridge, and "glass"/"bus" end in an "s" that is not a plural.
_STEMS = ["tv", "pc", "usb", "ring", "gold", "book", "ebook", "color",
          "colour", "laptop", "glass", "bus", "of"]
_stem = st.sampled_from(_STEMS)
_word = st.builds(lambda stem, plural: stem + plural, _stem, st.sampled_from(["", "s"]))

# Tokens the clean-title fast path must refuse (punctuation inside a token,
# non-ascii, a digit glued to a stem) next to ones it accepts.
_token = _word | st.sampled_from([
    "o-ring", "o-rings", "usb3", "usb-c", "13.5in", "gold/ring", "TVs!",
    "café", "RING", "lap-top", "laptops", "ebooks", "k-cup", "tv,", "(pc)",
])
_title = st.lists(_token, min_size=0, max_size=6).map(" ".join)

# Regex conditions: whole words, optional plurals on short stems, optional
# and wildcard characters *inside* a word (no sound anchor exists), gaps,
# groups, classes, escaped punctuation, literal phrases of two and three
# words, alone or beside a word.
_regex = st.one_of(
    _stem,
    _stem.map(lambda w: w + "s?"),
    st.sampled_from([
        "colou?r", "e?books?", r"usb\d", "lap.?tops?", "[tp]vs?", "rings?|tvs?",
        r"o\-rings?", r"k\-cup\ pcs?", "gold.*ring", "gold .* rings?",
        "(gold|glass) (ring|tv)s?", "(smart )?tvs?", "(e|audio)books?", r"\d+in",
        "glass?", "buss?",
    ]),
    st.builds("{} {}s?".format, _word, _stem),
    st.builds("{}|{}s?".format, _word, _stem),
    st.builds("{} {}".format, _word, _word),
    st.builds("{}|{} {}".format, _word, _word, _word),
    st.sampled_from(["rose gold rings", "gold ring band", "gold ring tv", "usb pc|glass tv pc"]),
    st.builds("{} {} {}".format, _word, _word, _word),
)
_attribute = st.sampled_from(["isbn", "brand", "price"])


class _NarrowedWhitelist(WhitelistRule):
    """An anchored rule class the compiler does not know: a whitelist
    condition narrowed by a check of its own (its anchors stay sound)."""

    def matches_prepared(self, prepared):
        return "glass" not in prepared.tokens and super().matches_prepared(prepared)


_value = st.sampled_from(["apple", "acme", "9", "120"])

# A rule spec is a factory taking the rule id, so edits can rebuild a
# different condition under the same id.
_rule_spec = st.one_of(
    st.builds(lambda p: lambda rid: WhitelistRule(p, "t", rule_id=rid), _regex),
    st.builds(lambda p: lambda rid: BlacklistRule(p, "t", rule_id=rid), _regex),
    st.builds(lambda p: lambda rid: _NarrowedWhitelist(p, "t", rule_id=rid), _regex),
    st.builds(
        lambda seq: lambda rid: SequenceRule(seq, "t", rule_id=rid),
        st.lists(_word, min_size=1, max_size=3),
    ),
    st.builds(lambda a: lambda rid: AttributeRule(a, "t", rule_id=rid), _attribute),
    st.builds(
        lambda a, v: lambda rid: ValueConstraintRule(a, v, ["t", "u"], rule_id=rid),
        _attribute, _value,
    ),
    # predicate / constraint rules through the analyst DSL
    st.builds(
        lambda p, a: lambda rid: parse_rule(f"title ~ {p} & attr({a}) -> t", rule_id=rid),
        _regex, _attribute,
    ),
    st.builds(
        lambda p: lambda rid: parse_rule(f"{p} & price < 100 -> NOT t", rule_id=rid),
        _regex,
    ),
    st.builds(
        lambda p, v: lambda rid: parse_rule(
            f"title ~ {p} & value(brand)={v} -> t|u", rule_id=rid
        ),
        _regex, _value,
    ),
)

_item_spec = st.tuples(
    _title,
    st.dictionaries(
        st.sampled_from(["isbn", "ISBN", "brand", "Brand", "price"]), _value, max_size=2
    ),
)
_pick = st.integers(min_value=0, max_value=10**6)  # index into the live state

_op = st.one_of(
    st.tuples(st.just("add_items"), st.lists(_item_spec, min_size=1, max_size=4)),
    st.tuples(st.just("relist_item"), _pick, _item_spec),
    st.tuples(st.just("add_rules"), st.lists(_rule_spec, min_size=1, max_size=3)),
    st.tuples(st.just("update_rule"), _pick, _rule_spec),
    st.tuples(st.just("remove_rule"), _pick),
    st.tuples(st.just("toggle_rule"), _pick),
)


def _item(item_id, spec):
    title, attributes = spec
    return ProductItem(item_id=item_id, title=title, attributes=attributes)


def _apply(ops):
    """Drive one IncrementalExecutor through ``ops``; return it + the model."""
    executor = IncrementalExecutor()
    rules, items = {}, {}
    item_ids, rule_ids = itertools.count(), itertools.count()
    for op in ops:
        kind = op[0]
        if kind == "add_items":
            batch = [_item(f"i{next(item_ids):03d}", spec) for spec in op[1]]
            items.update((item.item_id, item) for item in batch)
            executor.add_items(batch)
        elif kind == "relist_item" and items:
            item_id = sorted(items)[op[1] % len(items)]
            items[item_id] = _item(item_id, op[2])
            executor.add_items([items[item_id]])
        elif kind == "add_rules":
            batch = [build(f"r{next(rule_ids):03d}") for build in op[1]]
            rules.update((rule.rule_id, rule) for rule in batch)
            executor.add_rules(batch)
        elif kind == "update_rule" and rules:
            rule_id = sorted(rules)[op[1] % len(rules)]
            edited = op[2](rule_id)
            edited.enabled = rules[rule_id].enabled
            rules[rule_id] = edited
            executor.update_rule(edited)
        elif kind == "remove_rule" and rules:
            rule_id = sorted(rules)[op[1] % len(rules)]
            del rules[rule_id]
            executor.remove_rules([rule_id])
        elif kind == "toggle_rule" and rules:
            rule = rules[sorted(rules)[op[1] % len(rules)]]
            rule.enabled = not rule.enabled
    return executor, list(rules.values()), list(items.values())


def _canonical(fired):
    return {item_id: fired[item_id] for item_id in sorted(fired)}


@settings(max_examples=150, deadline=None)
@given(st.lists(_op, min_size=1, max_size=14))
def test_every_engine_mode_equals_the_reference(ops):
    churned, rules, items = _apply(ops)
    reference = _canonical(NaiveExecutor(rules).run(items)[0])

    # Batch callers hand the artifact the enabled rules only.
    enabled = [rule for rule in rules if rule.enabled]
    batch, batch_stats = CompiledRuleSet(enabled).execute(items)
    assert _canonical(batch) == reference

    # Tracing observes the run; it must not change what the run does.
    traced = PartitionedExecutor(rules, n_workers=1, observability=Observability()).run(items)
    traced_stats = traced.stats
    assert _canonical(traced.fired) == reference

    # One item at a time through the same artifact: the incremental
    # executor's and the pipeline matcher's way in.
    compiled = CompiledRuleSet(enabled)
    swept = {item.item_id: compiled.match_item(item) for item in items}
    assert _canonical(
        {item_id: hits for item_id, (hits, _) in swept.items() if hits}
    ) == reference
    work = (batch_stats.rule_evaluations, batch_stats.matches)
    assert (traced_stats.rule_evaluations, traced_stats.matches) == work
    assert (
        sum(n for _, n in swept.values()),
        sum(len(hits) for hits, _ in swept.values()),
    ) == work

    assert churned.fired_map() == reference
    rules_first = IncrementalExecutor(rules=rules)
    rules_first.add_items(items)
    items_first = IncrementalExecutor(items=items)
    items_first.add_rules(rules)
    assert rules_first.fired_map() == reference
    assert items_first.fired_map() == reference

    plan = FaultPlan.random_plan(
        seed=CHAOS_SEED, n_workers=N_WORKERS, rate=0.5,
        max_faulted_attempts=2, spare_workers=1,
    )
    sharded = PartitionedExecutor(rules, n_workers=N_WORKERS, fault_plan=plan).run(items)
    assert not sharded.degraded, f"chaos seed={CHAOS_SEED}\n{plan.describe()}"
    assert _canonical(sharded.fired) == reference


# The rows of the anchor-soundness bugfix, pinned by name: each fired under
# NaiveExecutor and nowhere else before the fix.
ANCHOR_CASES = [
    ("tvs?", "smart tvs"),
    ("colou?r", "color tv"),
    ("e?books?", "ebooks"),
    (r"usb\d", "usb3 hub"),
    ("lap.?tops?", "laptops"),
    ("glass?", "wine glass"),
    ("rings?", "rubber o-rings"),
]


@pytest.mark.parametrize("pattern,title", ANCHOR_CASES)
def test_anchor_soundness_cases_fire_in_every_mode(pattern, title):
    _assert_every_mode(WhitelistRule(pattern, "t", rule_id="w1"), title, fires=True)


# Rules no tier of their own lowers: literal phrases of two or more words
# take verify-regex, an anchored class the compiler does not know runs its
# own matches_prepared (generic-anchored); clean and unclean titles.
REROUTED_CASES = [
    (WhitelistRule, "rose gold rings", "rose gold rings", True),
    (WhitelistRule, "tv|gold ring band", "a gold ring band", True),
    (WhitelistRule, "gold ring band", "Gold Ring Band!", True),
    (WhitelistRule, "gold ring band", "gold band ring", False),
    (WhitelistRule, "gold ring", "Gold Ring!", True),
    (WhitelistRule, "tv|gold ring", "ring gold", False),
    (_NarrowedWhitelist, "rings?", "gold ring", True),
    (_NarrowedWhitelist, "rings?", "rubber o-rings", True),
    (_NarrowedWhitelist, "gold ring tv", "gold ring tv", True),
    (_NarrowedWhitelist, "rings?", "glass ring", False),
]


@pytest.mark.parametrize("cls,pattern,title,fires", REROUTED_CASES)
def test_rerouted_rules_answer_alike_in_every_mode(cls, pattern, title, fires):
    _assert_every_mode(cls(pattern, "t", rule_id="w1"), title, fires)


def _every_mode(rules, items):
    """Each mode's fired map over ``rules`` (all enabled) and ``items``
    (distinct ids), with the batch's candidate count."""
    compiled = CompiledRuleSet(rules)
    swept = {item.item_id: compiled.match_item(item)[0] for item in items}
    batch, stats = compiled.execute(items)
    rules_first = IncrementalExecutor(rules=rules)
    rules_first.add_items(items)
    items_first = IncrementalExecutor(items=items)
    items_first.add_rules(rules)
    fired = {
        "naive": NaiveExecutor(rules).run(items)[0],
        "execute": batch,
        "match_item": {item_id: hits for item_id, hits in swept.items() if hits},
        "partitioned": PartitionedExecutor(rules, n_workers=2).run(items).fired,
        "rules_first": rules_first.fired_map(),
        "items_first": items_first.fired_map(),
    }
    return fired, stats.rule_evaluations


def _assert_every_mode(rule, title, fires):
    item = ProductItem(item_id="i1", title=title)
    expected = {"i1": ["w1"]} if fires else {}
    fired, _ = _every_mode([rule], [item])
    assert fired == dict.fromkeys(fired, expected)


# Two-word phrases, alone or beside a word (``gold ring``, ``tv|gold
# ring``): each verifies by its own compiled regex, under its anchors.
# Titles hold the phrase adjacent, split, reversed, repeated, pluralised
# and unclean.
_PHRASE_TITLES = [
    "{a} {b}", "x {a} {b} y", "{a} tv {b}", "{b} {a}", "{a} {b} {a} {b}",
    "{a} {a} {b}", "{a}s {b}", "{a} {b}s", "{A} {B}!", "{a}-{b}", "{a}, {b}",
    "café {a} {b}",
]


@settings(max_examples=100, deadline=None)
@given(_word, _word, _word, st.booleans(),
       st.lists(st.sampled_from(_PHRASE_TITLES), min_size=1, max_size=5))
def test_two_word_phrases_equal_the_reference_in_every_mode(first, second, word, mixed,
                                                             shapes):
    phrase = f"{first} {second}"
    rules = [
        WhitelistRule(f"{word}|{phrase}" if mixed else phrase, "t", rule_id="w1"),
        BlacklistRule(f"{second} {first}", "t", rule_id="b1"),
        SequenceRule([first, second], "t", rule_id="s1"),
    ]
    items = [
        ProductItem(item_id=f"i{n}", title=shape.format(
            a=first, b=second, A=first.upper(), B=second.title()))
        for n, shape in enumerate(shapes)
    ]
    fired, evaluations = _every_mode(rules, items)
    assert fired == dict.fromkeys(fired, fired["naive"])
    assert evaluations == sum(reference_evaluations(rules, item) for item in items)


def _fired_by_mode(executors, items):
    return {
        type(executor).__name__: (
            executor.run(items).fired if isinstance(executor, PartitionedExecutor)
            else executor.run(items)[0]
        )
        for executor in executors
    }


def test_reused_executors_follow_an_enabled_flag_flip():
    """An executor built once and run again after ``rule.enabled = False``
    must drop the disabled rule in every mode, sharded included."""
    rules = [
        WhitelistRule("rings?", "t", rule_id="w1"),
        WhitelistRule("gold", "t", rule_id="w2"),
    ]
    item = ProductItem(item_id="i1", title="gold ring")
    executors = [NaiveExecutor(rules), PartitionedExecutor(rules, n_workers=2)]
    for mode, fired in _fired_by_mode(executors, [item]).items():
        assert fired == {"i1": ["w1", "w2"]}, mode
    rules[0].enabled = False
    for mode, fired in _fired_by_mode(executors, [item]).items():
        assert fired == {"i1": ["w2"]}, mode


def test_every_mode_runs_a_predicate_rule():
    """A rule class with no serialized form runs in every mode."""
    rule = PredicateRule([Clause("gold", lambda thing: "gold" in thing.title)], "t",
                         rule_id="p1")
    item = ProductItem(item_id="i1", title="gold ring")
    executors = [NaiveExecutor([rule]), PartitionedExecutor([rule], n_workers=2)]
    for mode, fired in _fired_by_mode(executors, [item]).items():
        assert fired == {"i1": ["p1"]}, mode
    assert CompiledRuleSet([rule]).execute([item])[0] == {"i1": ["p1"]}
    assert IncrementalExecutor([rule], [item]).fired_map() == {"i1": ["p1"]}


# -- a repeated item id: its last occurrence decides its row -------------------------

REPEAT_RULES = [
    WhitelistRule("rings?", "rings", rule_id="ring"),
    WhitelistRule("(motor|engine) oils?", "motor oil", rule_id="oil"),
]
# With two shards the first batch puts the two "x" rows in different
# shards; in the second the later occurrence matches no rule.
REPEATED_ID_BATCHES = {
    "across-shards": ([("c", "nothing"), ("x", "gold ring"), ("x", "motor oil")],
                      {"x": ["oil"]}),
    "later-matches-nothing": ([("x", "gold ring"), ("x", "nothing")], {}),
}


def _batch(rows):
    return [ProductItem(item_id=item_id, title=title) for item_id, title in rows]


@pytest.mark.parametrize("name", sorted(REPEATED_ID_BATCHES))
def test_a_repeated_id_is_decided_by_its_last_occurrence_in_every_mode(name):
    rows, expected = REPEATED_ID_BATCHES[name]
    items = _batch(rows)
    fired = {
        "naive": NaiveExecutor(REPEAT_RULES).run(items)[0],
        "execute": CompiledRuleSet(REPEAT_RULES).execute(items)[0],
        "partitioned": PartitionedExecutor(REPEAT_RULES, n_workers=2).run(items).fired,
        "incremental": IncrementalExecutor(REPEAT_RULES, items).fired_map(),
    }
    assert fired == dict.fromkeys(fired, expected)


@pytest.mark.parametrize("failed_shard, skipped", [(None, set()), (0, {"c", "x"}), (1, set())])
def test_a_skipped_shard_skips_the_ids_it_owns(failed_shard, skipped):
    """The shard holding an id's last occurrence owns the id: the run
    equals the reference on every id it does not skip, so the scenario
    runner's fault-model check accepts it."""
    items = _batch(REPEATED_ID_BATCHES["across-shards"][0])
    plan = None if failed_shard is None else FaultPlan().crash(shard=failed_shard)
    run = PartitionedExecutor(REPEAT_RULES, n_workers=2, fault_plan=plan).run(items)
    reference = NaiveExecutor(REPEAT_RULES).run(items)[0]
    assert set(run.skipped_item_ids) == skipped
    assert run.fired == {k: v for k, v in reference.items() if k not in skipped}
    batch = SimpleNamespace(batch_id="b1", items=items)
    _check_fault_model(IncrementalExecutor(REPEAT_RULES, items), batch, run)


# -- the patched view is the from-scratch view, after every single op ---------------

# The interleaving above plus what only a subscribed executor sees: a
# duplicate id inside one batch, a retired id coming back, enable /
# disable arriving as rule-set events (``toggle_rule`` stays the
# ``rule.enabled = ...`` assignment, which on a set's rule calls the set),
# and removals naming live ids, ids removed already and ids never admitted.
_view_op = st.one_of(
    _op,
    st.tuples(st.just("duplicate_items"), _item_spec, _item_spec),
    st.tuples(st.just("readd_rule"), _pick, _rule_spec),
    st.tuples(st.just("toggle_event"), _pick),
    st.tuples(
        st.just("remove_items"),
        st.lists(_pick, max_size=3),
        st.integers(min_value=0, max_value=2),
    ),
)


def _apply_view_op(op, executors, ruleset, items, retired, item_ids, rule_ids):
    kind = op[0]
    live = sorted(rule.rule_id for rule in ruleset)
    if kind == "add_items":
        batch = [_item(f"i{next(item_ids):03d}", spec) for spec in op[1]]
        items.update((item.item_id, item) for item in batch)
        for executor in executors:
            executor.add_items(batch)
    elif kind == "relist_item" and items:
        item_id = sorted(items)[op[1] % len(items)]
        items[item_id] = _item(item_id, op[2])
        for executor in executors:
            executor.add_items([items[item_id]])
    elif kind == "duplicate_items":
        item_id = f"i{next(item_ids):03d}"
        batch = [_item(item_id, op[1]), _item(item_id, op[2])]
        items[item_id] = batch[-1]  # the later listing wins
        for executor in executors:
            executor.add_items(batch)
    elif kind == "add_rules":
        for build in op[1]:
            ruleset.add(build(f"r{next(rule_ids):03d}"))
    elif kind == "update_rule" and live:
        rule_id = live[op[1] % len(live)]
        edited = op[2](rule_id)
        edited.enabled = ruleset.is_enabled(rule_id)
        ruleset.replace(edited)
    elif kind == "remove_rule" and live:
        rule_id = live[op[1] % len(live)]
        ruleset.remove(rule_id)
        retired.append(rule_id)
    elif kind == "readd_rule" and retired:
        ruleset.add(op[2](retired.pop(op[1] % len(retired))))
    elif kind == "toggle_event" and live:
        rule_id = live[op[1] % len(live)]
        (ruleset.disable if ruleset.is_enabled(rule_id) else ruleset.enable)(rule_id)
    elif kind == "toggle_rule" and live:
        rule = ruleset.get(live[op[1] % len(live)])
        rule.enabled = not rule.enabled
    elif kind == "remove_items":
        held = sorted(items)
        gone = [held[pick % len(held)] for pick in op[1]] if held else []
        gone += [f"i{next(item_ids):03d}" for _ in range(op[2])]
        for item_id in gone:
            items.pop(item_id, None)
        for executor in executors:
            executor.remove_items(gone)


@settings(max_examples=100, deadline=None)
@given(st.lists(_view_op, min_size=1, max_size=16))
def test_patched_view_is_the_from_scratch_view_after_every_op(ops):
    """``fired_map()``, ``fired_pairs`` and ``fired_fingerprint()`` are
    patched over touched rows only; after each op they must equal what a
    ``NaiveExecutor`` run over the live state gives when recomputed from
    nothing — and a map handed out before the op must not have moved.
    Every tracked rule's store column, enabled or not, is the rows its
    condition holds on, recomputed from scratch. A second executor on the
    same set that is never asked for ``fired_map()`` patches ``fired_pairs``
    and ``fired_fingerprint()`` with no view built; at the end its first
    ``fired_map()`` builds one equal to the reference."""
    ruleset = RuleSet()
    executor, blind = IncrementalExecutor(), IncrementalExecutor()
    executor.attach_ruleset(ruleset)
    blind.attach_ruleset(ruleset)
    items, retired = {}, []
    item_ids, rule_ids = itertools.count(), itertools.count()
    for op in ops:
        before = executor.fired_map()
        frozen = copy.deepcopy(before)
        _apply_view_op(
            op, (executor, blind), ruleset, items, retired, item_ids, rule_ids
        )
        reference = _canonical(
            NaiveExecutor(list(ruleset)).run(list(items.values()))[0]
        )
        assert blind.fired_pairs == sum(len(hits) for hits in reference.values())
        assert blind.fired_fingerprint() == fingerprint_from_scratch(reference)
        assert blind._view is None
        fired = executor.fired_map()
        assert fired == reference
        assert list(fired) == list(reference)
        assert executor.fired_pairs == sum(len(hits) for hits in reference.values())
        assert executor.fired_fingerprint() == fingerprint_from_scratch(reference)
        assert before == frozen
        assert list(before) == list(frozen)
        for rule in ruleset:
            assert executor.fired_for_rule(rule.rule_id) == sorted(
                item_id for item_id, item in items.items() if rule.matches(item)
            )
    assert blind.fired_map() == reference
    assert list(blind.fired_map()) == list(reference)


def _refuse(self, *args, **kwargs):
    raise AssertionError("full-store walk on the served read path")


class _NoWalkDict(dict):
    """A dict that may be probed by key but never walked."""

    __iter__ = keys = values = items = _refuse


class _NoWalkList(list):
    """A list that may be indexed and grown but never walked."""

    __iter__ = __reversed__ = __contains__ = index = count = _refuse


def _batch_epilogue(monkeypatch, view_built):
    """After 40 batches, one more batch of k items hashes at most 2k rows
    (new row in; a re-listed row's old hash out) and walks neither the
    store nor, once a read built it, the view; then the patched values
    equal the from-scratch ones."""
    rules = [
        WhitelistRule("rings?", "t", rule_id="w1"),
        WhitelistRule("gold", "t", rule_id="w2"),
        SequenceRule(["gold", "ring"], "t", rule_id="s1"),
        BlacklistRule("toy", "t", rule_id="b1"),
    ]
    titles = ["gold ring", "toy rings", "plain band", "gold toy", "silver ring"]
    executor = IncrementalExecutor(rules=rules)
    serial = itertools.count()

    def batch(size):
        return [
            ProductItem(item_id=f"i{n:05d}", title=titles[n % len(titles)])
            for n in itertools.islice(serial, size)
        ]

    for _ in range(40):
        executor.add_items(batch(25))
        executor.fired_fingerprint()
    assert executor.item_count == 1000
    if view_built:
        executor.fired_map()

    hashed = []
    real_row_hash = incremental_module._row_hash
    monkeypatch.setattr(
        incremental_module, "_row_hash",
        lambda item_id, rule_ids: hashed.append(item_id) or real_row_hash(item_id, rule_ids),
    )
    executor.store._by_row = _NoWalkList(executor.store._by_row)
    if view_built:
        executor._view = _NoWalkDict(executor._view)

    k = 20
    arriving = batch(k - 2) + [
        # two re-listings whose rows change: old hash out, new hash in
        ProductItem(item_id="i00000", title="plain band"),
        ProductItem(item_id="i00002", title="gold ring"),
    ]
    executor.add_items(arriving)
    fingerprint, pairs = executor.fired_fingerprint(), executor.fired_pairs
    assert 0 < len(hashed) <= 2 * k
    assert set(hashed) <= {item.item_id for item in arriving}
    assert (executor._view is None) is not view_built

    # ... and the patched values are the from-scratch ones.
    executor.store._by_row = executor.store._by_row[:]
    if view_built:
        executor._view = dict(dict.items(executor._view))
    reference = store_fired_map(
        executor.store, executor._data_index.ids, frozenset(rule.rule_id for rule in rules)
    )
    assert fingerprint == fingerprint_from_scratch(reference)
    assert pairs == sum(len(hits) for hits in reference.values())
    assert executor.fired_map() == reference
    # i00002 gained its first row below the largest id held: still sorted.
    assert list(executor.fired_map()) == list(reference)


def test_batch_epilogue_costs_the_batch_not_the_store(monkeypatch):
    """No read has built the view: the epilogue patches the pair count and
    the fingerprint alone, and the first ``fired_map()`` builds the view."""
    _batch_epilogue(monkeypatch, view_built=False)


def test_batch_epilogue_patches_a_built_view_without_walking_it(monkeypatch):
    _batch_epilogue(monkeypatch, view_built=True)
