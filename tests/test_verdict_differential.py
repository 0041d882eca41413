"""The served path's verdict equals the reference, under churn.

``RuleSet.apply`` — every active rule's condition against the item,
whitelists → constraints → blacklists — is the executable definition of a
rule set's verdict. The served path never runs it: a pipeline holds one
engine over its four rule sets (gate bypass, rule-based, attr-value,
filter), reads each item's row from it once — the ``MatchStore`` row the
arriving batch wrote, else one evaluation — and every consumer folds its
own set's ids (``RuleFold.verdict`` → ``RuleSet.fold``). Two
differentials hold the paths equal:

* a hypothesis property over random interleavings of rule and item churn
  (the strategies of ``test_execution_differential.py``, widened to several
  target types, tied confidences, constraint intersections and blacklists)
  with rules landing in all four sets, for a tracked pipeline — churned in
  place, rebuilt rules-first and rebuilt items-first — and an untracked
  one; the tracked engine's fired map stays ``NaiveExecutor``'s over the
  rule-based set alone;
* a ``StreamService`` under rule churn with a kill and a resume, against a
  run whose consumers are forced through ``RuleSet.apply`` by a
  monkeypatch: equal identity, equal provenance spool bytes, equal digest
  chain.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chimera import Chimera, GateKeeper, RuleFold
from repro.chimera.classifiers import AttributeValueClassifier
from repro.core import (
    AttributeRule,
    BlacklistRule,
    RuleSet,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
    parse_rule,
    parse_rules,
)
from repro.core.errors import DuplicateRuleError
from repro.core.rule import Prediction
from repro.execution import NaiveExecutor
from repro.repository import RuleRepository, bind_chimera
from repro.service.checkpoint import SPOOL_NAME
from repro.service.daemon import ServiceConfig, StreamService
from repro.testing.faults import CrashPlan, SimulatedCrash, simulated_kill
from tests import test_execution_differential as engine_differential
from tests.test_execution_differential import _attribute, _item, _pick, _value

_regex = engine_differential._regex
_word = engine_differential._word
_item_spec = engine_differential._item_spec

_type = st.sampled_from(["t", "u", "v"])
# Few distinct weights on purpose: equal-weight votes for one label must
# keep the earlier rule in live order.
_confidence = st.sampled_from([0.5, 0.8, 1.0])
_allowed = st.lists(_type, min_size=2, max_size=3, unique=True)
# Three words that half the rules and half the titles are made of, so
# several rules fire on one item: ties, intersections and vetoes happen.
_hot = st.sampled_from(["gold", "ring", "tv"])
_regex = st.one_of(_hot, _regex)
_word = st.one_of(_hot, _word)
_item_spec = st.one_of(
    _item_spec,
    st.tuples(
        st.lists(_hot, min_size=1, max_size=3).map(" ".join),
        st.sampled_from([{}, {"brand": "apple"}, {"isbn": "9", "brand": "acme"}]),
    ),
)

_rule_spec = st.one_of(
    st.builds(
        lambda p, t, c: lambda rid: WhitelistRule(p, t, rule_id=rid, confidence=c),
        _regex, _type, _confidence,
    ),
    st.builds(lambda p, t: lambda rid: BlacklistRule(p, t, rule_id=rid), _regex, _type),
    st.builds(
        lambda seq, t, c: lambda rid: SequenceRule(seq, t, rule_id=rid, confidence=c),
        st.lists(_word, min_size=1, max_size=3), _type, _confidence,
    ),
    st.builds(
        lambda a, t, c: lambda rid: AttributeRule(a, t, rule_id=rid, confidence=c),
        _attribute, _type, _confidence,
    ),
    st.builds(
        lambda a, v, allowed: lambda rid: ValueConstraintRule(a, v, allowed, rule_id=rid),
        _attribute, _value, st.lists(_type, min_size=1, max_size=3, unique=True),
    ),
    # predicate / constraint rules through the analyst DSL
    st.builds(
        lambda p, a, t: lambda rid: parse_rule(
            f"title ~ {p} & attr({a}) -> {t}", rule_id=rid
        ),
        _regex, _attribute, _type,
    ),
    st.builds(
        lambda p, t: lambda rid: parse_rule(f"{p} & price < 100 -> NOT {t}", rule_id=rid),
        _regex, _type,
    ),
    st.builds(
        lambda p, v, allowed: lambda rid: parse_rule(
            f"title ~ {p} & value(brand)={v} -> {'|'.join(allowed)}", rule_id=rid
        ),
        _regex, _value, _allowed,
    ),
)

#: Which of the pipeline's four rule sets a new rule lands in.
_slot = st.integers(min_value=0, max_value=3)

_op = st.one_of(
    st.tuples(st.just("add_items"), st.lists(_item_spec, min_size=1, max_size=4)),
    st.tuples(st.just("duplicate_id_in_batch"), _item_spec, _item_spec),
    st.tuples(st.just("relist_item"), _pick, _item_spec),
    st.tuples(
        st.just("add_rules"), st.lists(st.tuples(_slot, _rule_spec), min_size=1, max_size=3)
    ),
    st.tuples(st.just("replace_rule"), _pick, _rule_spec),
    st.tuples(st.just("twin_rule"), _pick),  # same condition, label and weight: a tie
    st.tuples(st.just("remove_and_readd"), _pick),
    st.tuples(st.just("remove_rule"), _pick),
    st.tuples(st.just("toggle_rule"), _pick),
)


def _consumers(chimera):
    """Each rule set's consumer with the place of its ids in an item's hits."""
    return (
        (chimera.gatekeeper, 0),
        (chimera.rule_stage, 1),
        (chimera.attr_stage, 2),
        (chimera.filter, 3),
    )


def _sets(chimera):
    return [consumer.rules for consumer, _ in _consumers(chimera)]


class _Churned:
    """A tracked and an untracked pipeline under the same rule churn."""

    def __init__(self):
        self.tracked = Chimera.build()
        self.engine = self.tracked.engine
        self.untracked = Chimera.build()
        self.pipelines = (self.tracked, self.untracked)
        self.live = {}     # item_id -> the record the engine holds
        self.records = []  # every record ever made, shadowed and re-listed too
        self._item_ids = itertools.count()
        self._rule_ids = itertools.count()

    def _record(self, item_id, spec):
        record = _item(item_id, spec)
        self.records.append(record)
        return record

    def _admit(self, batch):
        self.engine.add_items(batch)
        self.live.update((record.item_id, record) for record in batch)

    def apply(self, op):
        kind = op[0]
        if kind == "add_items":
            self._admit([
                self._record(f"i{next(self._item_ids):03d}", spec) for spec in op[1]
            ])
        elif kind == "duplicate_id_in_batch":
            item_id = f"i{next(self._item_ids):03d}"
            self._admit([self._record(item_id, op[1]), self._record(item_id, op[2])])
        elif kind == "relist_item":
            if self.live:
                item_id = sorted(self.live)[op[1] % len(self.live)]
                self._admit([self._record(item_id, op[2])])
        elif kind == "add_rules":
            for slot, build in op[1]:
                rule_id = f"r{next(self._rule_ids):03d}"
                for chimera in self.pipelines:
                    _sets(chimera)[slot].add(build(rule_id))
        else:
            held = sorted(
                (rule.rule_id, slot)
                for slot, rules in enumerate(_sets(self.tracked)) for rule in rules
            )
            if held:
                rule_id, slot = held[op[1] % len(held)]
                twin_id = f"{rule_id}-twin{next(self._rule_ids)}"
                for chimera in self.pipelines:
                    self._edit_rule(_sets(chimera)[slot], kind, rule_id, twin_id, op)

    @staticmethod
    def _edit_rule(rules, kind, rule_id, twin_id, op):
        if kind == "replace_rule":
            edited = op[2](rule_id)
            edited.enabled = rules.is_enabled(rule_id)
            rules.replace(edited)
        elif kind == "twin_rule":
            twin = copy.copy(rules.get(rule_id))
            twin.rule_id = twin_id
            rules.add(twin)
        elif kind == "remove_and_readd":
            rules.add(rules.remove(rule_id))
        elif kind == "remove_rule":
            rules.remove(rule_id)
        elif rules.is_enabled(rule_id):  # toggle_rule
            rules.disable(rule_id)
        else:
            rules.enable(rule_id)


def _assert_stage_equals_reference(stage, record, hits):
    """Verdict, votes, trace and constraints against ``RuleSet.apply``."""
    expected = stage.rules.apply(record)
    votes = [
        Prediction(p.label, weight=p.weight, source=f"{stage.name}:{p.source}")
        for p in expected.predictions
    ]
    answer = stage.answer(record, traced=True, hits=hits)
    assert answer.votes == votes
    trace = answer.trace
    if expected.fired or expected.vetoed or expected.constrained_to is not None:
        assert trace.fired == expected.fired
        assert trace.votes == tuple((p.label, p.weight, p.source) for p in votes)
        assert trace.vetoed == expected.vetoed
        assert trace.constrained_to == expected.constrained_to
    else:
        assert trace is None
    allowed = stage.constraints(record, hits)
    assert answer.allowed == allowed
    if isinstance(stage, AttributeValueClassifier) and expected.constrained_to is not None:
        assert allowed == set(expected.constrained_to)
    else:
        assert allowed is None


def _assert_pipeline_equals_reference(chimera, records):
    """Every consumer, folding its slice of the one row the pipeline reads,
    and on its own, against ``RuleSet.apply``."""
    live = chimera._live()
    for record in records:
        view, hits = chimera._read(record, live)
        if chimera.gatekeeper.rejects(view):
            continue  # junk: the gate rejects it before any fold
        for consumer, slot in _consumers(chimera):
            expected = consumer.rules.apply(record)
            assert consumer.verdict(view, hits[slot]) == expected
            assert consumer.verdict(record) == expected
        _assert_stage_equals_reference(chimera.rule_stage, view, hits[1])
        _assert_stage_equals_reference(chimera.attr_stage, view, hits[2])
        best = chimera.gatekeeper.rules.apply(record).best()
        assert chimera.gatekeeper.process(view, hits[0]).label == (
            best.label if best is not None else None
        )



def _assert_fired_map_is_the_rule_stage(chimera, records):
    reference, _ = NaiveExecutor(list(chimera.rule_stage.rules)).run(records)
    assert chimera.engine.fired_map() == reference


def _rebuilt(source, items, rules_first: bool):
    """A fresh tracked pipeline over ``source``'s four sets, in live order."""
    chimera = Chimera.build()
    if not rules_first:
        chimera.engine.add_items(items)
    for rules, source_rules in zip(_sets(chimera), _sets(source)):
        rules.extend(source_rules)
    if rules_first:
        chimera.engine.add_items(items)
    return chimera


@settings(max_examples=120, deadline=None)
@given(st.lists(_op, min_size=1, max_size=14))
def test_stage_verdicts_equal_apply_under_churn(ops):
    world = _Churned()
    for op in ops:
        world.apply(op)
        # After every step, on every record ever seen: the live ones are
        # row reads, the shadowed and re-listed ones go through the engine.
        for chimera in world.pipelines:
            _assert_pipeline_equals_reference(chimera, world.records)
        _assert_fired_map_is_the_rule_stage(world.tracked, list(world.live.values()))

    live = list(world.live.values())
    tracked = [world.tracked]
    for rules_first in (True, False):
        tracked.append(_rebuilt(world.tracked, live, rules_first))
        _assert_pipeline_equals_reference(tracked[-1], world.records)
        _assert_fired_map_is_the_rule_stage(tracked[-1], live)
    # No second evaluation of an item the engine holds: reading every live
    # record's row moves no evaluation counter.
    for chimera in tracked:
        before = chimera.engine.stats.rule_evaluations
        for record in live:
            chimera._read(record, chimera._live())
        assert chimera.engine.stats.rule_evaluations == before


def test_equal_weight_tie_keeps_the_earlier_rule_in_live_order():
    chimera = Chimera.build()
    rules = chimera.rule_stage.rules
    rules.extend(parse_rules("rings? -> rings\ngold -> rings"))
    first, second = [rule.rule_id for rule in rules]
    item = _item("i1", ("gold ring", {}))

    def verdict():
        view, hits = chimera._read(item, chimera._live())
        return chimera.rule_stage.verdict(view, hits[1])

    assert verdict().predictions[0].source == first
    # replace keeps the place; remove-and-re-add goes last
    rules.replace(rules.get(first))
    assert verdict().predictions[0].source == first
    rules.add(rules.remove(first))
    assert verdict() == rules.apply(item)
    assert verdict().predictions[0].source == second
    assert verdict().fired == (second, first)


def test_fold_rejects_an_id_the_set_does_not_hold():
    from repro.core.errors import UnknownRuleError

    with pytest.raises(UnknownRuleError):
        RuleSet().fold(["ghost"])


def test_a_rule_id_names_one_rule_per_pipeline():
    """The four sets share one engine, so one id space: adding an id
    another set holds is refused before the change log records it."""
    chimera = Chimera.build()
    repository = RuleRepository()
    bind_chimera(repository, chimera)
    chimera.add_whitelist_rules([parse_rule("rings? -> rings", rule_id="r1")])
    logged = len(repository.log)
    with pytest.raises(DuplicateRuleError, match="already in 'rule-based', not added to 'filter'"):
        chimera.add_blacklist_rules([parse_rule("toy -> NOT rings", rule_id="r1")])
    assert "r1" not in chimera.filter.rules
    assert len(repository.log) == logged
    assert chimera.engine.rule_count == 1
    # A retired id is free for any set again.
    chimera.rule_stage.rules.remove("r1")
    chimera.add_blacklist_rules([parse_rule("toy -> NOT rings", rule_id="r1")])
    assert chimera.engine.rule_count == 1
    # Stages that already share an id cannot form one pipeline.
    gate = GateKeeper(
        RuleSet([parse_rule("gift cards? -> gift cards", rule_id="r1")], name="gate")
    )
    with pytest.raises(DuplicateRuleError, match="both 'gate' and 'filter'"):
        Chimera(
            gate, chimera.rule_stage, chimera.attr_stage,
            chimera.learning_stage, chimera.voting, chimera.filter,
        )


# -- service level -------------------------------------------------------------------

BATCHES = 8
_POOL = parse_rules(
    """
    rings? -> rings
    (gold|silver) .* rings? -> rings
    jeans? -> jeans
    laptops? -> laptop computers
    rugs? -> area rugs
    oils? -> motor oil
    """
)


def _clone(donor, rule_id: str, **changes):
    rule = copy.copy(donor)
    rule.rule_id = rule_id
    for name, value in changes.items():
        setattr(rule, name, value)
    return rule


def _edit(service, ordinal: int) -> None:
    """The rule churn ahead of batch ``ordinal``: a function of the ordinal
    and of the state checkpointed before it, so a resumed run repeats it."""
    chimera = service.chimera
    rules = chimera.rule_stage.rules
    rules.add(_clone(
        _POOL[ordinal % len(_POOL)], f"edit-{ordinal:03d}",
        confidence=(0.5, 0.8, 1.0)[ordinal % 3],
    ))
    victim = sorted(rule.rule_id for rule in rules)[ordinal * 7 % len(rules)]
    if ordinal % 2:
        rules.replace(_clone(
            _POOL[(ordinal + 1) % len(_POOL)], victim,
            enabled=rules.is_enabled(victim),
        ))
    else:
        rules.add(rules.remove(victim))  # re-added: now last in live order
    if ordinal % 3 == 0:
        rules.disable(victim)
    if f"edit-{ordinal - 2:03d}" in rules:
        rules.remove(f"edit-{ordinal - 2:03d}")
    if ordinal == 2:
        chimera.add_blacklist_rules(
            [parse_rule("key rings? -> NOT rings", rule_id="flt-001")]
        )
        chimera.add_attribute_rules(
            [parse_rule("attr(isbn) -> books", rule_id="att-001")]
        )


def _serve(root: str, crash_on_hit=None):
    """Churn + serve to BATCHES (through one kill and resume when asked);
    returns ``(identity_json, spool bytes, digest chain)``."""
    config = ServiceConfig(seed=5, training=0)
    plan = (
        CrashPlan(crash_at="classified", on_hit=crash_on_hit)
        if crash_on_hit else CrashPlan()
    )
    service = StreamService(root, config=config, fsync=False, crash_plan=plan)
    try:
        service.start()
        while service.ordinal < BATCHES:
            _edit(service, service.ordinal + 1)
            service.process_batch()
    except SimulatedCrash:
        simulated_kill(service)
        service = StreamService(root, fsync=False).start()
        assert service.resumed
        while service.ordinal < BATCHES:
            _edit(service, service.ordinal + 1)
            service.process_batch()
    try:
        with open(f"{root}/{SPOOL_NAME}", "rb") as handle:
            return service.identity_json(), handle.read(), service.digest_chain
    finally:
        service.close()


def test_service_under_churn_and_kill_equals_the_apply_forced_run(tmp_path, monkeypatch):
    served = _serve(str(tmp_path / "served"), crash_on_hit=5)
    monkeypatch.setattr(
        RuleFold, "verdict", lambda self, item, hits=None: self.rules.apply(item)
    )
    reference = _serve(str(tmp_path / "reference"))
    assert served[0] == reference[0]
    assert served[1] == reference[1] and len(served[1]) > 10_000
    assert served[2] == reference[2]
