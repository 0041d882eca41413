"""The served path's verdict equals the reference, under churn.

``RuleSet.apply`` — every active rule's condition against the item,
whitelists → constraints → blacklists — is the executable definition of a
stage's verdict. The served path never runs it: each stage folds the rule
ids the compiled engine reports (``RuleSetMatcher.verdict`` →
``RuleSet.fold``), and the tracked stage reads them from the ``MatchStore``
row the arriving batch wrote. Two differentials hold the paths equal:

* a hypothesis property over random interleavings of rule and item churn
  (the strategies of ``test_execution_differential.py``, widened to several
  target types, tied confidences, constraint intersections and blacklists),
  for a tracked stage — churned in place, rebuilt rules-first and rebuilt
  items-first — and an untracked one;
* a ``StreamService`` under rule churn with a kill and a resume, against a
  run whose matchers are forced through ``RuleSet.apply`` by a monkeypatch:
  equal identity, equal provenance spool bytes, equal digest chain.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chimera import Chimera
from repro.chimera.classifiers import AttributeValueClassifier
from repro.chimera.matching import RuleSetMatcher
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
from repro.core.rule import Prediction
from repro.service.checkpoint import SPOOL_NAME
from repro.service.daemon import ServiceConfig, StreamService
from repro.testing.faults import CrashPlan, SimulatedCrash
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

_op = st.one_of(
    st.tuples(st.just("add_items"), st.lists(_item_spec, min_size=1, max_size=4)),
    st.tuples(st.just("duplicate_id_in_batch"), _item_spec, _item_spec),
    st.tuples(st.just("relist_item"), _pick, _item_spec),
    st.tuples(st.just("add_rules"), st.lists(_rule_spec, min_size=1, max_size=3)),
    st.tuples(st.just("replace_rule"), _pick, _rule_spec),
    st.tuples(st.just("twin_rule"), _pick),  # same condition, label and weight: a tie
    st.tuples(st.just("remove_and_readd"), _pick),
    st.tuples(st.just("remove_rule"), _pick),
    st.tuples(st.just("toggle_rule"), _pick),
)


class _Churned:
    """One tracked and one untracked stage under the same rule churn."""

    def __init__(self):
        chimera = Chimera.build()
        self.tracked = chimera.rule_stage
        self.tracker = chimera.track_fired_map("rule-based")
        self.untracked = AttributeValueClassifier()
        self.stages = (self.tracked, self.untracked)
        for stage in self.stages:
            stage.record_provenance = True
        self.live = {}     # item_id -> the record the tracker holds
        self.records = []  # every record ever made, shadowed and re-listed too
        self._item_ids = itertools.count()
        self._rule_ids = itertools.count()

    def _record(self, item_id, spec):
        record = _item(item_id, spec)
        self.records.append(record)
        return record

    def _admit(self, batch):
        self.tracker.add_items(batch)
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
            for build in op[1]:
                rule_id = f"r{next(self._rule_ids):03d}"
                for stage in self.stages:
                    stage.rules.add(build(rule_id))
        elif len(self.tracked.rules):
            rule_ids = sorted(rule.rule_id for rule in self.tracked.rules)
            rule_id = rule_ids[op[1] % len(rule_ids)]
            for stage in self.stages:
                self._edit_rule(stage.rules, kind, rule_id, op)

    @staticmethod
    def _edit_rule(rules, kind, rule_id, op):
        if kind == "replace_rule":
            edited = op[2](rule_id)
            edited.enabled = rules.is_enabled(rule_id)
            rules.replace(edited)
        elif kind == "twin_rule":
            twin = copy.copy(rules.get(rule_id))
            twin.rule_id = f"{rule_id}-twin{len(rules)}"
            if twin.rule_id not in rules:
                rules.add(twin)
        elif kind == "remove_and_readd":
            rules.add(rules.remove(rule_id))
        elif kind == "remove_rule":
            rules.remove(rule_id)
        elif rules.is_enabled(rule_id):  # toggle_rule
            rules.disable(rule_id)
        else:
            rules.enable(rule_id)


def _assert_stage_equals_reference(stage, records):
    """Verdict, votes, trace and constraints against ``RuleSet.apply``."""
    for record in records:
        expected = stage.rules.apply(record)
        assert stage.matcher.verdict(record) == expected
        votes = [
            Prediction(p.label, weight=p.weight, source=f"{stage.name}:{p.source}")
            for p in expected.predictions
        ]
        assert stage.predict(record) == votes
        answer = stage.answer(record)
        assert answer.votes == votes
        trace = answer.trace
        if expected.fired or expected.vetoed or expected.constrained_to is not None:
            assert trace.fired == expected.fired
            assert trace.votes == tuple((p.label, p.weight, p.source) for p in votes)
            assert trace.vetoed == expected.vetoed
            assert trace.constrained_to == expected.constrained_to
        else:
            assert trace is None
        allowed = stage.constraints(record)
        assert answer.allowed == allowed
        if isinstance(stage, AttributeValueClassifier) and expected.constrained_to is not None:
            assert allowed == set(expected.constrained_to)
        else:
            assert allowed is None


def _rebuilt(source: RuleSet, items, rules_first: bool):
    """A fresh tracked stage over ``source``'s rules, in its live order."""
    chimera = Chimera.build()
    stage = chimera.rule_stage
    stage.record_provenance = True
    if rules_first:
        stage.rules.extend(source)
        chimera.track_fired_map("rule-based").add_items(items)
    else:
        chimera.track_fired_map("rule-based", items=items)
        stage.rules.extend(source)
    return stage, chimera.fired_trackers["rule-based"]


@settings(max_examples=120, deadline=None)
@given(st.lists(_op, min_size=1, max_size=14))
def test_stage_verdicts_equal_apply_under_churn(ops):
    world = _Churned()
    for op in ops:
        world.apply(op)
        # After every step, on every record ever seen: the live ones are
        # row reads, the shadowed and re-listed ones go through the engine.
        for stage in world.stages:
            _assert_stage_equals_reference(stage, world.records)

    live = list(world.live.values())
    tracked = [(world.tracked, world.tracker)]
    for rules_first in (True, False):
        tracked.append(_rebuilt(world.tracked.rules, live, rules_first))
        _assert_stage_equals_reference(tracked[-1][0], world.records)
    # No second evaluation of an item the store holds: classifying every
    # live record moves no evaluation counter, and a tracked stage lowers
    # no compiled set of its own.
    for stage, tracker in tracked:
        before = tracker.stats.rule_evaluations
        for record in live:
            stage.matcher.verdict(record)
        assert tracker.stats.rule_evaluations == before
        assert stage.matcher._compiled is None


def test_equal_weight_tie_keeps_the_earlier_rule_in_live_order():
    rules = RuleSet(parse_rules("rings? -> rings\ngold -> rings"))
    first, second = [rule.rule_id for rule in rules]
    item = _item("i1", ("gold ring", {}))
    matcher = RuleSetMatcher(rules)
    assert matcher.verdict(item).predictions[0].source == first
    # replace keeps the place; remove-and-re-add goes last
    rules.replace(rules.get(first))
    assert matcher.verdict(item).predictions[0].source == first
    rules.add(rules.remove(first))
    assert matcher.verdict(item) == rules.apply(item)
    assert matcher.verdict(item).predictions[0].source == second
    assert matcher.verdict(item).fired == (second, first)


def test_fold_rejects_an_id_the_set_does_not_hold():
    from repro.core.errors import UnknownRuleError

    with pytest.raises(UnknownRuleError):
        RuleSet().fold(["ghost"])


def test_matcher_leaves_a_detached_tracker():
    chimera = Chimera.build()
    chimera.add_whitelist_rules(parse_rules("rings? -> rings"))
    item = _item("i1", ("gold ring", {}))
    tracker = chimera.track_fired_map("rule-based", items=[item])
    tracker.detach()
    # The detached tracker no longer hears rule churn; the stage must not
    # read its rows.
    chimera.add_whitelist_rules(parse_rules("gold -> jewelry"))
    assert chimera.rule_stage.matcher.verdict(item) == chimera.rule_stage.rules.apply(item)
    assert len(chimera.rule_stage.matcher.verdict(item).fired) == 2


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
        # A SIGKILL'd process runs no cleanup: release OS handles only.
        service.store.close()
        service.series.close()
        service.provenance.close()
        service.repository.log.close()
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
        RuleSetMatcher, "verdict", lambda self, item: self.rules.apply(item)
    )
    reference = _serve(str(tmp_path / "reference"))
    assert served[0] == reference[0]
    assert served[1] == reference[1] and len(served[1]) > 10_000
    assert served[2] == reference[2]
