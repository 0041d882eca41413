"""Hypothesis round-trip properties for rule serialization.

Every registered (serializable) rule class must survive
``rule_to_dict → json → rule_from_dict`` with its logic, metadata, and
match behaviour intact — rules outlive processes, so the wire form is the
contract workers and rule stores depend on.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core.prepared import prepare
from repro.core.rule import (
    AttributeRule,
    BlacklistRule,
    PredicateRule,
    RegexRule,
    Rule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
)
from repro.core.serialize import (
    UnserializableRuleError,
    rule_from_dict,
    rule_to_dict,
    rules_from_dicts,
    rules_to_dicts,
)

SERIALIZABLE = (WhitelistRule, BlacklistRule, SequenceRule, AttributeRule,
                ValueConstraintRule)

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=8)
type_names = words
# A safe regex subset: alternations of literal words, optional plural.
patterns = st.lists(words, min_size=1, max_size=3).map(
    lambda ws: "|".join(ws)
)
metadata = st.fixed_dictionaries({
    "rule_id": st.integers(min_value=0, max_value=10**6).map(lambda n: f"r-{n}"),
    "author": words,
    "created_at": st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    "confidence": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    "provenance": st.sampled_from(["manual", "learned", "imported"]),
})

whitelists = st.builds(
    lambda p, t, m: WhitelistRule(p, t, **m), patterns, type_names, metadata)
blacklists = st.builds(
    lambda p, t, m: BlacklistRule(p, t, **m), patterns, type_names, metadata)
sequences = st.builds(
    lambda tokens, t, support, m: SequenceRule(tokens, t, support=support, **m),
    st.lists(words, min_size=1, max_size=4),
    type_names,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    metadata,
)
attributes = st.builds(
    lambda a, t, m: AttributeRule(a, t, **m), words, type_names, metadata)
values = st.builds(
    lambda a, v, allowed, m: ValueConstraintRule(a, v, allowed, **m),
    words, words, st.lists(type_names, min_size=1, max_size=3), metadata)

any_rule = st.one_of(whitelists, blacklists, sequences, attributes, values)

items = st.builds(
    lambda title_words, attrs: ProductItem(
        item_id="x", title=" ".join(title_words), attributes=attrs
    ),
    st.lists(words, min_size=0, max_size=6),
    st.dictionaries(words, words, max_size=3),
)


def roundtrip(rule):
    """Through the full wire format: dict → JSON text → dict → rule."""
    return rule_from_dict(json.loads(json.dumps(rule_to_dict(rule))))


@settings(max_examples=60, deadline=None)
@given(rule=any_rule, enabled=st.booleans())
def test_roundtrip_preserves_identity_and_metadata(rule, enabled):
    rule.enabled = enabled
    clone = roundtrip(rule)
    assert type(clone) is type(rule)
    assert clone.rule_id == rule.rule_id
    assert clone.author == rule.author
    assert clone.created_at == rule.created_at
    assert clone.confidence == rule.confidence
    assert clone.provenance == rule.provenance
    assert clone.enabled == rule.enabled
    assert clone.target_type == rule.target_type


@settings(max_examples=60, deadline=None)
@given(rule=any_rule, probe_items=st.lists(items, min_size=1, max_size=8))
def test_roundtrip_preserves_match_behaviour(rule, probe_items):
    clone = roundtrip(rule)
    for thing in probe_items:
        assert clone.matches(thing) == rule.matches(thing)
        prepared = prepare(thing)
        assert clone.matches_prepared(prepared) == rule.matches_prepared(prepared)


@settings(max_examples=60, deadline=None)
@given(rule=any_rule)
def test_double_roundtrip_is_stable(rule):
    once = rule_to_dict(rule)
    twice = rule_to_dict(roundtrip(rule))
    assert once == twice


@settings(max_examples=40, deadline=None)
@given(rules=st.lists(any_rule, max_size=6))
def test_bulk_roundtrip_preserves_order(rules):
    clones = rules_from_dicts(json.loads(json.dumps(rules_to_dicts(rules))))
    assert [c.rule_id for c in clones] == [r.rule_id for r in rules]
    assert [type(c) for c in clones] == [type(r) for r in rules]


def _concrete_rule_classes():
    """Every concrete Rule subclass reachable from the core package (the
    library's own: a test module's rule double is not one)."""
    import repro.core.language  # noqa: F401 -- registers its Rule subclasses

    found = set()
    frontier = [Rule]
    while frontier:
        cls = frontier.pop()
        subclasses = cls.__subclasses__()
        frontier.extend(subclasses)
        # RegexRule is an intermediate base; Rule and it are not concrete.
        if cls not in (Rule, RegexRule) and cls.__module__.startswith("repro."):
            found.add(cls)
    return found


def test_every_registered_rule_class_is_covered():
    """No rule class can be added without a serialization decision.

    Each concrete class must either round-trip (and be exercised by the
    properties above) or be explicitly documented as unserializable.
    """
    from repro.core.language import ConstraintRule

    # Clause-carrying rules hold closures; the DSL text is their stable form.
    documented_unserializable = {PredicateRule, ConstraintRule}
    assert _concrete_rule_classes() == set(SERIALIZABLE) | documented_unserializable


def test_predicate_rules_refuse_to_serialize():
    from repro.core.rule import Clause

    bomb = PredicateRule([Clause("always", lambda item: True)], "t", rule_id="p-1")
    try:
        rule_to_dict(bomb)
    except UnserializableRuleError as err:
        assert "PredicateRule" in str(err)
    else:
        raise AssertionError("expected UnserializableRuleError")


def test_sequence_support_defaults_when_absent():
    payload = rule_to_dict(SequenceRule(("area", "rug"), "area rugs", support=0.7))
    del payload["support"]
    assert rule_from_dict(payload).support == 0.0
