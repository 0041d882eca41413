"""Property tests: all executors agree, byte for byte, on any corpus.

The prepared-item fast path is an optimization, not a semantics change:
Naive, Indexed, and Partitioned executors must produce identical ``fired``
maps over randomized rule/item corpora — including plural anchors (the
index's singular-bridging), residue rules (attribute rules with no title
anchor), alternation regexes, and disabled rules.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core import (
    AttributeRule,
    BlacklistRule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
)
from repro.execution import (
    CompiledRuleSet,
    NaiveExecutor,
    PartitionedExecutor,
)
from tests.candidate_reference import reference_evaluations

# A vocabulary engineered to exercise the tricky corners: plural/singular
# pairs ("ring"/"rings"), stop words ("with", "for"), shared stems, and
# tokens that appear in both rules and titles.
VOCAB = (
    "ring rings gold diamond area rug rugs motor engine oil jeans denim "
    "relaxed fit mystery novel gadget lamp shade with for 5x7 pack blue"
).split()

_ids = itertools.count()

tokens = st.sampled_from(VOCAB)
titles = st.lists(tokens, min_size=1, max_size=8).map(" ".join)


@st.composite
def items(draw):
    title = draw(titles)
    attrs = {}
    if draw(st.booleans()):
        attrs["isbn"] = "978"
    if draw(st.booleans()):
        attrs["brand_name"] = draw(st.sampled_from(["apple", "castrol", "shaw"]))
    return ProductItem(item_id=f"item-{next(_ids):06d}", title=title, attributes=attrs)


@st.composite
def regex_rules(draw):
    cls = draw(st.sampled_from([WhitelistRule, BlacklistRule]))
    base = draw(tokens)
    if draw(st.booleans()):
        pattern = f"{base}s?"
    elif draw(st.booleans()):
        pattern = f"({base}|{draw(tokens)})"
    else:
        pattern = f"{base} {draw(tokens)}"
    return cls(pattern, "some type", rule_id=f"rx-{next(_ids):06d}")


@st.composite
def sequence_rules(draw):
    sequence = tuple(draw(st.lists(tokens, min_size=1, max_size=3)))
    return SequenceRule(sequence, "some type", rule_id=f"sq-{next(_ids):06d}")


@st.composite
def attribute_rules(draw):
    attribute = draw(st.sampled_from(["isbn", "brand_name", "missing_attr"]))
    return AttributeRule(attribute, "books", rule_id=f"at-{next(_ids):06d}")


@st.composite
def value_rules(draw):
    value = draw(st.sampled_from(["apple", "castrol", "nope"]))
    return ValueConstraintRule(
        "brand_name", value, ["laptops", "phones"], rule_id=f"vl-{next(_ids):06d}"
    )


@st.composite
def rule_corpora(draw):
    rules = draw(
        st.lists(
            st.one_of(regex_rules(), sequence_rules(), attribute_rules(), value_rules()),
            min_size=1,
            max_size=12,
        )
    )
    # Randomly disable a subset: disabled rules must never fire anywhere.
    for rule in rules:
        if draw(st.booleans()) and draw(st.booleans()):
            rule.enabled = False
    return rules


@settings(max_examples=40, deadline=None)
@given(rules=rule_corpora(), corpus=st.lists(items(), min_size=0, max_size=15),
       n_workers=st.integers(min_value=1, max_value=3))
def test_all_executors_agree(rules, corpus, n_workers):
    naive_fired, naive_stats = NaiveExecutor(rules).run(corpus)
    enabled = [rule for rule in rules if rule.enabled]
    indexed_fired, indexed_stats = CompiledRuleSet(enabled).execute(corpus)
    partitioned = PartitionedExecutor(rules, n_workers=n_workers).run(corpus)

    assert naive_fired == indexed_fired
    assert naive_fired == partitioned.fired
    # The index proposes a superset, never more work than the naive scan.
    assert indexed_stats.rule_evaluations <= naive_stats.rule_evaluations
    assert partitioned.stats.items == len(corpus)


@settings(max_examples=40, deadline=None)
@given(rules=rule_corpora(), corpus=st.lists(items(), min_size=0, max_size=10))
def test_index_candidates_are_sound(rules, corpus):
    """Every matching (enabled or not) rule fires off the lanes, at the
    reference's candidate count."""
    compiled = CompiledRuleSet(rules)
    for thing in corpus:
        assert compiled.match_item(thing) == (
            sorted(rule.rule_id for rule in rules if rule.matches(thing)),
            reference_evaluations(rules, thing),
        )
