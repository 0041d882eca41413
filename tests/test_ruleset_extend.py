"""A deployed rule set enters the engine as one delta, and lands where a
loop of single adds would.

``RuleSet.extend`` validates and records each rule as ``add`` does (one
change-log line per rule) but announces them once, so the pipeline's
engine folds them in with one ``add_rules``: one span, one ``_finish``. A
hypothesis property runs ``extend(rules)`` and ``for rule in rules:
add(rule)`` on two pipelines bound to a repository, over items already
admitted and rules already held, with ids repeated inside the list,
already in the set or held by another stage's set: the set, the engine's
tracked rules, the match store, ``fired_map()``, ``fired_fingerprint()``,
the error raised and the ``changelog.jsonl`` bytes are equal.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import CatalogGenerator, build_seed_taxonomy
from repro.chimera import Chimera
from repro.core import parse_rule
from repro.observability import Observability
from repro.repository import RuleRepository, bind_chimera

ITEMS = CatalogGenerator(build_seed_taxonomy(), seed=3).generate_items(80)

CONDITIONS = [
    "rings? -> rings",
    "area rugs? -> area rugs",
    "gold -> rings",
    "motor oil -> motor oil",
    "(jeans|denim) -> jeans",
    "key rings? -> NOT rings",
    "oil filters? -> oil filters",
]

#: ``(condition, id number)``; ``r11`` may be held by the filter's set.
rules = st.tuples(st.integers(0, len(CONDITIONS) - 1), st.integers(0, 11))


def build(root, held, filtered):
    chimera = Chimera.build(observability=Observability())
    repository = RuleRepository.open(root, fsync=False)
    bind_chimera(repository, chimera)
    chimera.engine.add_items(ITEMS)
    for condition, number in held:
        chimera.rule_stage.rules.add(parse_rule(CONDITIONS[condition], rule_id=f"r{number}"))
    if filtered:
        chimera.filter.rules.add(parse_rule("toy -> NOT rings", rule_id="r11"))
    return chimera, repository


def state(chimera, repository, root, error):
    engine = chimera.engine
    repository.log.close()
    with open(os.path.join(root, "changelog.jsonl"), "rb") as log:
        changes = log.read()
    return {
        "set": [(rule.rule_id, rule.enabled) for rule in chimera.rule_stage.rules],
        "tracked": sorted(engine._rules),
        "pairs": sorted(engine.store.pairs()),
        "fired": engine.fired_map(),
        "fingerprint": engine.fired_fingerprint(),
        "error": error,
        "changes": changes,
    }


def deploy(one_delta, held, filtered, given_rules):
    with tempfile.TemporaryDirectory() as root:
        chimera, repository = build(root, held, filtered)
        return deploy_into(chimera, repository, root, one_delta, given_rules)


def deploy_into(chimera, repository, root, one_delta, given_rules):
    batch = [parse_rule(CONDITIONS[condition], rule_id=f"r{number}") for condition, number in given_rules]
    spans = chimera.engine.observability.tracer.spans
    before = len(spans)
    error = None
    try:
        if one_delta:
            chimera.add_whitelist_rules(batch)
        else:
            for rule in batch:
                chimera.rule_stage.rules.add(rule)
    except Exception as exc:  # the same refusal either way
        error = (type(exc).__name__, str(exc))
    deltas = [span for span in spans[before:] if span.name == "exec.incremental.add_rules"]
    return state(chimera, repository, root, error), len(deltas)


@settings(max_examples=60, deadline=None)
@given(
    held=st.lists(rules, max_size=3, unique_by=lambda pair: pair[1]),
    filtered=st.booleans(),
    given_rules=st.lists(rules, max_size=10),
)
def test_extend_equals_a_loop_of_adds(held, filtered, given_rules):
    held = [(condition, number) for condition, number in held if not (filtered and number == 11)]
    extended, one = deploy(True, held, filtered, given_rules)
    looped, many = deploy(False, held, filtered, given_rules)
    assert extended == looped
    added = len(extended["set"]) - len(held)
    assert (one, many) == (min(added, 1), added)
