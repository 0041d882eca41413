"""Which compiled lane each served rule takes, and which path each
served title takes.

The compiled engine (``CompiledRuleSet``) keeps the lanes its traffic
reaches: depth-1 fires, verify closures and the residue. This census pins
``lane_of`` over the rule sets that stand for that traffic — the engine of
a fresh seed-7 ``training=0`` service (one artifact for the pipeline's
four rule sets), the golden rule set compiled on its own, and a pipeline
holding the golden set split across its stages — so a rule sliding off a
fast lane (or onto a new one) edits this table. It also pins how many
served items, and evaluations, take the kernel (a clean title) and how
many the unclean path, so a tokenizer or clean-check change that moves
traffic between them edits a table too.
"""

import json
import pathlib
from collections import Counter

import pytest

from repro.chimera import Chimera
from repro.core.serialize import rules_from_dicts
from repro.execution import CompiledRuleSet
from repro.service import ServiceConfig, StreamService

pytestmark = pytest.mark.gates

GOLDEN = pathlib.Path(__file__).parent / "golden"

SERVED_LANES = {"depth1-fire": 58, "verify-regex": 77}
#: Seed-7 ``training=0`` served traffic over SERVED_BATCHES batches after
#: start: (items, engine evaluations) per path.
SERVED_BATCHES = 6
SERVED_PATHS = {"clean": (585, 1064), "unclean": (50, 90)}
GOLDEN_LANES = {
    "verify-regex": 40,
    "depth1-fire": 13,
    "verify-pair-order": 4,
    "residue-attribute": 3,
    "residue-value": 1,
}


def census(rules, compiled=None):
    if compiled is None:
        compiled = CompiledRuleSet(rules)
    return dict(Counter(compiled.lane_of(rule.rule_id) for rule in rules))


def engine_census(engine):
    """The census of a pipeline engine's one artifact, every set's rules."""
    return census(engine.rules(), engine._compiled)


def golden():
    return rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))


def test_served_rule_stage_lanes(tmp_path):
    with StreamService(
        str(tmp_path / "root"), ServiceConfig(seed=7, training=0), fsync=False
    ) as service:
        assert service.chimera.rule_count()["rule-based"] == 135
        assert engine_census(service.incremental) == SERVED_LANES


def test_served_traffic_by_path(tmp_path, monkeypatch):
    traffic = {}

    def count(path, name):
        method = getattr(CompiledRuleSet, name)

        def counted(self, *args):
            hits, evaluations = method(self, *args)
            items, total = traffic.get(path, (0, 0))
            traffic[path] = (items + 1, total + evaluations)
            return hits, evaluations

        monkeypatch.setattr(CompiledRuleSet, name, counted)

    with StreamService(
        str(tmp_path / "root"), ServiceConfig(seed=7, training=0), fsync=False
    ) as service:
        count("clean", "_apply_lanes")
        count("unclean", "_match_unclean")
        service.run(SERVED_BATCHES)
    assert traffic == SERVED_PATHS


def test_golden_ruleset_lanes():
    assert census(golden()) == GOLDEN_LANES


def test_golden_ruleset_split_across_a_pipeline():
    """The split ``repro classify`` makes — blacklists to the filter, the
    rest to the rule stage (``classify`` itself drops the value
    constraint; it stays here so the whole golden set is counted) — lowers
    in the pipeline's engine exactly as the set does compiled alone."""
    chimera = Chimera.build()
    rules = golden()
    chimera.add_whitelist_rules([rule for rule in rules if not rule.is_blacklist])
    chimera.add_blacklist_rules([rule for rule in rules if rule.is_blacklist])
    assert sum(chimera.rule_count().values()) == len(rules)
    assert engine_census(chimera.engine) == GOLDEN_LANES
