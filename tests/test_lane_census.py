"""Which compiled lane each served rule takes.

The compiled engine (``CompiledRuleSet``) keeps the lanes its traffic
reaches: depth-1 fires, the depth-2 pair table, verify closures, the
residue and a per-item compat lane for unclean titles. This census pins
``lane_of`` over two rule sets that stand for that traffic, the rule
stage of a fresh seed-7 ``training=0`` service and the golden rule set,
so a rule sliding off a fast lane (or onto a new one) edits this table.
"""

import json
import pathlib
from collections import Counter

import pytest

from repro.core.serialize import rules_from_dicts
from repro.execution import CompiledRuleSet
from repro.service import ServiceConfig, StreamService

pytestmark = pytest.mark.gates

GOLDEN = pathlib.Path(__file__).parent / "golden"

SERVED_LANES = {"depth1-fire": 58, "verify-regex": 77}
GOLDEN_LANES = {
    "verify-regex": 40,
    "depth1-fire": 13,
    "verify-pair-order": 4,
    "residue-attribute": 3,
    "residue-value": 1,
}


def census(rules):
    compiled = CompiledRuleSet(rules)
    return dict(Counter(compiled.lane_of(rule.rule_id) for rule in rules))


def test_served_rule_stage_lanes(tmp_path):
    with StreamService(
        str(tmp_path / "root"), ServiceConfig(seed=7, training=0), fsync=False
    ) as service:
        assert census(list(service.chimera.rule_stage.rules)) == SERVED_LANES


def test_golden_ruleset_lanes():
    rules = rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))
    assert census(rules) == GOLDEN_LANES
