"""Persisting rule sets to JSON.

Industrial rule bases are long-lived assets ("tens of thousands of rules
... accumulated over years"): they must survive process restarts, be
diffable in version control, and be shippable between environments. This
module stores a rule set (rules + enabled flags) as plain JSON; history,
attribution and rollback are the :mod:`repro.repository`'s job.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.core.durability import atomic_write_json
from repro.core.ruleset import RuleSet
from repro.core.serialize import rule_from_dict, rule_to_dict

_FORMAT_VERSION = 1


def save_ruleset(ruleset: RuleSet, path: str) -> None:
    """Write a rule set (rules + enabled flags) to ``path`` as JSON."""
    payload = {
        "format": _FORMAT_VERSION,
        "kind": "ruleset",
        "name": ruleset.name,
        "rules": [rule_to_dict(rule) for rule in ruleset],
    }
    atomic_write_json(path, payload)


def load_ruleset(path: str) -> RuleSet:
    """Load a rule set written by :func:`save_ruleset`."""
    payload = _read(path, expected_kind="ruleset")
    ruleset = RuleSet(name=payload.get("name", "ruleset"))
    for rule_payload in payload["rules"]:
        ruleset.add(rule_from_dict(rule_payload))
    return ruleset


def _read(path: str, expected_kind: str) -> Dict:
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("kind") != expected_kind:
        raise ValueError(
            f"{path} holds a {payload.get('kind')!r}, expected {expected_kind!r}"
        )
    if payload.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {payload.get('format')!r}")
    return payload
