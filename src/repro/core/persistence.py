"""Persisting rule sets and registries to JSON.

Industrial rule bases are long-lived assets ("tens of thousands of rules
... accumulated over years"): they must survive process restarts, be
diffable in version control, and be shippable between environments. This
module stores rule sets and full registries (rules + lifecycle state +
precision estimates + audit trail) as plain JSON.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.core.durability import atomic_write_json
from repro.core.registry import AuditEntry, RuleRegistry, RuleStatus
from repro.core.ruleset import RuleSet
from repro.core.serialize import rule_from_dict, rule_to_dict
from repro.utils.clock import SimClock

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


def save_registry(registry: RuleRegistry, path: str) -> None:
    """Write a registry (rules, lifecycle, estimates, audit) to JSON."""
    entries = []
    for rule in registry.query():
        entries.append({
            "rule": rule_to_dict(rule),
            "status": registry.status_of(rule.rule_id).value,
            "precision_estimate": registry.precision_of(rule.rule_id),
        })
    payload = {
        "format": _FORMAT_VERSION,
        "kind": "registry",
        "clock": registry.clock.now,
        "entries": entries,
        "audit": [
            {
                "at": entry.at,
                "actor": entry.actor,
                "action": entry.action,
                "rule_id": entry.rule_id,
                "detail": entry.detail,
            }
            for entry in registry.audit_log
        ],
    }
    atomic_write_json(path, payload)


def load_registry(path: str, clock: Optional[SimClock] = None) -> RuleRegistry:
    """Load a registry written by :func:`save_registry`.

    Lifecycle states, precision estimates, enabled flags, and the audit
    trail are restored exactly; the clock resumes from the stored time
    unless an explicit ``clock`` is supplied.
    """
    payload = _read(path, expected_kind="registry")
    if clock is None:
        clock = SimClock(now=float(payload.get("clock", 0.0)))
    registry = RuleRegistry(clock=clock)
    for entry in payload["entries"]:
        rule = rule_from_dict(entry["rule"])
        enabled = rule.enabled
        registry.submit(rule, actor="persistence")
        # Restore lifecycle state directly (the transitions already ran in
        # the original session; replaying them would corrupt the audit log).
        registered = registry._entry(rule.rule_id)  # noqa: SLF001 — loader is a friend
        registered.status = RuleStatus(entry["status"])
        registered.precision_estimate = entry["precision_estimate"]
        rule.enabled = enabled and registered.status is RuleStatus.DEPLOYED
    # Replace the loader's synthetic audit entries with the stored trail.
    registry._audit = [  # noqa: SLF001
        AuditEntry(
            at=item["at"],
            actor=item["actor"],
            action=item["action"],
            rule_id=item["rule_id"],
            detail=item.get("detail", ""),
        )
        for item in payload["audit"]
    ]
    return registry


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
