"""Rule (de)serialization.

Industrial rule bases outlive processes: rules are stored, shipped to
cluster workers, and diffed between versions. Serialization covers the
concrete data-carrying rule classes; closure-based
:class:`~repro.core.rule.PredicateRule` clauses are not serializable and
should be expressed in the DSL instead (see :mod:`repro.core.language`).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Sequence

from repro.core.errors import RuleError
from repro.core.rule import (
    AttributeRule,
    BlacklistRule,
    Rule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
)


class UnserializableRuleError(RuleError):
    """The rule class has no stable serialized form."""


_COMMON_FIELDS = ("rule_id", "author", "created_at", "confidence", "provenance")


def rule_to_dict(rule: Rule) -> Dict[str, Any]:
    """A JSON-safe dict capturing the rule's logic and metadata."""
    payload: Dict[str, Any] = {field: getattr(rule, field) for field in _COMMON_FIELDS}
    payload["enabled"] = rule.enabled
    payload["target_type"] = rule.target_type
    if isinstance(rule, (WhitelistRule, BlacklistRule)):
        payload["kind"] = "blacklist" if rule.is_blacklist else "whitelist"
        payload["pattern"] = rule.pattern
    elif isinstance(rule, SequenceRule):
        payload["kind"] = "sequence"
        payload["tokens"] = list(rule.token_sequence)
        payload["support"] = rule.support
    elif isinstance(rule, AttributeRule):
        payload["kind"] = "attribute"
        payload["attribute"] = rule.attribute
    elif isinstance(rule, ValueConstraintRule):
        payload["kind"] = "value"
        payload["attribute"] = rule.attribute
        payload["value"] = rule.value
        payload["allowed_types"] = list(rule.allowed_types)
    else:
        raise UnserializableRuleError(
            f"{type(rule).__name__} has no serialized form; use the DSL"
        )
    return payload


def _shared(value: Any) -> Any:
    return sys.intern(value) if type(value) is str else value


def rule_from_dict(payload: Dict[str, Any]) -> Rule:
    """Rebuild a rule from :func:`rule_to_dict` output.

    Its strings are interned (a sequence rule interns its tokens itself):
    a rule set replayed from a change log shares its target types,
    authors and provenances the way the set that wrote it did, rather
    than holding a decoded copy of each per rule.
    """
    metadata = {
        field: _shared(payload[field]) for field in _COMMON_FIELDS if field in payload
    }
    kind = payload.get("kind")
    target = _shared(payload["target_type"])
    if kind == "whitelist":
        rule: Rule = WhitelistRule(payload["pattern"], target, **metadata)
    elif kind == "blacklist":
        rule = BlacklistRule(payload["pattern"], target, **metadata)
    elif kind == "sequence":
        rule = SequenceRule(
            payload["tokens"], target, support=payload.get("support", 0.0), **metadata
        )
    elif kind == "attribute":
        rule = AttributeRule(payload["attribute"], target, **metadata)
    elif kind == "value":
        rule = ValueConstraintRule(
            payload["attribute"], payload["value"], payload["allowed_types"], **metadata
        )
    else:
        raise UnserializableRuleError(f"unknown rule kind {kind!r}")
    rule.enabled = bool(payload.get("enabled", True))
    return rule


def rules_to_dicts(rules: Sequence[Rule]) -> List[Dict[str, Any]]:
    return [rule_to_dict(rule) for rule in rules]


def rules_from_dicts(payloads: Sequence[Dict[str, Any]]) -> List[Rule]:
    return [rule_from_dict(payload) for payload in payloads]
