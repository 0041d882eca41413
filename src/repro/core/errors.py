"""Exceptions raised by the rule-management core."""

from __future__ import annotations


class RuleError(Exception):
    """Base class for all rule-management errors."""


class RuleParseError(RuleError):
    """A rule source string could not be parsed.

    Carries the offending source and a position hint so analyst-facing tools
    can show where the rule went wrong.
    """

    def __init__(self, source: str, reason: str):
        self.source = source
        self.reason = reason
        super().__init__(f"cannot parse rule {source!r}: {reason}")


class UnknownRuleError(RuleError, KeyError):
    """A rule id was not found in a rule set or registry."""


class DuplicateRuleError(RuleError):
    """A rule with the same id already exists."""


class UnknownDictionaryError(RuleError, KeyError):
    """A dict(...) clause referenced a dictionary that was never registered."""


class UnknownUdfError(RuleError, KeyError):
    """A udf(...) clause referenced a function that was never registered."""
