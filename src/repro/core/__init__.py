"""Rule-management core: the paper's primary contribution surface.

Rules (whitelist/blacklist regexes, attribute, value-constraint, predicate,
and generated sequence rules), the analyst DSL, ordered rule sets with
whitelist-before-blacklist semantics, JSON persistence, and mechanical
checks of the rule-system properties section 4 calls for. Rule history
(who changed what, when, why) lives in :mod:`repro.repository`.
"""

from repro.core.errors import (
    DuplicateRuleError,
    RuleError,
    RuleParseError,
    UnknownDictionaryError,
    UnknownRuleError,
    UnknownUdfError,
)
from repro.core.language import (
    ConstraintRule,
    DictionaryStore,
    UdfRegistry,
    parse_rule,
    parse_rules,
)
from repro.core.explain import Explanation, ExplanationStep, explain_verdict
from repro.core.persistence import (
    load_ruleset,
    save_ruleset,
)
from repro.core.properties import (
    OrderIndependenceReport,
    annihilated_items,
    check_order_independence,
    stage_partition,
    whitelist_conflicts,
)
from repro.core.prepared import (
    ItemLike,
    PreparedItem,
    prepare,
    prepare_all,
)
from repro.core.rule import (
    AttributeRule,
    BlacklistRule,
    Clause,
    PredicateRule,
    Prediction,
    RegexRule,
    Rule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
    compile_title_regex,
    extract_anchor_literals,
)
from repro.core.ruleset import RuleSet, RuleVerdict

__all__ = [
    "AttributeRule",
    "BlacklistRule",
    "Clause",
    "ConstraintRule",
    "DictionaryStore",
    "DuplicateRuleError",
    "Explanation",
    "ExplanationStep",
    "ItemLike",
    "OrderIndependenceReport",
    "PredicateRule",
    "Prediction",
    "PreparedItem",
    "RegexRule",
    "Rule",
    "RuleError",
    "RuleParseError",
    "RuleSet",
    "RuleVerdict",
    "SequenceRule",
    "UdfRegistry",
    "UnknownDictionaryError",
    "UnknownRuleError",
    "UnknownUdfError",
    "ValueConstraintRule",
    "WhitelistRule",
    "annihilated_items",
    "check_order_independence",
    "compile_title_regex",
    "explain_verdict",
    "extract_anchor_literals",
    "load_ruleset",
    "parse_rule",
    "parse_rules",
    "prepare",
    "prepare_all",
    "save_ruleset",
    "stage_partition",
    "whitelist_conflicts",
]
