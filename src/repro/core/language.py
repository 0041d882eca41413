"""The analyst-facing rule DSL.

Section 4 asks for rule languages "that analysts with no or minimal CS
background can use to write rules quickly and accurately", more expressive
than bare title regexes — e.g. "if the title contains 'Apple' but the price
is less than $100 then the product is not a phone", or "if the title
contains any word from a given dictionary then the product is either a PC
or a laptop". This module is that language:

.. code-block:: text

    rings? -> rings                          # whitelist (title regex)
    key rings? -> NOT rings                  # blacklist
    attr(isbn) -> books                      # attribute rule
    value(brand_name)=apple -> laptop computers|smart phones   # constraint
    apple & price < 100 -> NOT smart phones  # predicate rule
    dict(pc_words) -> laptop computers|desktop computers       # dictionary
    udf(has_long_title) & rings? -> rings    # registered user function

Clauses are joined with `` & `` (spaces required). A bare clause with no
recognized syntax is a title regex. ``# ...`` comments and blank lines are
ignored by :func:`parse_rules`.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import RuleParseError, UnknownDictionaryError, UnknownUdfError
from repro.core.prepared import PreparedItem
from repro.core.rule import (
    AttributeRule,
    BlacklistRule,
    Clause,
    PredicateRule,
    Rule,
    ValueConstraintRule,
    WhitelistRule,
    compile_title_regex,
)

_ATTR_CLAUSE = re.compile(r"^attr\(\s*([\w ]+?)\s*\)$")
_VALUE_CLAUSE = re.compile(r"^value\(\s*([\w ]+?)\s*\)\s*=\s*(.+)$")
_DICT_CLAUSE = re.compile(r"^dict\(\s*([\w ]+?)\s*\)$")
_UDF_CLAUSE = re.compile(r"^udf\(\s*([\w ]+?)\s*\)$")
_TITLE_CLAUSE = re.compile(r"^title\s*~\s*(.+)$")
_NUMERIC_CLAUSE = re.compile(r"^([\w ]+?)\s*(<=|>=|<|>|=)\s*(-?\d+(?:\.\d+)?)$")


class DictionaryStore:
    """Named phrase dictionaries referenced by ``dict(...)`` clauses.

    IE systems in section 6 use "a large given dictionary of brand names";
    classification rules use dictionaries of subtype words.
    """

    def __init__(self, dictionaries: Mapping[str, Iterable[str]] = ()):
        self._dicts: Dict[str, Tuple[str, ...]] = {}
        for name, phrases in dict(dictionaries).items():
            self.register(name, phrases)

    def register(self, name: str, phrases: Iterable[str]) -> None:
        cleaned = tuple(sorted({p.strip().lower() for p in phrases if p.strip()}))
        if not cleaned:
            raise ValueError(f"dictionary {name!r} must contain at least one phrase")
        self._dicts[name] = cleaned

    def get(self, name: str) -> Tuple[str, ...]:
        try:
            return self._dicts[name]
        except KeyError:
            raise UnknownDictionaryError(name) from None

    def names(self) -> List[str]:
        return sorted(self._dicts)

    def __contains__(self, name: str) -> bool:
        return name in self._dicts


class UdfRegistry:
    """Named user-defined predicate functions, referenced by ``udf(...)``.

    Section 4 asks: "Can analysts write user-defined functions (at least
    certain relatively simple types ...)?" The answer here: CS developers
    register vetted predicates (item -> bool, over the ``ProductItem`` read
    surface a prepared item exposes); analysts call them by name
    from the DSL, keeping arbitrary code out of analyst hands while giving
    rules access to richer logic.
    """

    def __init__(self, functions: Mapping[str, object] = ()):
        self._functions: Dict[str, object] = {}
        for name, function in dict(functions).items():
            self.register(name, function)

    def register(self, name: str, function) -> None:
        if not callable(function):
            raise ValueError(f"udf {name!r} must be callable")
        if not name.strip():
            raise ValueError("udf needs a non-empty name")
        self._functions[name.strip()] = function

    def get(self, name: str):
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownUdfError(name) from None

    def names(self) -> List[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions


class ConstraintRule(Rule):
    """DSL-built constraint: if the condition holds, the type must be one of
    ``allowed_types`` (generalizes :class:`ValueConstraintRule`)."""

    kind = "cons"

    def __init__(self, clauses: Sequence[Clause], allowed_types: Sequence[str], **metadata):
        if not clauses:
            raise ValueError("constraint rule needs at least one clause")
        if len(allowed_types) < 2:
            raise ValueError("constraint rule needs at least two allowed types")
        super().__init__(allowed_types[0], **metadata)
        self.clauses = tuple(clauses)
        self.allowed_types: Tuple[str, ...] = tuple(allowed_types)

    @property
    def is_constraint(self) -> bool:
        return True

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return all(clause.test(prepared) for clause in self.clauses)

    def describe(self) -> str:
        condition = " & ".join(c.description for c in self.clauses)
        return f"{self.rule_id}: {condition} -> {'|'.join(self.allowed_types)}"


def _title_regex_clause(pattern: str, source: str) -> Clause:
    try:
        compiled = compile_title_regex(pattern)
    except (re.error, ValueError) as exc:
        raise RuleParseError(source, f"bad regex {pattern!r}: {exc}") from exc

    def test(item: PreparedItem) -> bool:
        return compiled.search(item.match_text) is not None

    return Clause(description=f"title ~ {pattern}", test=test)


def _dictionary_clause(name: str, store: Optional[DictionaryStore], source: str) -> Clause:
    if store is None:
        raise RuleParseError(source, f"dict({name}) used but no dictionary store given")
    phrases = store.get(name)  # raises UnknownDictionaryError for bad names
    pattern = "|".join(re.escape(p) for p in phrases)
    return Clause(
        description=f"dict({name})", test=_title_regex_clause(pattern, source).test
    )


def _numeric_clause(field: str, op: str, threshold: float) -> Clause:
    comparators = {
        "<": lambda v: v < threshold,
        ">": lambda v: v > threshold,
        "<=": lambda v: v <= threshold,
        ">=": lambda v: v >= threshold,
        "=": lambda v: v == threshold,
    }
    compare = comparators[op]

    def test(item: PreparedItem) -> bool:
        raw = item.attribute(field)
        if raw is None:
            return False
        try:
            value = float(re.sub(r"[^\d.\-]", "", raw) or "nan")
        except ValueError:
            return False
        return value == value and compare(value)  # NaN guard

    return Clause(description=f"{field} {op} {threshold:g}", test=test)


def _udf_clause(name: str, udfs: Optional["UdfRegistry"], source: str) -> Clause:
    if udfs is None:
        raise RuleParseError(source, f"udf({name}) used but no udf registry given")
    function = udfs.get(name)  # raises UnknownUdfError for bad names
    return Clause(description=f"udf({name})", test=function)


def _parse_clause(
    text: str,
    store: Optional[DictionaryStore],
    source: str,
    udfs: Optional["UdfRegistry"] = None,
) -> Clause:
    text = text.strip()
    if not text:
        raise RuleParseError(source, "empty clause")
    match = _UDF_CLAUSE.match(text)
    if match:
        return _udf_clause(match.group(1), udfs, source)
    match = _ATTR_CLAUSE.match(text)
    if match:
        attribute = match.group(1)
        return Clause(
            description=f"attr({attribute})",
            test=lambda item: item.has_attribute(attribute),
        )
    match = _VALUE_CLAUSE.match(text)
    if match:
        attribute, value = match.group(1), match.group(2).strip().lower()
        return Clause(
            description=f"value({attribute})={value}",
            test=lambda item: (item.attribute(attribute) or "").lower() == value,
        )
    match = _DICT_CLAUSE.match(text)
    if match:
        return _dictionary_clause(match.group(1), store, source)
    match = _TITLE_CLAUSE.match(text)
    if match:
        return _title_regex_clause(match.group(1).strip(), source)
    match = _NUMERIC_CLAUSE.match(text)
    if match:
        return _numeric_clause(match.group(1).strip(), match.group(2), float(match.group(3)))
    return _title_regex_clause(text, source)


def parse_rule(
    source: str,
    dictionaries: Optional[DictionaryStore] = None,
    udfs: Optional[UdfRegistry] = None,
    **metadata,
) -> Rule:
    """Parse one DSL line into the most specific rule class available.

    Raises :class:`~repro.core.errors.RuleParseError` on malformed input.
    """
    if "->" not in source:
        raise RuleParseError(source, "missing '->'")
    condition_text, _, target_text = source.rpartition("->")
    condition_text = condition_text.strip()
    target_text = target_text.strip()
    if not condition_text:
        raise RuleParseError(source, "empty condition")
    if not target_text:
        raise RuleParseError(source, "empty target")

    negated = False
    if target_text.upper().startswith("NOT "):
        negated = True
        target_text = target_text[4:].strip()
    targets = [t.strip() for t in target_text.split("|") if t.strip()]
    if not targets:
        raise RuleParseError(source, "no target types")
    if negated and len(targets) > 1:
        raise RuleParseError(source, "NOT takes a single target type")

    clause_texts = [c for c in condition_text.split(" & ")]
    clauses = [_parse_clause(text, dictionaries, source, udfs) for text in clause_texts]

    # Specialize to the dedicated classes where the shape allows it.
    if len(targets) > 1:
        value_match = _VALUE_CLAUSE.match(condition_text)
        if len(clauses) == 1 and value_match:
            return ValueConstraintRule(
                attribute=value_match.group(1),
                value=value_match.group(2).strip(),
                allowed_types=targets,
                **metadata,
            )
        return ConstraintRule(clauses, targets, **metadata)

    target = targets[0]
    if len(clauses) == 1:
        only = clause_texts[0].strip()
        attr_match = _ATTR_CLAUSE.match(only)
        if attr_match and not negated:
            return AttributeRule(attr_match.group(1), target, **metadata)
        if not any(regex.match(only) for regex in
                   (_ATTR_CLAUSE, _VALUE_CLAUSE, _DICT_CLAUSE, _UDF_CLAUSE,
                    _TITLE_CLAUSE, _NUMERIC_CLAUSE)):
            cls = BlacklistRule if negated else WhitelistRule
            return cls(only, target, **metadata)
        title_match = _TITLE_CLAUSE.match(only)
        if title_match:
            cls = BlacklistRule if negated else WhitelistRule
            return cls(title_match.group(1).strip(), target, **metadata)
    return PredicateRule(clauses, target, negated=negated, **metadata)


def parse_rules(
    text: str,
    dictionaries: Optional[DictionaryStore] = None,
    udfs: Optional[UdfRegistry] = None,
    **metadata,
) -> List[Rule]:
    """Parse a block of DSL lines, skipping blanks and ``#`` comments."""
    rules: List[Rule] = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        rules.append(parse_rule(stripped, dictionaries, udfs, **metadata))
    return rules
