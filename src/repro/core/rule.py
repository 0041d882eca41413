"""The rule model.

The paper's classification rules (section 3.3):

* **whitelist rules** ``r -> t`` — a title matching regex ``r`` is of type
  ``t`` (e.g. ``rings? -> rings``);
* **blacklist rules** ``r -> NOT t`` — a title matching ``r`` is *not* of
  type ``t``;
* **attribute rules** — "if a product item has the attribute 'ISBN' then its
  type is 'Books'";
* **value rules** — "if the 'Brand Name' attribute ... has value 'Apple',
  then the type can only be 'laptop', 'phone', etc." (a *constraint*, not a
  prediction);
* **predicate rules** — the richer language section 4 asks for ("if the
  title contains 'Apple' but the price is less than $100 then the product
  is not a phone", dictionary membership clauses);
* **sequence rules** ``a1.*a2.*...*an -> t`` — the section 5.2 generated
  form, where tokens appear in order but not necessarily contiguously.

Every rule carries metadata (id, author, creation time, confidence,
provenance) because rule *management* — auditing, evaluation, maintenance —
is the point of the paper.
"""

from __future__ import annotations

import itertools
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.utils.text import (
    contains_word_sequence,
    singular_form,
    tokenize,
    tokenize_uncached,
)


@dataclass(frozen=True)
class Prediction:
    """One classifier/rule vote: a type with a weight and a provenance tag."""

    label: str
    weight: float = 1.0
    source: str = "rule"

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"prediction weight must be non-negative, got {self.weight}")


_id_counter = itertools.count(1)


def _fresh_rule_id(prefix: str) -> str:
    return f"{prefix}-{next(_id_counter):06d}"


class Rule(ABC):
    """Base class for all rules.

    Subclasses implement :meth:`matches_prepared` — the condition, written
    once over the item-like surface of
    :class:`~repro.core.prepared.PreparedItem`; whether a match is an
    assertion (whitelist) or a veto (blacklist) is :attr:`is_blacklist`.
    """

    kind: str = "rule"
    #: A weak reference to the :class:`~repro.core.ruleset.RuleSet` holding
    #: this copy, set by its ``add`` / ``replace``; ``None`` on a bare rule.
    _owner = None

    def __init__(
        self,
        target_type: str,
        rule_id: Optional[str] = None,
        author: str = "analyst",
        created_at: float = 0.0,
        confidence: float = 1.0,
        provenance: str = "manual",
    ):
        if not target_type:
            raise ValueError("rule needs a non-empty target type")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        self.target_type = target_type
        self.rule_id = rule_id if rule_id is not None else _fresh_rule_id(self.kind)
        self.author = author
        self.created_at = created_at
        self.confidence = confidence
        self.provenance = provenance
        self.enabled = True

    def __setattr__(self, name: str, value: object) -> None:
        """A write to ``enabled`` on the copy a rule set holds is that
        set's ``enable`` / ``disable`` (recorded, applied, announced); on
        a bare rule — a copy, or one its set no longer holds — and for any
        other name it sets the field. Reads stay plain attribute reads."""
        if name == "enabled":
            owner = self._owner and self._owner()
            if owner is not None and owner.holds(self):
                (owner.enable if value else owner.disable)(self.rule_id)
                return
        object.__setattr__(self, name, value)

    @abstractmethod
    def matches_prepared(self, prepared: PreparedItem) -> bool:
        """True when the rule's condition holds for the prepared item."""

    def matches(self, item: ItemLike) -> bool:
        """True when the rule's condition holds for ``item``."""
        return self.matches_prepared(prepare(item))

    @property
    def is_blacklist(self) -> bool:
        return False

    @property
    def is_constraint(self) -> bool:
        return False

    def predict(self, item: ItemLike) -> Optional[Prediction]:
        """A prediction if this (whitelist) rule fires, else None."""
        return self.predict_prepared(prepare(item))

    def predict_prepared(self, prepared: PreparedItem) -> Optional[Prediction]:
        """:meth:`predict` for an already-prepared item."""
        if self.is_blacklist or self.is_constraint:
            return None
        if self.matches_prepared(prepared):
            return Prediction(self.target_type, weight=self.confidence, source=self.rule_id)
        return None

    def anchor_literals(self) -> Optional[FrozenSet[str]]:
        """Literal tokens, one of which any matching title must contain.

        Used by the execution index (section 4, "Rule Execution and
        Optimization"). ``None`` means "no useful anchors; always check".
        """
        return None

    def describe(self) -> str:
        return f"{self.rule_id}: ? -> {self.target_type}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def compile_title_regex(pattern: str) -> "re.Pattern":
    """Compile a rule regex to search inside normalized titles.

    Matches are anchored at word boundaries so ``rings?`` matches the words
    "ring"/"rings" but not "earrings" — the semantics the paper's example
    rules assume. Raises :class:`re.error` for invalid patterns.
    """
    return re.compile(rf"(?<![\w]){'(?:' + pattern + ')'}(?![\w])")


class RegexRule(Rule):
    """Shared machinery for whitelist/blacklist regex rules over titles."""

    def __init__(self, pattern: str, target_type: str, **metadata):
        super().__init__(target_type, **metadata)
        self.pattern = pattern
        try:
            self._compiled = compile_title_regex(pattern)
        except re.error as exc:
            raise ValueError(f"invalid rule regex {pattern!r}: {exc}") from exc

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return self._compiled.search(prepared.match_text) is not None

    def matches_text(self, title: str) -> bool:
        """Match against a raw title string (used on labeled titles)."""
        normalized = " ".join(tokenize(title, drop_stopwords=False))
        return self._compiled.search(normalized) is not None

    def anchor_literals(self) -> Optional[FrozenSet[str]]:
        return extract_anchor_literals(self.pattern)

    def describe(self) -> str:
        arrow = "-> NOT" if self.is_blacklist else "->"
        return f"{self.rule_id}: {self.pattern} {arrow} {self.target_type}"


class WhitelistRule(RegexRule):
    """``r -> t``: a title matching ``r`` is of type ``t``."""

    kind = "wl"


class BlacklistRule(RegexRule):
    """``r -> NOT t``: a title matching ``r`` is not of type ``t``."""

    kind = "bl"

    @property
    def is_blacklist(self) -> bool:
        return True


class AttributeRule(Rule):
    """Attribute presence implies a type (``attr(isbn) -> books``)."""

    kind = "attr"

    def __init__(self, attribute: str, target_type: str, **metadata):
        super().__init__(target_type, **metadata)
        if not attribute:
            raise ValueError("attribute rule needs an attribute name")
        self.attribute = attribute

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return prepared.has_attribute(self.attribute)

    def describe(self) -> str:
        return f"{self.rule_id}: attr({self.attribute}) -> {self.target_type}"


class ValueConstraintRule(Rule):
    """An attribute value constrains the candidate types.

    ``value(brand_name)=apple -> laptop computers|smart phones`` does not
    predict a type; it *restricts* other classifiers' predictions (the
    paper's "the type can only be 'laptop', 'phone', etc.").
    """

    kind = "val"

    def __init__(
        self,
        attribute: str,
        value: str,
        allowed_types: Sequence[str],
        **metadata,
    ):
        if not allowed_types:
            raise ValueError("value rule needs at least one allowed type")
        super().__init__(allowed_types[0], **metadata)
        self.attribute = attribute
        self.value = value.lower()
        self.allowed_types: Tuple[str, ...] = tuple(allowed_types)

    @property
    def is_constraint(self) -> bool:
        return True

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        actual = prepared.attribute(self.attribute)
        return actual is not None and actual.lower() == self.value

    def describe(self) -> str:
        allowed = "|".join(self.allowed_types)
        return f"{self.rule_id}: value({self.attribute})={self.value} -> {allowed}"


@dataclass(frozen=True)
class Clause:
    """One AND-ed predicate of a :class:`PredicateRule`.

    ``test`` receives a :class:`~repro.core.prepared.PreparedItem`, which
    duck-types the ``ProductItem`` read surface — so title clauses share
    the item's one-time tokenization and attribute/UDF clauses read it
    like a raw record.
    """

    description: str
    test: Callable[[PreparedItem], bool] = field(compare=False)

    def __call__(self, item: ItemLike) -> bool:
        return self.test(prepare(item))


class PredicateRule(Rule):
    """Conjunction of arbitrary clauses, whitelist or blacklist.

    This is the "more expressive rule language" of section 4: clauses may
    test title regexes, attribute presence/values, numeric fields, or
    dictionary membership — while staying writable by analysts via the DSL.
    """

    kind = "pred"

    def __init__(
        self,
        clauses: Sequence[Clause],
        target_type: str,
        negated: bool = False,
        **metadata,
    ):
        if not clauses:
            raise ValueError("predicate rule needs at least one clause")
        super().__init__(target_type, **metadata)
        self.clauses: Tuple[Clause, ...] = tuple(clauses)
        self._negated = negated

    @property
    def is_blacklist(self) -> bool:
        return self._negated

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return all(clause.test(prepared) for clause in self.clauses)

    def describe(self) -> str:
        condition = " & ".join(clause.description for clause in self.clauses)
        arrow = "-> NOT" if self._negated else "->"
        return f"{self.rule_id}: {condition} {arrow} {self.target_type}"


class SequenceRule(Rule):
    """``a1.*a2.*...*an -> t``: the section 5.2 generated-rule form.

    Matching is on tokenized titles (stop words removed, as in the paper's
    preprocessing), with the tokens required in order but not contiguously.
    Each token must be its own tokenization (``"Ring"``, ``"gold ring"``
    or ``"tv,"`` is no title token, so such a rule could never fire).
    """

    kind = "seq"

    def __init__(self, token_sequence: Sequence[str], target_type: str, support: float = 0.0, **metadata):
        if not token_sequence:
            raise ValueError("sequence rule needs at least one token")
        tokens = []
        for token in token_sequence:
            # The tokenizer hands back its (interned) token: rules keep it,
            # so equal tokens are one string across a rule base.
            checked = isinstance(token, str) and tokenize_uncached(token, False)
            if checked != (token,):
                raise ValueError(f"sequence rule token {token!r} is not a title token")
            tokens.append(checked[0])
        super().__init__(target_type, **metadata)
        self.token_sequence: Tuple[str, ...] = tuple(tokens)
        self.support = support

    @property
    def pattern(self) -> str:
        """The regex rendering the paper shows analysts (``a1.*a2``)."""
        return ".*".join(self.token_sequence)

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return contains_word_sequence(prepared.tokens, self.token_sequence)

    def matches_text(self, title: str) -> bool:
        return contains_word_sequence(tokenize(title), self.token_sequence)

    def anchor_literals(self) -> Optional[FrozenSet[str]]:
        # Any matching title must contain *every* token; index on the rarest
        # by convention of the index builder — expose all as anchors.
        return frozenset(self.token_sequence)

    def describe(self) -> str:
        return f"{self.rule_id}: {self.pattern} -> {self.target_type}"


# ---------------------------------------------------------------------------
# Anchor-literal extraction for regex rules (used by the execution index).
# ---------------------------------------------------------------------------

_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
_EXPANSION_LIMIT = 256


def _split_top_level(pattern: str, separator: str = "|") -> List[str]:
    """Split on a separator at nesting depth zero."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in pattern:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _expand_alternations(pattern: str, limit: int = _EXPANSION_LIMIT) -> Optional[List[str]]:
    """Expand every alternation (top-level and in groups, nested), bounded.

    Returns the alternation-free branch strings, or None if the pattern is
    too complex to expand within ``limit`` branches.
    """
    alternatives = _split_top_level(pattern)
    if len(alternatives) > 1:
        branches: List[str] = []
        for alternative in alternatives:
            expanded = _expand_alternations(alternative, limit)
            if expanded is None:
                return None
            branches.extend(expanded)
        return branches if len(branches) <= limit else None
    branches = [""]
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "(":
            depth = 1
            scan = index + 1
            while scan < len(pattern) and depth:
                if pattern[scan] == "(":
                    depth += 1
                elif pattern[scan] == ")":
                    depth -= 1
                scan += 1
            if depth:
                return None  # unbalanced; give up
            group = pattern[index + 1 : scan - 1]
            if group.startswith("?:"):
                group = group[2:]
            if group.startswith("?"):
                return None  # lookarounds etc.: bail out
            if scan < len(pattern) and pattern[scan] in "+{":
                return None  # repeated group: branches would not be matches
            optional = scan < len(pattern) and pattern[scan] in "?*"
            sub_branches = _expand_alternations(group, limit)
            if sub_branches is None:
                return None
            expanded = []
            for prefix in branches:
                for sub in sub_branches:
                    expanded.append(prefix + sub)
                if optional:
                    expanded.append(prefix)
            if len(expanded) > limit:
                return None
            branches = expanded
            index = scan
            if optional:
                index += 1
        else:
            branches = [b + char for b in branches]
            index += 1
    return branches


def _scan_atoms(branch: str) -> Optional[List[Tuple[Optional[str], str]]]:
    """Lex one alternation-free branch into ``(literal, quantifier)`` atoms.

    ``literal`` is the single character the atom must match, or ``None``
    for anything wider (``.``, ``\\d``, a character class, ``^``/``$``);
    ``quantifier`` is ``""`` or the first character of the repetition
    that follows. ``None`` means the branch holds syntax this lexer does
    not model (a nested group, a dangling quantifier, an unterminated
    class or escape).
    """
    atoms: List[Tuple[Optional[str], str]] = []
    index, end = 0, len(branch)
    while index < end:
        char = branch[index]
        index += 1
        literal: Optional[str] = char
        if char == "\\":
            if index == end:
                return None
            literal = None if branch[index].isalnum() else branch[index]
            index += 1
        elif char == "[":
            index += branch[index : index + 1] == "^"
            first = True  # a leading "]" is a literal member of the class
            while index < end and (first or branch[index] != "]"):
                index += 2 if branch[index] == "\\" else 1
                first = False
            if index >= end:
                return None
            index += 1
            literal = None
        elif char in "()|?*+{":
            return None
        elif char in ".^$":
            literal = None
        quantifier = ""
        if index < end and branch[index] in "?*+{":
            quantifier = branch[index]
            index = branch.find("}", index) + 1 if quantifier == "{" else index + 1
            if index == 0:
                return None
            if index < end and branch[index] in "?+":  # lazy / possessive
                index += 1
        atoms.append((literal, quantifier))
    return atoms


def _branch_anchor(branch: str) -> Optional[FrozenSet[str]]:
    """Surface forms of the longest literal word of ``branch``, or None.

    A run of unquantified ``[a-z0-9]`` literals qualifies only when it is
    a whole word in every match: bounded on each side by the branch edge
    (where :func:`compile_title_regex` asserts a non-word character) or
    an unquantified literal non-word character (a space, ``-``, ``.``,
    ``/``). A trailing ``s?`` is allowed before the right boundary and
    contributes the plural surface form whenever the index's singular
    bridge (:func:`~repro.utils.text.singular_form`) would not map it back
    to the stem — ``tvs?`` anchors on ``{tv, tvs}``, ``rings?`` on ``ring``.
    """
    atoms = _scan_atoms(branch)
    if atoms is None:
        return None

    def is_word(position: int) -> bool:
        literal, quantifier = atoms[position]
        return not quantifier and literal is not None and literal in _WORD_CHARS

    def is_boundary(position: int) -> bool:
        if not 0 <= position < len(atoms):
            return True
        literal, quantifier = atoms[position]
        return (
            not quantifier
            and literal is not None
            and not (literal.isalnum() or literal == "_")
        )

    best: Optional[FrozenSet[str]] = None
    best_length = 0
    position = 0
    while position < len(atoms):
        if not is_word(position):
            position += 1
            continue
        start = position
        while position < len(atoms) and is_word(position):
            position += 1
        if position - start <= best_length or not is_boundary(start - 1):
            continue
        stem = "".join(atoms[k][0] for k in range(start, position))
        if is_boundary(position):
            best, best_length = frozenset({stem}), len(stem)
        elif atoms[position] == ("s", "?") and is_boundary(position + 1):
            plural = stem + "s"
            forms = {stem} if singular_form(plural) == stem else {stem, plural}
            best, best_length = frozenset(forms), len(stem)
    return best


def extract_anchor_literals(pattern: str) -> Optional[FrozenSet[str]]:
    """Anchor-token set for a title regex, or None if none can be proven.

    Every matching title contains at least one returned token in its
    plural-expanded, hyphen-split probe alphabet
    (:attr:`~repro.core.prepared.PreparedItem.anchor_tokens`). The
    extractor expands alternations and takes, per branch, the longest
    literal run that is provably a whole word of every match (see
    :func:`_branch_anchor`). If any branch yields none — an optional
    character inside the word (``colou?r``), a class glued to it
    (``usb\\d``) — there is no sound anchor set and the rule belongs on the
    always-checked residue lane.
    """
    branches = _expand_alternations(pattern)
    if branches is None:
        return None
    anchors: Set[str] = set()
    for branch in branches:
        forms = _branch_anchor(branch)
        if forms is None:
            return None
        anchors |= forms
    return frozenset(anchors)
