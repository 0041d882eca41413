"""Compile a rule set into one combined matcher.

Section 4 frames execution as the capacity floor of a never-ending
classification system: "given a large set of rules and a large set of
data records, how can we quickly execute all rules on all records?" A
:class:`~repro.execution.rule_index.RuleIndex` answers the *candidate*
half (which rules could match this item), but probing it and then calling
each candidate still pays a Python-level regex search or token walk per
(rule, item) pair. This module removes that per-rule interpretive
overhead by **lowering the whole rule set once** into shared data-driven
lanes that a single pass over each item's token stream can consume. It is
the one engine behind the batch, sharded and delta executors.

Automaton layout — a three-tier flattened Aho–Corasick over tokens:

* **depth 1** (single-token patterns: sequence anchors, literal word
  branches of regex rules) flattens to one token -> entry dict probed by
  a single set intersection per item (``token_set & keys``). In AC terms
  these are root transitions whose failure link is the root, so the hash
  probe *is* the automaton step.
* **depth 2** (two-word literal phrases) flattens to a pair table hung
  off the first word: ``(second_word, rule_id)`` entries checked by
  position only when the first word is present.
* **depth >= 3** (longer literal phrases) uses the real
  :class:`~repro.execution.automaton.TokenAutomaton` (goto/fail/output
  links), gated behind a per-pattern required-token set so the walk runs
  only on items that could possibly match.

Each entry in the depth-1 dict carries six lanes::

    (fires, verify, count_unique, count_multi, bridge, pairs)

* ``fires`` — rule ordinals that fire on token presence alone
  (single-token sequence rules; regex branches that are a bare word, or
  ``words?`` registered under both surface forms). Folded lanes carry
  small-int *ordinals* into a lexicographic rule-id table rather than id
  strings: the kernel sorts ints and decodes through the table, and
  raw (pre-fold) lanes keep the strings so incremental add/remove
  surgery is unchanged;
* ``verify`` — ``None`` or a gated triple ``(gate, positional,
  closures)``: positional entries are ``(other, second, first, ordinal)``
  4-tuples for two-token sequence rules (fire iff ``first`` occurs
  before ``second``; ``other`` is the non-anchor word, and ``gate`` —
  the frozenset of all ``other`` words — skips the loop with one
  ``isdisjoint`` call when none are present), closures are ``(closure,
  ordinal)`` with the rule's precompiled verifier (regex rules that
  resisted branch lowering; sequence rules of length >= 3);
* ``count_unique`` / ``count_multi`` — candidate accounting kept
  *exactly* parallel to :class:`RuleIndex` postings (single-anchor rules
  count unconditionally; multi-anchor rules are deduped per item), so
  ``evaluations_per_item`` is the same on the compiled lanes and the
  compat lane (see :func:`~repro.execution.rule_index.rarest_anchor`,
  the shared sequence-anchor tiebreak);
* ``bridge`` — the plural fold: entry for token ``base`` mirrored under
  ``base + "s"`` and applied only when ``base`` itself is absent,
  replicating the index's singular-expanded probe alphabet
  (:func:`~repro.utils.text.expand_plural_singulars`) without building a
  per-item expanded set. Only the *verify* and *count* lanes bridge: a
  bare-word fire must not fire on the plural surface form (the regex
  would not match it), so every firing surface form is registered
  directly instead.
* ``pairs`` — the depth-2 tier above: ``None`` or ``(gate, entries)``
  with ``(second_word, ordinal)`` entries behind a frozenset gate of the
  second words.

Rules that never anchor on title tokens (attribute, value-constraint,
no-anchor regex, predicate rules) form the *residue*: counted for every
item, with attribute/value rules fired straight off the item's attribute
map and the rest via their ``matches_prepared``.

**One kernel.** ``CompiledRuleSet._apply_lanes`` is the only place the
lanes above are evaluated: ``match_item`` calls it for one item,
``execute`` calls it in a loop, and tracing a run changes nothing about
either (spans are emitted by the executors around ``execute``, never
inside it).

**When compilation is skipped.** The kernel trusts that
``title.lower().split()`` equals the tokenizer's output, which holds
exactly for ASCII alphanumeric-plus-spaces titles; anything else (an
''unclean'' title) is routed item-by-item through a private
:class:`RuleIndex` + ``matches_prepared`` compat path with identical
semantics and accounting. Rule *classes* the compiler does not know (or
known classes whose ``matches_prepared`` was overridden) force the
compat path for the whole artifact (``forced_compat``): correctness
always wins over speed, and ``CompiledRuleSet.lane_of`` makes the
downgrade observable.

**Process-local.** The artifact holds closures and is never pickled;
the sharded executor lowers the rules once, in-process, into an
artifact every shard attempt and run then shares.

Incremental invalidation rides the same generation-counter discipline as
PR 3: ``add_rule`` / ``remove_rule`` patch only the lanes the rule
occupies (a reverse contribution map records them), mark the touched
tokens dirty, and bump ``generation``; folded entries are rebuilt lazily
for dirty tokens (plus their plural carriers) on the next execution.
"""

from __future__ import annotations

import gc
import re
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.explain import ExplanationStep
from repro.core.errors import UnknownRuleError
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import (
    AttributeRule,
    RegexRule,
    Rule,
    SequenceRule,
    ValueConstraintRule,
    _expand_alternations,
)
from repro.execution.automaton import TokenAutomaton
from repro.execution.executor import ExecutionStats, _checked_mode
from repro.execution.rule_index import RuleIndex, rarest_anchor
from repro.observability import Observability, ensure_observability
from repro.utils.text import STOPWORDS, singular_form

__all__ = ["RuleSetCompiler", "CompiledRuleSet"]


# Fully-lowerable regex branch shapes (post alternation expansion).
_RX_WORD = re.compile(r"^[a-z0-9]+$")
_RX_WORD_SOPT = re.compile(r"^([a-z0-9]+)s\?$")
_RX_PHRASE = re.compile(r"^[a-z0-9]+(?: [a-z0-9]+)+$")

# Ordinal slots of retired rule ids tolerated beyond the live rule count
# before _refresh renumbers: a compaction costs O(live lanes) and frees more
# slots than there are live rules, so it is O(1) amortised per edit.
_DEAD_SLOT_MARGIN = 1024


# A "clean" lowered title is pure ascii alnum words separated by spaces --
# exactly the inputs the automaton's whitespace tokenizer agrees on with the
# full prepared-path tokenizer. Uppercase cannot survive str.lower, so this
# regex gives the same verdict as the ascii/strip-spaces/alnum check on the
# lowered string while skipping that check's per-item string copy.
_CLEAN_TITLE = re.compile(r" *[a-z0-9][a-z0-9 ]*\Z").match


def _lower_regex_branches(
    pattern: str,
) -> Optional[Tuple[Set[str], Set[Tuple[str, ...]]]]:
    """Lower a title regex to literal (words, phrases), or None.

    Returns the exact acceptance set at token level: the rule fires on a
    clean title iff one of ``words`` is a title token or one of the
    ``phrases`` occurs as adjacent tokens. ``None`` means at least one
    branch resisted lowering — the caller must fall back to running the
    compiled regex itself (a verify closure).
    """
    branches = _expand_alternations(pattern)
    if branches is None:
        return None
    words: Set[str] = set()
    phrases: Set[Tuple[str, ...]] = set()
    for branch in branches:
        if _RX_WORD.match(branch):
            words.add(branch)
            continue
        plural = _RX_WORD_SOPT.match(branch)
        if plural:
            base = plural.group(1)
            words.add(base)
            words.add(base + "s")
            continue
        if _RX_PHRASE.match(branch):
            phrases.add(tuple(branch.split(" ")))
            continue
        return None
    return words, phrases


def _make_seq_verifier(sequence: Tuple[str, ...]) -> Callable[[list, set], bool]:
    """Closure: does ``sequence`` occur in order in the title tokens?

    Valid only for stop-word-free sequences (the compiler routes
    stop-word-bearing sequences to count-only lanes, since
    ``matches_prepared`` filters stop words and such a rule can never
    fire): for those, an in-order embedding in the unfiltered tokens
    exists iff one exists in the filtered tokens.
    """

    def verify(toks: list, tset: set, _seq: Tuple[str, ...] = sequence) -> bool:
        for token in _seq:
            if token not in tset:
                return False
        position = 0
        target = _seq[position]
        for token in toks:
            if token == target:
                position += 1
                if position == len(_seq):
                    return True
                target = _seq[position]
        return False

    return verify


def _make_regex_verifier(compiled: "re.Pattern") -> Callable[[list, set], bool]:
    """Closure: run the rule's precompiled regex over the joined tokens.

    For clean titles ``" ".join(tokens)`` equals the prepared item's
    ``match_text``, so this is exactly ``matches_prepared``.
    """

    def verify(toks: list, tset: set, _search=compiled.search) -> bool:
        return _search(" ".join(toks)) is not None

    return verify


class _Lanes:
    """Mutable per-token lane accumulators (folded into tuples lazily)."""

    __slots__ = ("fires", "verify", "cu", "cm", "pairs")

    def __init__(self) -> None:
        self.fires: List[str] = []
        self.verify: List[Tuple[Any, Any, str]] = []
        self.cu = 0
        self.cm: List[str] = []
        self.pairs: List[Tuple[str, str]] = []

    def empty(self) -> bool:
        return not (self.fires or self.verify or self.cu or self.cm or self.pairs)


class CompiledRuleSet:
    """A rule set lowered into one combined matcher (see module docs).

    Build via :class:`RuleSetCompiler` (or directly); execute batches with
    :meth:`execute`, single items with :meth:`match_item`. ``generation``
    bumps on every ``add_rule`` / ``remove_rule``, mirroring the PR 3
    store counters so cached consumers can detect churn cheaply.

    ``include_disabled`` picks the counting contract:

    * ``False`` (batch and sharded executors): disabled rules are
      excluded from the artifact entirely — they neither fire nor count
      as a candidate evaluation;
    * ``True`` (the incremental executor): every rule participates —
      the match store records condition-truth and filters ``enabled`` at
      snapshot time, and its evaluation counter includes disabled
      candidates.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        token_frequency: Optional[Dict[str, int]] = None,
        include_disabled: bool = False,
    ):
        self._freq: Dict[str, int] = dict(token_frequency or {})
        self._include_disabled = include_disabled
        self._rules: Dict[str, Rule] = {}
        self.generation = 0
        # Raw (mutable) lanes and the reverse contribution map that makes
        # rule removal O(lanes the rule occupies).
        self._raw: Dict[str, _Lanes] = {}
        self._contrib: Dict[str, List[Tuple[Optional[str], str, Any]]] = {}
        # Folded (immutable-entry) probe dict consumed by the kernel.
        self._post: Dict[str, tuple] = {}
        self._keys: Set[str] = set()
        self._dirty_tokens: Set[str] = set()
        # Fired-id ordinal table: folded lanes carry small ints, decoded
        # back to rule-id strings only when an item actually fires. The
        # initial compile assigns ordinals in sorted(rule_id) order, so
        # the kernel can sort the (much cheaper) ints and decode in
        # order; incremental adds append out of order and flip
        # _table_sorted, falling back to a decode-then-sort. A removed
        # rule keeps its slot (re-adding reuses it), so per-token refolds
        # never invalidate lanes folded earlier -- until dead slots
        # outnumber live rules by _DEAD_SLOT_MARGIN, when _refresh
        # renumbers in sorted order and refolds everything.
        self._ord: Dict[str, int] = {}
        self._table: List[str] = []
        self._table_sorted = True
        self._ac_ord: Dict[str, int] = {}
        # Depth >= 3 phrase tier.
        self._ac = TokenAutomaton()
        self._ac_rid: Dict[str, str] = {}
        self._ac_gate: Optional[FrozenSet[str]] = None
        self._ac_counter = 0
        # Residue lanes.
        self._attr_groups: Dict[str, List[str]] = {}
        self._value_rules: List[Tuple[str, str, str]] = []
        self._generic: Dict[str, Rule] = {}
        self._attr_items: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
        self._value_items: Tuple[Tuple[str, str, str], ...] = ()
        self._generic_items: Tuple[Tuple[str, Rule], ...] = ()
        self._n_residue = 0
        # Unclean-title (and forced) compat path: a private RuleIndex over
        # the same rules, probed with full interpreted semantics.
        self._compat = RuleIndex(token_frequency=self._freq)
        self._forced_compat = False
        self._lane_labels: Dict[str, str] = {}
        for rule in rules:
            self.add_rule(rule)

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    @property
    def include_disabled(self) -> bool:
        return self._include_disabled

    @property
    def forced_compat(self) -> bool:
        """True when an unknown rule class downgraded every item to the
        interpreted compat path (compilation effectively skipped)."""
        return self._forced_compat

    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    def lane_of(self, rule_id: str) -> str:
        """Which compiled tier handles this rule (explain/debug surface)."""
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        if self._forced_compat:
            return "compat (compilation skipped: unknown rule class present)"
        return self._lane_labels.get(rule_id, "compat")

    def layout(self) -> Dict[str, int]:
        """Automaton layout counts (documented in DESIGN.md §5)."""
        self._refresh()
        depth1 = sum(
            1 for lanes in self._raw.values() for _ in lanes.fires
        )
        pairs = sum(len(lanes.pairs) for lanes in self._raw.values())
        verify = sum(len(lanes.verify) for lanes in self._raw.values())
        return {
            "rules": len(self._rules),
            "tokens": len(self._post),
            "depth1_fire_entries": depth1,
            "depth2_pair_entries": pairs,
            "verify_entries": verify,
            "automaton_patterns": len(self._ac),
            "residue_rules": self._n_residue,
        }

    # -- compilation / churn ------------------------------------------------------

    def _lane(self, token: str) -> _Lanes:
        lanes = self._raw.get(token)
        if lanes is None:
            lanes = self._raw[token] = _Lanes()
        self._dirty_tokens.add(token)
        return lanes

    def add_rule(self, rule: Rule) -> None:
        """Lower one rule into the shared lanes (incremental add).

        Mirrors :meth:`RuleIndex.add` candidate placement exactly; the
        fired surface is lowered per rule class. Disabled rules are
        skipped entirely unless ``include_disabled``.
        """
        rid = rule.rule_id
        if rid in self._rules:
            raise ValueError(f"rule {rid!r} already compiled; remove it first")
        self._rules[rid] = rule
        self.generation += 1
        if not self._include_disabled and not rule.enabled:
            self._lane_labels[rid] = "excluded (disabled)"
            return
        self._compat.add(rule)
        self._contrib[rid] = contrib = []
        self._lower_rule(rule, contrib)
        self._dirty_tokens.add("")  # force a refresh pass

    def remove_rule(self, rule_id: str) -> bool:
        """Un-lower one rule, touching only the lanes it occupies."""
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            return False
        self.generation += 1
        contrib = self._contrib.pop(rule_id, None)
        self._lane_labels.pop(rule_id, None)
        if contrib is None:  # was excluded as disabled
            return True
        self._compat.remove(rule_id)
        for token, kind, payload in contrib:
            if token is not None:
                lanes = self._raw[token]
                if kind == "cu":
                    lanes.cu -= payload
                else:  # kind names the list lane: fires / verify / cm / pairs
                    getattr(lanes, kind).remove(payload)
                self._dirty_tokens.add(token)
            elif kind == "ac":
                self._ac.remove(payload)
                self._ac_rid.pop(payload, None)
                self._ac_gate = None
            elif kind == "attr":
                name, _rid = payload
                group = self._attr_groups[name]
                group.remove(_rid)
                if not group:
                    del self._attr_groups[name]
                self._n_residue -= 1
            elif kind == "value":
                self._value_rules.remove(payload)
                self._n_residue -= 1
            elif kind == "generic":
                del self._generic[payload]
                self._n_residue -= 1
        if not self._forced_compat:
            # Drop now-empty raw lanes so layout()/folding stay tight.
            for token, kind, _ in contrib:
                if token is not None:
                    lanes = self._raw.get(token)
                    if lanes is not None and lanes.empty():
                        del self._raw[token]
        self._dirty_tokens.add("")  # force a refresh pass
        return True

    def _lower_rule(self, rule: Rule, contrib: List) -> None:
        rid = rule.rule_id
        if isinstance(rule, SequenceRule) and (
            type(rule).matches_prepared is SequenceRule.matches_prepared
        ):
            self._lower_sequence(rule, contrib)
            return
        if isinstance(rule, RegexRule) and (
            type(rule).matches_prepared is RegexRule.matches_prepared
        ):
            anchors = rule.anchor_literals()
            if anchors:  # an anchorless regex is generic residue, below
                self._lower_regex(rule, anchors, contrib)
                return
        if isinstance(rule, AttributeRule) and (
            type(rule).matches_prepared is AttributeRule.matches_prepared
        ):
            name = rule.attribute.lower()
            self._attr_groups.setdefault(name, []).append(rid)
            self._n_residue += 1
            contrib.append((None, "attr", (name, rid)))
            self._lane_labels[rid] = "residue-attribute"
            return
        if isinstance(rule, ValueConstraintRule) and (
            type(rule).matches_prepared is ValueConstraintRule.matches_prepared
        ):
            entry = (rule.attribute.lower(), rule.value, rid)
            self._value_rules.append(entry)
            self._n_residue += 1
            contrib.append((None, "value", entry))
            self._lane_labels[rid] = "residue-value"
            return
        anchors = rule.anchor_literals()
        if not anchors:
            # Predicate rules and other anchorless classes: always-checked
            # residue, evaluated through matches_prepared — identical to
            # the RuleIndex residue list.
            self._generic[rid] = rule
            self._n_residue += 1
            contrib.append((None, "generic", rid))
            self._lane_labels[rid] = "residue-generic"
            return
        # An anchored rule class the compiler cannot prove it understands:
        # correctness first — skip compilation for the whole artifact.
        self._forced_compat = True
        self._lane_labels[rid] = "compat (unknown anchored rule class)"

    def _lower_sequence(self, rule: SequenceRule, contrib: List) -> None:
        rid = rule.rule_id
        sequence = rule.token_sequence
        anchor = rarest_anchor(sequence, self._freq)
        lanes = self._lane(anchor)
        lanes.cu += 1
        contrib.append((anchor, "cu", 1))
        if any(token in STOPWORDS for token in sequence):
            # matches_prepared filters stop words out of the title before
            # the in-order walk, so a stop-word-bearing sequence can never
            # fire; it still costs one candidate evaluation per probe.
            self._lane_labels[rid] = "count-only (stop-word sequence)"
            return
        if len(sequence) == 1:
            token = sequence[0]
            self._lane(token).fires.append(rid)
            contrib.append((token, "fires", rid))
            self._lane_labels[rid] = "depth1-fire"
        elif len(sequence) == 2:
            entry = (sequence[1], sequence[0], rid)
            lanes = self._lane(anchor)
            lanes.verify.append(entry)
            contrib.append((anchor, "verify", entry))
            self._lane_labels[rid] = "verify-pair-order"
        else:
            entry = (None, _make_seq_verifier(sequence), rid)
            lanes = self._lane(anchor)
            lanes.verify.append(entry)
            contrib.append((anchor, "verify", entry))
            self._lane_labels[rid] = "verify-sequence"

    def _lower_regex(
        self, rule: RegexRule, anchors: FrozenSet[str], contrib: List
    ) -> None:
        rid = rule.rule_id
        # Candidate accounting: identical placement to RuleIndex postings.
        if len(anchors) == 1:
            anchor = next(iter(anchors))
            self._lane(anchor).cu += 1
            contrib.append((anchor, "cu", 1))
        else:
            for anchor in anchors:
                self._lane(anchor).cm.append(rid)
                contrib.append((anchor, "cm", rid))
        lowered = _lower_regex_branches(rule.pattern)
        if lowered is None:
            entry = (None, _make_regex_verifier(rule._compiled), rid)
            for anchor in anchors:
                self._lane(anchor).verify.append(entry)
                contrib.append((anchor, "verify", entry))
            self._lane_labels[rid] = "verify-regex"
            return
        words, phrases = lowered
        labels = []
        for word in words:
            self._lane(word).fires.append(rid)
            contrib.append((word, "fires", rid))
        if words:
            labels.append("depth1-fire")
        for phrase in sorted(phrases):
            if len(phrase) == 2:
                entry = (phrase[1], rid)
                self._lane(phrase[0]).pairs.append(entry)
                contrib.append((phrase[0], "pairs", entry))
                labels.append("depth2-pair")
            else:
                self._ac_counter += 1
                pattern_id = f"{rid}\x00{self._ac_counter}"
                self._ac.add(phrase, pattern_id)
                self._ac_rid[pattern_id] = rid
                self._ac_gate = None
                contrib.append((None, "ac", pattern_id))
                labels.append("automaton-phrase")
        self._lane_labels[rid] = "+".join(dict.fromkeys(labels)) or "depth1-fire"

    # -- folding ------------------------------------------------------------------

    def _fold_verify(
        self, entries: Iterable[Tuple[Any, Any, str]], anchor: str
    ) -> Optional[tuple]:
        """Raw verify entries -> gated hot-loop lane, relative to ``anchor``.

        Returns ``None`` when there is nothing to verify, else a triple
        ``(gate, positional, closures)``. Positional entries are
        ``(other, second, first, ordinal)``: ``other`` is the sequence word
        that is *not* the anchor, so the direct path needs a single
        membership test (the anchor is present by construction), and
        ``gate`` is the frozenset of those ``other`` words — when it is
        disjoint from the title's token set (the overwhelmingly common
        case) the whole positional loop is skipped with one C-level call.
        Bridge folds pass the singular base as anchor — there the base is
        absent from the title, so the positional ``list.index`` probe
        fails and correctly vetoes the fire. Closure entries become
        ``(closure, ordinal)`` and always run (no token gate exists for a
        regex verifier).
        """
        ord_ = self._ord
        positional = []
        closures = []
        for e0, e1, rid in entries:
            o = ord_[rid]
            if e0 is None:
                closures.append((e1, o))
            else:
                # raw shape: (second word, first word, rid)
                positional.append((e0 if e0 != anchor else e1, e0, e1, o))
        if not positional and not closures:
            return None
        gate = frozenset(entry[0] for entry in positional)
        return (gate, tuple(positional), tuple(closures))

    def _fold_token(self, token: str) -> None:
        lanes = self._raw.get(token)
        ord_ = self._ord
        base = singular_form(token)
        bridge = None
        if base != token:
            base_lanes = self._raw.get(base)
            if base_lanes is not None and (
                base_lanes.verify or base_lanes.cu or base_lanes.cm
            ):
                bridge = (
                    base,
                    self._fold_verify(base_lanes.verify, base),
                    base_lanes.cu,
                    tuple(ord_[rid] for rid in base_lanes.cm),
                )
        if lanes is None or lanes.empty():
            if bridge is None:
                self._post.pop(token, None)
                return
            self._post[token] = ((), None, 0, (), bridge, None)
            return
        pairs = None
        if lanes.pairs:
            folded_pairs = tuple(
                (second, ord_[rid]) for second, rid in lanes.pairs
            )
            pairs = (
                frozenset(second for second, _ in folded_pairs),
                folded_pairs,
            )
        self._post[token] = (
            tuple(ord_[rid] for rid in lanes.fires),
            self._fold_verify(lanes.verify, token),
            lanes.cu,
            tuple(ord_[rid] for rid in lanes.cm),
            bridge,
            pairs,
        )

    def _refresh(self) -> None:
        """Rebuild folded entries for dirty tokens (and plural carriers)."""
        if self._dirty_tokens:
            if len(self._table) > 2 * len(self._contrib) + _DEAD_SLOT_MARGIN:
                # Retired ids outnumber live rules: forget them all. Every
                # live rule is pending again, so the assignment below hands
                # out ordinals in sorted id order, and every lane refolds.
                self._ord = {}
                self._table = []
                self._table_sorted = True
                self._post = {}
                self._dirty_tokens.update(self._raw)
            pending = sorted(
                rid for rid in self._contrib if rid not in self._ord
            )
            if pending:
                table = self._table
                ord_ = self._ord
                for rid in pending:
                    if table and rid < table[-1]:
                        self._table_sorted = False
                    ord_[rid] = len(table)
                    table.append(rid)
            for token in list(self._dirty_tokens):
                if not token:
                    continue
                self._fold_token(token)
                self._fold_token(token + "s")
            self._dirty_tokens.clear()
            self._keys = set(self._post)
            ord_ = self._ord
            self._attr_items = tuple(
                (name, tuple(ord_[rid] for rid in rids))
                for name, rids in sorted(self._attr_groups.items())
            )
            self._value_items = tuple(
                (name, value, ord_[rid])
                for name, value, rid in self._value_rules
            )
            self._generic_items = tuple(
                (ord_[rid], rule) for rid, rule in self._generic.items()
            )
            self._ac_ord = {
                pid: ord_[rid] for pid, rid in self._ac_rid.items()
            }
        if self._ac_gate is None and len(self._ac):
            self._ac_gate = frozenset(
                self._ac.gate_tokens(
                    choose=lambda tokens: rarest_anchor(tokens, self._freq)
                )
            )

    # -- matching -----------------------------------------------------------------

    def _apply_lanes(
        self, item: ItemLike, toks: List[str], tset: set, hit_tokens: Iterable[str]
    ) -> Tuple[List[str], int]:
        """The match kernel: one clean item -> (sorted fired ids, eval count).

        The only place lanes are evaluated. :meth:`match_item` and
        :meth:`execute` tokenize (``toks`` / ``tset``), probe depth 1
        (``hit_tokens = tset & keys``) and land here, so the batch, sharded
        and incremental executors and the pipeline's ``RuleSetMatcher``
        all run this one function. Fired ids come back sorted and
        de-duplicated.
        """
        post = self._post
        flist: List[int] = []
        n_candidates = self._n_residue
        multi: List[int] = []
        idx = toks.index
        for t in hit_tokens:
            fires, verify, cu, cm, bridge, pairs = post[t]
            if fires:
                flist.extend(fires)
            n_candidates += cu
            if verify is not None:
                v_gate, v_pos, v_clo = verify
                if not v_gate.isdisjoint(tset):
                    for other, second, first, o in v_pos:
                        if other in tset:
                            try:
                                idx(second, idx(first) + 1)
                                flist.append(o)
                            except ValueError:
                                pass
                if v_clo:
                    for closure, o in v_clo:
                        if closure(toks, tset):
                            flist.append(o)
            if cm:
                multi.extend(cm)
            if bridge is not None:
                base, b_verify, b_cu, b_cm = bridge
                if base not in tset:
                    n_candidates += b_cu
                    if b_verify is not None:
                        v_gate, v_pos, v_clo = b_verify
                        if not v_gate.isdisjoint(tset):
                            for other, second, first, o in v_pos:
                                if other in tset:
                                    try:
                                        idx(second, idx(first) + 1)
                                        flist.append(o)
                                    except ValueError:
                                        pass
                        if v_clo:
                            for closure, o in v_clo:
                                if closure(toks, tset):
                                    flist.append(o)
                    if b_cm:
                        multi.extend(b_cm)
            if pairs is not None and not pairs[0].isdisjoint(tset):
                for second, o in pairs[1]:
                    if second in tset:
                        start = 0
                        while True:
                            try:
                                start = idx(t, start)
                            except ValueError:
                                break
                            if start + 1 < len(toks) and toks[start + 1] == second:
                                flist.append(o)
                                break
                            start += 1
        ac_gate = self._ac_gate
        if ac_gate is not None and not ac_gate.isdisjoint(tset):
            ac_ord = self._ac_ord
            for pattern_id in self._ac.matching_ids(toks):
                flist.append(ac_ord[pattern_id])
        if self._attr_items or self._value_items:
            attrs = item.attributes
            if attrs:
                low: Dict[str, str] = {}
                for key, value in attrs.items():
                    kl = key.lower()
                    if kl not in low:
                        low[kl] = value
                for name, ords in self._attr_items:
                    if name in low:
                        flist.extend(ords)
                for name, value, o in self._value_items:
                    actual = low.get(name)
                    if actual is not None and actual.lower() == value:
                        flist.append(o)
        if self._generic_items:
            prepared = item if isinstance(item, PreparedItem) else PreparedItem(item)
            for o, generic_rule in self._generic_items:
                if generic_rule.matches_prepared(prepared):
                    flist.append(o)
        if multi:
            n_candidates += len(set(multi))
        if not flist:
            return [], n_candidates
        table = self._table
        if self._table_sorted:
            # Sorting ordinals sorts rule ids (the table is lexicographic);
            # dedupe during decode to skip a set construction per item.
            flist.sort()
            prev = -1
            hits: List[str] = []
            for o in flist:
                if o != prev:
                    hits.append(table[o])
                    prev = o
            return hits, n_candidates
        return sorted({table[o] for o in flist}), n_candidates

    def _match_compat(self, item: ItemLike) -> Tuple[List[str], int]:
        """Interpreted path, same shape as the kernel's result.

        The index proposes each rule at most once, so sorting the hits is
        all the de-duplication there is to do.
        """
        prepared = prepare(item)
        candidates = self._compat.candidates(prepared)
        hits = sorted(
            rule.rule_id for rule in candidates if rule.matches_prepared(prepared)
        )
        return hits, len(candidates)

    def match_item(self, item: ItemLike) -> Tuple[List[str], int]:
        """(sorted fired rule ids, candidate evaluations) for one item.

        The per-item entry point the incremental executor uses; identical
        fired output and evaluation count to probing a
        :class:`RuleIndex` and running ``matches_prepared`` per candidate.
        """
        self._refresh()
        lowered = item.title.lower()
        if self._forced_compat or _CLEAN_TITLE(lowered) is None:
            return self._match_compat(item)
        toks = lowered.split()
        tset = set(toks)
        return self._apply_lanes(item, toks, tset, tset & self._keys)

    # -- batch execution ----------------------------------------------------------

    def execute(
        self,
        items: Sequence[ItemLike],
        on_error: str = "raise",
        clock: Optional[Callable[[], float]] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Run the compiled matcher over a batch.

        The fired map is byte-identical to
        ``NaiveExecutor(rules).run(items)`` over the same (enabled) rules.
        Each item takes the same route as :meth:`match_item` — the kernel
        for clean titles, the compat path otherwise. Spans and metrics are
        the caller's business (see :class:`IndexedExecutor`): nothing an
        observer does can reach this loop.
        """
        skip = _checked_mode(on_error) == "skip"
        clk = clock if clock is not None else time.perf_counter
        if stats is None:
            stats = ExecutionStats()
        self._refresh()
        keys = self._keys
        forced = self._forced_compat
        apply_lanes = self._apply_lanes
        match_compat = self._match_compat
        fired: Dict[str, List[str]] = {}
        n_evaluations = 0
        n_matches = 0
        started = clk()
        # Pause cyclic GC for the batch: the compiled artifact is a large
        # long-lived tuple graph, and the loop's allocation rate would
        # otherwise trigger gen-0 collections every ~100 items that rescan
        # it for no possible garbage. All loop allocations are short-lived
        # and reference-counted away; collection resumes on exit either way.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for item in items:
                try:
                    lowered = item.title.lower()
                    if forced or _CLEAN_TITLE(lowered) is None:
                        hits, n_candidates = match_compat(item)
                    else:
                        toks = lowered.split()
                        tset = set(toks)
                        hits, n_candidates = apply_lanes(item, toks, tset, tset & keys)
                    if hits:
                        fired[item.item_id] = hits
                        n_matches += len(hits)
                    n_evaluations += n_candidates
                except Exception:
                    if not skip:
                        raise
                    stats.skipped_items += 1
                    stats.skipped_item_ids.append(
                        str(getattr(item, "item_id", "<unknown>"))
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
        stats.rule_evaluations += n_evaluations
        stats.matches += n_matches
        stats.items += len(items)
        stats.match_time += clk() - started
        return fired, stats

    # -- explainability (RuleChef-style: compiled -> human-readable) ---------------

    def explain(self, item: ItemLike, rule_id: str) -> ExplanationStep:
        """Map a compiled decision back to the originating rule.

        Returns an :class:`~repro.core.explain.ExplanationStep` — the same
        shape the ``why()``/provenance chain renders — whose statement is
        the rule's own human-readable form plus the compiled lane that
        carried it, and whose effect states whether (and how) the rule
        matched this item. Ground truth is re-derived from the rule's
        interpreted ``matches_prepared``, so an explanation can never
        drift from semantics even if a lane were wrong.
        """
        rule = self._rules.get(rule_id)
        if rule is None:
            raise UnknownRuleError(rule_id)
        prepared = prepare(item)
        matched = rule.matches_prepared(prepared)
        lane = self.lane_of(rule_id)
        if matched:
            if rule.is_constraint:
                effect = (
                    f"matched via compiled lane [{lane}]; restricts candidates "
                    f"to {{{'|'.join(getattr(rule, 'allowed_types', ()))}}}"
                )
            elif rule.is_blacklist:
                effect = (
                    f"matched via compiled lane [{lane}]; "
                    f"vetoes type {rule.target_type!r}"
                )
            else:
                effect = (
                    f"matched via compiled lane [{lane}]; "
                    f"asserts type {rule.target_type!r}"
                )
        else:
            effect = f"did not match (checked via compiled lane [{lane}])"
        kind = (
            "constraint"
            if rule.is_constraint
            else "blacklist" if rule.is_blacklist else "whitelist"
        )
        return ExplanationStep(
            rule_id=rule_id,
            kind=kind,
            statement=rule.describe(),
            effect=effect,
        )

    def explain_fired(self, item: ItemLike) -> List[ExplanationStep]:
        """One :meth:`explain` step per rule firing on ``item``, sorted."""
        hits, _ = self.match_item(item)
        return [self.explain(item, rule_id) for rule_id in hits]


class RuleSetCompiler:
    """Front door: lower rule sets into :class:`CompiledRuleSet` artifacts.

    Stateless apart from the corpus token-frequency table (shared with
    :class:`RuleIndex` so both pick the same sequence anchors); the
    ``exec.compile`` span makes compilation cost visible wherever an
    observability pipeline is attached.
    """

    def __init__(
        self,
        token_frequency: Optional[Dict[str, int]] = None,
        observability: Optional[Observability] = None,
    ):
        self.token_frequency = dict(token_frequency or {})
        self.observability = ensure_observability(observability)

    def compile(
        self,
        rules: Iterable[Rule],
        include_disabled: bool = False,
        stats: Optional[ExecutionStats] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> CompiledRuleSet:
        """Lower ``rules`` (timed; span ``exec.compile``)."""
        clk = clock if clock is not None else time.perf_counter
        rules = list(rules)
        with self.observability.span("exec.compile", rules=len(rules)):
            started = clk()
            compiled = CompiledRuleSet(
                rules,
                token_frequency=self.token_frequency,
                include_disabled=include_disabled,
            )
            compiled._refresh()
            elapsed = clk() - started
        if stats is not None:
            stats.compile_time += elapsed
        return compiled
