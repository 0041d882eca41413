"""Compile a rule set into one combined matcher.

Section 4 frames execution as the capacity floor of a never-ending
classification system: "given a large set of rules and a large set of
data records, how can we quickly execute all rules on all records?"
Probing a rule index for the candidates and then calling each one still
pays a Python-level regex search or token walk per (rule, item) pair.
This module removes that per-rule interpretive overhead by **lowering
the whole rule set once** into shared data-driven lanes that a single
pass over each item's token stream can consume. It is the one engine
behind batch execution (:meth:`CompiledRuleSet.execute`) and the sharded
and delta executors.

**One construction, one contract.** ``CompiledRuleSet(rules,
token_frequency=None)`` lowers exactly the rules it is handed; the caller
decides ``enabled``. The delta engine hands it every rule (its match
store records condition-truth and filters ``enabled`` at read time);
batch and sharded callers hand it only the enabled rules, as
:class:`~repro.execution.executor.NaiveExecutor` filters its own.

Lane layout — one literal tier over title tokens: a token -> entry dict
probed by a single set intersection per item (``token_set & keys``).
A regex whose branches are not all single words (``word`` or ``words?``)
keeps its own compiled regex as a verify closure under its anchors.

Each entry carries five lanes::

    (fires, verify, count_unique, count_multi, bridge)

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
* ``count_unique`` / ``count_multi`` — candidate accounting: a rule
  counts once per item when one of its anchors is probed (a sequence
  rule's one anchor is its :func:`rarest_anchor`; a regex rule's are its
  ``anchor_literals``). Single-anchor rules count unconditionally,
  multi-anchor rules are deduped per item;
* ``bridge`` — the plural fold: entry for token ``base`` mirrored under
  ``base + "s"`` and applied only when ``base`` itself is absent, so a
  clean title probes the singular-expanded alphabet
  (:func:`~repro.utils.text.expand_plural_singulars`) without building a
  per-item expanded set. Only the *verify* and *count* lanes bridge: a
  bare-word fire must not fire on the plural surface form (the regex
  would not match it), so every firing surface form is registered
  directly instead.

Rules that never anchor on title tokens (attribute, value-constraint,
no-anchor regex, predicate rules) form the *residue*: counted for every
item, with attribute/value rules fired straight off the item's attribute
map and the rest via their ``matches_prepared``.

**One kernel.** ``CompiledRuleSet._match`` decides one item:
``_apply_lanes`` evaluates the lanes above for a *clean* title, and
``match_item`` and ``execute`` both reach it only through ``_match``
(tracing a run changes nothing about either: spans are emitted by the
executors around ``execute``, never inside it). The kernel trusts that
``title.lower().split()`` equals the tokenizer's output, which holds
exactly for ASCII alphanumeric-plus-spaces titles. An *unclean* title
probes the same folded lanes with its ``anchor_tokens`` and decides every
rule ordinal a hit entry names by that rule's own ``matches_prepared``
(``_match_unclean``). An anchored rule class the compiler does not know
(or a known class whose ``matches_prepared`` was overridden) is counted
on its anchors and evaluated by its own ``matches_prepared`` on every
item; the rest of the artifact stays compiled, and ``lane_of`` names the
lane.

**Process-local.** The artifact holds closures and is never pickled;
the sharded executor lowers the rules once a run, in-process, into an
artifact every shard attempt shares.

Incremental invalidation rides the same generation-counter discipline as
the match store: ``add_rule`` / ``remove_rule`` patch only the lanes the
rule occupies (a reverse contribution map records them), mark the touched
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

from repro.core.errors import UnknownRuleError
from repro.core.prepared import ItemLike, prepare
from repro.core.rule import (
    AttributeRule,
    RegexRule,
    Rule,
    SequenceRule,
    ValueConstraintRule,
    _expand_alternations,
)
from repro.execution.executor import ExecutionStats
from repro.utils.text import STOPWORDS, singular_form, tokenize

__all__ = ["CompiledRuleSet", "corpus_token_frequency", "rarest_anchor"]


# Fully-lowerable regex branch shapes (post alternation expansion).
_RX_WORD = re.compile(r"^[a-z0-9]+$")
_RX_WORD_SOPT = re.compile(r"^([a-z0-9]+)s\?$")

# Ordinal slots of retired rule ids tolerated beyond the live rule count
# before _refresh renumbers: a compaction costs O(live lanes) and frees more
# slots than there are live rules, so it is O(1) amortised per edit.
_DEAD_SLOT_MARGIN = 1024


# A "clean" lowered title is pure ascii alnum words separated by spaces --
# exactly the inputs the kernel's whitespace tokenizer agrees on with the
# full prepared-path tokenizer. Uppercase cannot survive str.lower, so this
# regex gives the same verdict as the ascii/strip-spaces/alnum check on the
# lowered string while skipping that check's per-item string copy.
_CLEAN_TITLE = re.compile(r" *[a-z0-9][a-z0-9 ]*\Z").match


def rarest_anchor(tokens: Sequence[str], token_frequency: Dict[str, int]) -> str:
    """The one anchor a sequence rule is counted and verified under.

    Ranking, best first: the lowest corpus frequency (a token missing
    from the table ranks as 0, so unseen vocabulary counts as rare); then
    the longest token; then the lexicographically smallest. The same rule
    therefore lands under the same anchor for a given frequency table,
    whatever the insertion or iteration order.
    """
    return min(tokens, key=lambda t: (token_frequency.get(t, 0), -len(t), t))


def corpus_token_frequency(titles: Iterable[str]) -> Dict[str, int]:
    """Token document frequency over a reference corpus: the table
    :func:`rarest_anchor` ranks by."""
    frequency: Dict[str, int] = {}
    for title in titles:
        for token in set(tokenize(title)):
            frequency[token] = frequency.get(token, 0) + 1
    return frequency


def _lower_regex_branches(pattern: str) -> Optional[Set[str]]:
    """Lower a title regex to the literal words it fires on, or None.

    Returns the exact acceptance set at token level: the rule fires on a
    clean title iff one of the words is a title token. ``None`` means at
    least one branch resisted lowering (any phrase of two or more words
    included) — the caller must fall back to running the compiled regex
    itself (a verify closure).
    """
    branches = _expand_alternations(pattern)
    if branches is None:
        return None
    words: Set[str] = set()
    for branch in branches:
        if _RX_WORD.match(branch):
            words.add(branch)
            continue
        plural = _RX_WORD_SOPT.match(branch)
        if plural is None:
            return None
        base = plural.group(1)
        words.add(base)
        words.add(base + "s")
    return words


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

    __slots__ = ("fires", "verify", "cu", "cm")

    def __init__(self) -> None:
        self.fires: List[str] = []
        self.verify: List[Tuple[Any, Any, str]] = []
        self.cu = 0
        self.cm: List[str] = []

    def empty(self) -> bool:
        return not (self.fires or self.verify or self.cu or self.cm)


class CompiledRuleSet:
    """A rule set lowered into one combined matcher (see module docs).

    Lowers exactly the rules it is handed, ``enabled`` or not: a caller
    that wants only the enabled rules to fire and count hands it only
    those. Execute batches with :meth:`execute`, single items with
    :meth:`match_item`. ``generation`` bumps on every ``add_rule`` /
    ``remove_rule``, mirroring the match store's counters so cached
    consumers can detect churn cheaply.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        token_frequency: Optional[Dict[str, int]] = None,
    ):
        self._freq: Dict[str, int] = dict(token_frequency or {})
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
        # Residue lanes; _generic also holds the anchored rules of classes
        # the compiler does not know (counted on anchors, not as residue).
        self._attr_groups: Dict[str, List[str]] = {}
        self._value_rules: List[Tuple[str, str, str]] = []
        self._generic: Dict[str, Rule] = {}
        self._attr_items: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
        self._value_items: Tuple[Tuple[str, str, str], ...] = ()
        self._generic_items: Tuple[Tuple[str, Rule], ...] = ()
        self._n_residue = 0
        self._lane_labels: Dict[str, str] = {}
        for rule in rules:
            self.add_rule(rule)
        self._refresh()

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    @property
    def reads_attributes(self) -> bool:
        return bool(self._attr_groups or self._value_rules)

    def reads_record(self, rule_id: str) -> bool:
        """Whether a rule may read past title and attributes: the generic
        lane runs its own ``matches_prepared`` (so may an uncompiled id)."""
        return rule_id in self._generic or rule_id not in self._lane_labels

    def lane_of(self, rule_id: str) -> str:
        """Which compiled tier handles this rule (lane census / debug surface)."""
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        return self._lane_labels[rule_id]

    def layout(self) -> Dict[str, int]:
        """Lane population counts (documented in DESIGN.md §5)."""
        self._refresh()
        depth1 = sum(len(lanes.fires) for lanes in self._raw.values())
        verify = sum(len(lanes.verify) for lanes in self._raw.values())
        return {
            "rules": len(self._rules),
            "tokens": len(self._post),
            "depth1_fire_entries": depth1,
            "verify_entries": verify,
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

        The rule is counted on its anchors and its fired surface is
        lowered per rule class, whatever its ``enabled`` flag.
        """
        rid = rule.rule_id
        if rid in self._rules:
            raise ValueError(f"rule {rid!r} already compiled; remove it first")
        self._rules[rid] = rule
        self.generation += 1
        self._contrib[rid] = contrib = []
        self._lower_rule(rule, contrib)
        self._dirty_tokens.add("")  # force a refresh pass

    def remove_rule(self, rule_id: str) -> bool:
        """Un-lower one rule, touching only the lanes it occupies."""
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            return False
        self.generation += 1
        contrib = self._contrib.pop(rule_id)
        del self._lane_labels[rule_id]
        for token, kind, payload in contrib:
            if token is not None:
                lanes = self._raw[token]
                if kind == "cu":
                    lanes.cu -= payload
                else:  # kind names the list lane: fires / verify / cm
                    getattr(lanes, kind).remove(payload)
                self._dirty_tokens.add(token)
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
            elif kind == "anchored":
                del self._generic[payload]
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
        self._generic[rid] = rule
        if isinstance(rule, SequenceRule):
            anchors = (rarest_anchor(rule.token_sequence, self._freq),)
        else:
            anchors = rule.anchor_literals()
        if not anchors:
            # Predicate rules and other anchorless classes: always-checked
            # residue, evaluated through matches_prepared.
            self._n_residue += 1
            contrib.append((None, "generic", rid))
            self._lane_labels[rid] = "residue-generic"
            return
        # An anchored rule class the compiler cannot prove it understands:
        # counted on its anchors, evaluated by its own matches_prepared on
        # every item.
        self._count(rid, anchors, contrib)
        contrib.append((None, "anchored", rid))
        self._lane_labels[rid] = "generic-anchored"

    def _count(self, rid: str, anchors: Sequence[str], contrib: List) -> None:
        """Candidate accounting: one anchor counts unconditionally,
        several are deduped per item."""
        if len(anchors) == 1:
            anchor = next(iter(anchors))
            self._lane(anchor).cu += 1
            contrib.append((anchor, "cu", 1))
        else:
            for anchor in anchors:
                self._lane(anchor).cm.append(rid)
                contrib.append((anchor, "cm", rid))

    def _lower_sequence(self, rule: SequenceRule, contrib: List) -> None:
        rid = rule.rule_id
        sequence = rule.token_sequence
        anchor = rarest_anchor(sequence, self._freq)
        self._count(rid, (anchor,), contrib)
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
        self._count(rid, anchors, contrib)
        lowered = _lower_regex_branches(rule.pattern)
        if lowered is None:
            entry = (None, _make_regex_verifier(rule._compiled), rid)
            for anchor in anchors:
                self._lane(anchor).verify.append(entry)
                contrib.append((anchor, "verify", entry))
            self._lane_labels[rid] = "verify-regex"
            return
        for word in lowered:
            self._lane(word).fires.append(rid)
            contrib.append((word, "fires", rid))
        self._lane_labels[rid] = "depth1-fire"

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
            self._post[token] = ((), None, 0, (), bridge)
            return
        self._post[token] = (
            tuple(ord_[rid] for rid in lanes.fires),
            self._fold_verify(lanes.verify, token),
            lanes.cu,
            tuple(ord_[rid] for rid in lanes.cm),
            bridge,
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

    # -- matching -----------------------------------------------------------------

    def _apply_lanes(
        self, item: ItemLike, toks: List[str], tset: set
    ) -> Tuple[List[str], int]:
        """The match kernel: one clean item -> (sorted fired ids, eval count).

        :meth:`_match` tokenizes (``toks`` / ``tset``) and lands here, so
        batch, sharded and incremental execution (the pipeline's engine
        among them) all run this one function on a clean title. Fired ids
        come back sorted and de-duplicated.
        """
        post = self._post
        flist: List[int] = []
        n_candidates = self._n_residue
        multi: List[int] = []
        idx = toks.index
        for t in tset & self._keys:
            fires, verify, cu, cm, bridge = post[t]
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
        if self._attr_items or self._value_items or self._generic_items:
            self._fire_residue(item, flist)
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

    def _fire_residue(self, item: ItemLike, flist: List[int]) -> None:
        """Append the residue rules ``item`` fires: attribute and value
        rules off its attribute map, the rest by ``matches_prepared``."""
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
            prepared = prepare(item)
            for o, generic_rule in self._generic_items:
                if generic_rule.matches_prepared(prepared):
                    flist.append(o)

    def _match_unclean(self, item: ItemLike) -> Tuple[List[str], int]:
        """An unclean title: the folded lanes probed with its anchor alphabet.

        ``anchor_tokens`` holds every whole word of the title, each piece
        of ``o-ring`` or ``13.5in`` and every crude singular, so it reaches
        every rule that can match and the plural bridges are skipped. A hit
        entry counts as it does in the kernel, and every ordinal it names
        is a candidate decided by its own rule's ``matches_prepared``.
        """
        prepared = prepare(item)
        post = self._post
        n_candidates = self._n_residue
        candidates: Set[int] = set()
        multi: Set[int] = set()
        for t in prepared.anchor_tokens & self._keys:
            fires, verify, cu, cm, _bridge = post[t]
            n_candidates += cu
            multi.update(cm)
            candidates.update(fires)
            if verify is not None:
                candidates.update([entry[3] for entry in verify[1]])
                candidates.update([o for _closure, o in verify[2]])
        table, rules = self._table, self._rules
        flist = [o for o in candidates if rules[table[o]].matches_prepared(prepared)]
        self._fire_residue(prepared, flist)
        return sorted([table[o] for o in flist]), n_candidates + len(multi)

    def _match(self, item: ItemLike) -> Tuple[List[str], int]:
        """(sorted fired rule ids, candidate evaluations) for one item of a
        refreshed artifact: the kernel for a clean title,
        :meth:`_match_unclean` otherwise."""
        lowered = item.title.lower()
        if _CLEAN_TITLE(lowered) is None:
            return self._match_unclean(item)
        toks = lowered.split()
        return self._apply_lanes(item, toks, set(toks))

    def match_item(self, item: ItemLike) -> Tuple[List[str], int]:
        """:meth:`_match` for one item: the per-item entry point the
        incremental executor uses."""
        self._refresh()
        return self._match(item)

    # -- batch execution ----------------------------------------------------------

    def execute(
        self,
        items: Sequence[ItemLike],
        clock: Optional[Callable[[], float]] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Run the compiled matcher over a batch.

        The fired map is byte-identical to
        ``NaiveExecutor(rules).run(items)`` over the same rules, when the
        artifact was handed only enabled ones. Each item goes through
        :meth:`_match`, as :meth:`match_item` does, and a repeated item id
        is decided by its last occurrence. Spans and metrics are the
        caller's business: nothing an observer does can reach this loop,
        and an item that raises fails the batch.
        """
        clk = clock if clock is not None else time.perf_counter
        if stats is None:
            stats = ExecutionStats()
        self._refresh()
        match = self._match
        fired: Dict[str, List[str]] = {}
        pop = fired.pop
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
                hits, n_candidates = match(item)
                if hits:
                    fired[item.item_id] = hits
                    n_matches += len(hits)
                else:
                    pop(item.item_id, None)
                n_evaluations += n_candidates
        finally:
            if gc_was_enabled:
                gc.enable()
        stats.rule_evaluations += n_evaluations
        stats.matches += n_matches
        stats.items += len(items)
        stats.match_time += clk() - started
        return fired, stats
