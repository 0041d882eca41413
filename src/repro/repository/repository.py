"""The versioned, multi-tenant rule repository (ROADMAP item 2).

The paper's rules are long-lived assets; this module gives them a
persistent home with the properties §4's maintenance story demands:

* **audit log** — every change (add / replace / remove / enable / disable)
  is appended to a durable change log with author, reason, timestamp, and
  an optional provenance link (:mod:`repro.repository.changelog`);
* **named snapshots with structural sharing** — a snapshot is just the set
  of ``(rule_id, revision)`` pairs plus per-rule enabled flags; a rule
  payload is the log line that recorded its revision, however many
  snapshots reference it, so ``diff`` is a set comparison;
* **rollback that rides the zero-evaluation path** — rolling a bound
  namespace back lowers to ``enable``/``disable`` flips (pure
  :class:`~repro.execution.incremental.MatchStore` view filters, zero rule
  evaluations) plus per-rule ``replace``/``add``/``remove`` deltas — never
  a full re-evaluation;
* **multi-tenant namespaces** — ``chimera``, ``em``, ``ie``, ``kb``,
  ``tagging`` (or any other domain) share one store, one change log, one
  metrics registry, and one incident manager.

**History here, live state in one rule set.** The repository owns each
namespace's history: live revisions, the revision watermark and the log,
with each ``(rule_id, revision)`` payload and snapshot read back from the
log line at an offset it holds (records on disk, offsets in RAM). One
:class:`~repro.core.ruleset.RuleSet` per namespace owns its live state
(rules, order, enabled flags): the repository's own until
:meth:`RuleRepository.bind` makes a pipeline's set live. That set's
mutators are the only write path — for analysts, the incident manager and
the repository's own ``add`` / ``rollback`` alike — and each has the
repository log the change (under the ambient
:meth:`RuleRepository.attribution`) and fold history before it applies.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import UnknownRuleError
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet
from repro.core.serialize import rule_from_dict, rule_to_dict
from repro.repository.changelog import ChangeEntry, ChangeLog
from repro.utils.clock import SimClock

#: The canonical tenant/domain namespaces one store is expected to serve.
DEFAULT_NAMESPACES = ("chimera", "em", "ie", "kb", "tagging")

#: File name of the change log inside a repository root directory.
CHANGELOG_NAME = "changelog.jsonl"


class RepositoryError(RuntimeError):
    """A repository operation referenced unknown state or broke a rule."""


def _condition_payload(rule: Rule) -> Dict[str, Any]:
    """The rule's serialized *condition identity* (enabled flag stripped).

    Enabled flags are live state, held by the namespace's rule set; the
    payload keyed by ``(rule_id, revision)`` must denote the rule's
    condition only, so two sightings of the same pair are guaranteed to be
    the same condition.
    """
    payload = rule_to_dict(rule)
    payload.pop("enabled", None)
    return payload


@dataclass(frozen=True)
class Snapshot:
    """One namespace's state at a named point: ``(rule_id, revision)``
    pairs plus enabled flags. Payloads are *not* copied — they live once
    in the namespace's revision store (structural sharing)."""

    name: str
    namespace: str
    at: float
    author: str
    reason: str = ""
    entries: Mapping[str, Tuple[int, bool]] = field(default_factory=dict)


@dataclass(frozen=True)
class NamespaceDiff:
    """Set comparison of two namespace states (snapshot or live)."""

    namespace: str
    added: Tuple[str, ...] = ()      # present in b, absent in a
    removed: Tuple[str, ...] = ()    # present in a, absent in b
    replaced: Tuple[str, ...] = ()   # same id, different revision
    enabled: Tuple[str, ...] = ()    # disabled in a, enabled in b
    disabled: Tuple[str, ...] = ()   # enabled in a, disabled in b

    @property
    def empty(self) -> bool:
        return not (
            self.added or self.removed or self.replaced
            or self.enabled or self.disabled
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "namespace": self.namespace,
            "added": list(self.added),
            "removed": list(self.removed),
            "replaced": list(self.replaced),
            "enabled": list(self.enabled),
            "disabled": list(self.disabled),
        }


@dataclass
class RollbackResult:
    """What a rollback actually did, per namespace (all delta ops)."""

    snapshot: str
    flips: int = 0        # enable/disable flips (zero-evaluation)
    replaced: int = 0     # per-rule replace deltas
    added: int = 0        # snapshot rules re-added from stored payloads
    removed: int = 0      # post-snapshot rules retired
    namespaces: List[str] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return self.flips + self.replaced + self.added + self.removed


class _NamespaceState:
    """One namespace: its history, and the rule set holding its live state."""

    def __init__(self, name: str):
        self.name = name
        self.revisions: Dict[str, int] = {}             # live revisions
        # (rule_id, revision) -> offset of the log line with its payload.
        self.payloads: Dict[Tuple[str, int], int] = {}
        self.revision_watermark = 0
        self.ruleset = RuleSet(name=name)
        #: False once :meth:`RuleRepository.bind` made a caller's set live.
        self.owned = True

    def next_revision(self, rule_id: str) -> int:
        return max(
            self.revisions.get(rule_id, 0), self.revision_watermark
        ) + 1


class RuleRepository:
    """Persistent, multi-tenant rule repository over one change log.

    It owns history; each namespace's live state is one :class:`RuleSet`
    (see the module docstring). ``root=None`` keeps everything in memory
    (deterministic scenario runs, tests); with a directory, the log lives at
    ``<root>/changelog.jsonl`` with fsync'd appends, and
    :meth:`RuleRepository.open`-ing the same root replays it back to the
    identical state (round-trip property-tested).
    """

    def __init__(
        self,
        root: Optional[str] = None,
        clock: Optional[SimClock] = None,
        metrics: Optional[object] = None,
        fsync: bool = True,
    ):
        self.root = root
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics
        log_path = None
        if root is not None:
            os.makedirs(root, exist_ok=True)
            log_path = os.path.join(root, CHANGELOG_NAME)
        self.log = ChangeLog(log_path, fsync=fsync)
        self._namespaces: Dict[str, _NamespaceState] = {}
        # snapshot name -> namespace -> where its snapshot line starts
        self._snapshots: Dict[str, Dict[str, int]] = {}
        self._attribution: List[Tuple[str, str, Optional[str]]] = []
        # The revision a rollback restores; the next add/replace takes it.
        self._restoring: Optional[int] = None
        #: Author recorded for changes made with no attribution scope open.
        self.default_author = "direct"
        self._replay()

    @classmethod
    def open(cls, root: str, **kwargs: Any) -> "RuleRepository":
        """Open (or create) the repository stored under ``root``."""
        return cls(root=root, **kwargs)

    def close(self) -> None:
        """Detach from bound rule sets and close the log file."""
        for state in self._namespaces.values():
            if not state.owned:
                state.ruleset.recorder = None
        self.log.close()

    def __enter__(self) -> "RuleRepository":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- namespaces ---------------------------------------------------------------

    def namespaces(self) -> List[str]:
        return sorted(self._namespaces)

    def _ns(self, namespace: str) -> _NamespaceState:
        state = self._namespaces.get(namespace)
        if state is None:
            state = self._namespaces[namespace] = _NamespaceState(namespace)
            self._attach(state, state.ruleset)
        return state

    def _attach(self, state: _NamespaceState, ruleset: RuleSet) -> None:
        state.ruleset = ruleset
        ruleset.recorder = (
            lambda op, rule: self._write(state.name, op, rule)
        )

    def rule_ids(self, namespace: str) -> List[str]:
        return sorted(self._ns(namespace).revisions)

    def revision(self, namespace: str, rule_id: str) -> int:
        state = self._ns(namespace)
        if rule_id not in state.revisions:
            raise UnknownRuleError(rule_id)
        return state.revisions[rule_id]

    def is_enabled(self, namespace: str, rule_id: str) -> bool:
        return self._ns(namespace).ruleset.is_enabled(rule_id)

    def rule_payload(
        self, namespace: str, rule_id: str, revision: Optional[int] = None
    ) -> Dict[str, Any]:
        """The stored condition payload of ``(rule_id, revision)``."""
        try:
            return self._payload(self._ns(namespace), rule_id, revision)
        except KeyError:
            raise UnknownRuleError(
                rule_id if revision is None else f"{rule_id}@{revision}"
            ) from None

    def _payload(
        self, state: _NamespaceState, rule_id: str, revision: Optional[int] = None
    ) -> Dict[str, Any]:
        """The condition payload of ``(rule_id, revision)`` (default: the
        live revision), read back from the log line that carried it."""
        if revision is None:
            revision = state.revisions.get(rule_id)
        payload = self.log.at(state.payloads[(rule_id, revision)]).rule or {}
        payload.pop("__enabled_at_add__", None)
        return payload

    def materialize(self, namespace: str) -> RuleSet:
        """Build a fresh, unbound :class:`RuleSet` of the namespace's live
        state from its history: each live rule at its current revision's
        payload, in the live set's evaluation order (which breaks
        equal-weight vote ties in :meth:`RuleSet.apply`) and with its
        enabled flag."""
        state = self._ns(namespace)
        return RuleSet(
            (rule_from_dict(dict(self._payload(state, rule.rule_id), enabled=rule.enabled))
             for rule in state.ruleset),
            name=namespace,
        )

    # -- attribution --------------------------------------------------------------

    @contextmanager
    def attribution(
        self, author: str, reason: str = "", provenance: Optional[str] = None
    ):
        """Ambient author/reason/provenance for changes made inside the
        block — by the repository's methods and by direct calls on a
        namespace's live rule set alike (the incident manager's
        scale-down path)."""
        self._attribution.append((author, reason, provenance))
        try:
            yield self
        finally:
            self._attribution.pop()

    def _current_attribution(self) -> Tuple[str, str, Optional[str]]:
        if self._attribution:
            return self._attribution[-1]
        return (self.default_author, "", None)

    def _explicit(
        self,
        author: Optional[str],
        reason: Optional[str],
        provenance: Optional[str],
    ):
        """An attribution scope in which explicit arguments win over the
        ambient scope."""
        amb_author, amb_reason, amb_prov = self._current_attribution()
        return self.attribution(
            author if author is not None else amb_author,
            reason if reason is not None else amb_reason,
            provenance if provenance is not None else amb_prov,
        )

    # -- recording ----------------------------------------------------------------

    def _record(
        self,
        namespace: str,
        op: str,
        rule_id: str = "",
        revision: int = 0,
        rule: Optional[Dict[str, Any]] = None,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> ChangeEntry:
        """Append one entry under the ambient attribution, then fold it:
        if the append raises, neither the log nor history has changed."""
        author, reason, provenance = self._current_attribution()
        entry = ChangeEntry(
            seq=self.log.next_seq,
            at=self.clock.now,
            namespace=namespace,
            op=op,
            author=author,
            reason=reason,
            rule_id=rule_id,
            revision=revision,
            rule=rule,
            snapshot=snapshot,
            provenance=provenance,
        )
        self._fold(entry, self.log.append(entry))
        if self.metrics is not None:
            self.metrics.counter(
                "repository_changes_total", ns=namespace, op=op
            ).inc()
        return entry

    def _write(self, namespace: str, op: str, rule: Rule) -> None:
        """A namespace's live set is about to apply ``op`` to ``rule``:
        log it and fold it into history (the set's ``recorder``)."""
        if op not in ("add", "replace"):
            self._record(namespace, op, rule_id=rule.rule_id)
            return
        revision, self._restoring = self._restoring, None
        payload = _condition_payload(rule)
        if op == "add":
            payload["__enabled_at_add__"] = rule.enabled
        self._record(
            namespace, op,
            rule_id=rule.rule_id,
            revision=revision or self._ns(namespace).next_revision(rule.rule_id),
            rule=payload,
        )

    def _fold(self, entry: ChangeEntry, start: int) -> None:
        """Fold one entry, its line at ``start``, into history (live and on replay)."""
        state = self._ns(entry.namespace)
        if entry.op in ("add", "replace"):
            displaced = state.revisions.get(entry.rule_id, 0)
            if entry.revision < displaced:
                # A rollback restored an older revision: reap the newer one
                # as a remove would, so the id's next revision skips it.
                state.revision_watermark = max(state.revision_watermark, displaced)
            state.revisions[entry.rule_id] = entry.revision
            state.payloads[(entry.rule_id, entry.revision)] = start
        elif entry.op == "remove":
            reaped = state.revisions.pop(entry.rule_id, 0)
            state.revision_watermark = max(state.revision_watermark, reaped)
        elif entry.op == "snapshot":
            name = (entry.snapshot or {}).get("name", "")
            self._snapshots.setdefault(name, {})[entry.namespace] = start
        # "enable"/"disable" are live state (the set's flag); "rollback"
        # and "audit-import" are markers: no history to fold.

    def _replay(self) -> None:
        """Fold the opened log into history in one pass and build each
        namespace's live set once, from its live rules' flagged payloads."""
        live: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for start, entry in zip(self.log.starts, self.log):
            self._fold(entry, start)
            rules = live.setdefault(entry.namespace, {})
            held = rules.get(entry.rule_id)
            if entry.op == "add" or (entry.op == "replace" and held):
                payload = entry.rule or {}
                enabled = held["enabled"] if entry.op == "replace" else bool(
                    payload.pop("__enabled_at_add__", True)
                )
                rules[entry.rule_id] = dict(payload, enabled=enabled)
            elif entry.op == "remove":
                rules.pop(entry.rule_id, None)
            elif entry.op in ("enable", "disable") and held:
                held["enabled"] = entry.op == "enable"
        for namespace, rules in live.items():
            self._attach(
                self._ns(namespace), RuleSet(map(rule_from_dict, rules.values()), name=namespace)
            )

    # -- binding ------------------------------------------------------------------

    def bind(
        self,
        namespace: str,
        ruleset: RuleSet,
        author: str = "bind",
        reason: str = "",
    ) -> None:
        """Make ``ruleset`` the namespace's live set and record its changes.

        The set's rules are reconciled into history first (new ids logged
        as adds, changed conditions as replaces, flag drift as
        enable/disable), so binding a freshly rebuilt pipeline to a
        reopened repository is idempotent. Rules only the repository
        holds are then added to the set, in live order, with no log entry
        — binding an empty set to a reopened root adopts its rules. From
        then on every mutation of the set, from any caller, is logged
        before it applies.
        """
        state = self._ns(namespace)
        if not state.owned:
            raise RepositoryError(
                f"namespace {namespace!r} is already bound to "
                f"rule set {state.ruleset.name!r}"
            )
        if ruleset.recorder is not None:
            raise RepositoryError(f"rule set {ruleset.name!r} is already bound")
        held = state.ruleset
        with self.attribution(author, reason or f"bind {ruleset.name!r}"):
            for rule in ruleset:
                rule_id = rule.rule_id
                if rule_id not in held:
                    self._write(namespace, "add", rule)
                    continue
                if self._payload(state, rule_id) != _condition_payload(rule):
                    self._write(namespace, "replace", rule)
                if held.is_enabled(rule_id) != rule.enabled:
                    self._write(
                        namespace, "enable" if rule.enabled else "disable", rule
                    )
        for rule in held:
            if rule.rule_id not in ruleset:
                ruleset.add(rule)
        self._attach(state, ruleset)
        state.owned = False

    # -- repository-driven mutations ----------------------------------------------
    #
    # Each one is a call on the namespace's live set under an attribution
    # scope: the same write path as a direct call on a bound set.

    def add(
        self,
        namespace: str,
        rule: Rule,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        with self._explicit(author, reason, provenance):
            self._ns(namespace).ruleset.add(rule)
        return self.log.last

    def replace(
        self,
        namespace: str,
        rule: Rule,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        with self._explicit(author, reason, provenance):
            self._ns(namespace).ruleset.replace(rule)
        return self.log.last

    def remove(
        self,
        namespace: str,
        rule_id: str,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        with self._explicit(author, reason, provenance):
            self._ns(namespace).ruleset.remove(rule_id)
        return self.log.last

    def set_enabled(
        self,
        namespace: str,
        rule_id: str,
        enabled: bool,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> Optional[ChangeEntry]:
        """Flip one rule's enabled flag; no-op if already in that state."""
        ruleset = self._ns(namespace).ruleset
        if ruleset.is_enabled(rule_id) == enabled:
            return None
        with self._explicit(author, reason, provenance):
            (ruleset.enable if enabled else ruleset.disable)(rule_id)
        return self.log.last

    # -- snapshots ----------------------------------------------------------------

    def snapshot_names(self) -> List[str]:
        return sorted(self._snapshots)

    def get_snapshot(self, name: str) -> Dict[str, Snapshot]:
        """The snapshot's namespaces, each decoded from its log line."""
        if name not in self._snapshots:
            known = ", ".join(self.snapshot_names()) or "(none)"
            raise RepositoryError(f"unknown snapshot {name!r}; known: {known}")
        return {
            namespace: _snapshot_of(self.log.at(start))
            for namespace, start in self._snapshots[name].items()
        }

    def snapshot(
        self,
        name: str,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        namespaces: Optional[Sequence[str]] = None,
    ) -> Dict[str, Snapshot]:
        """Record a named snapshot of the given (default: all) namespaces.

        O(live rules) to *write* the ``(rule_id, revision, enabled)``
        triples; rule payloads are shared with the revision store, not
        copied. Snapshot names are immutable — re-using one is an error.
        """
        if name in self._snapshots:
            raise RepositoryError(f"snapshot {name!r} already exists")
        targets = (
            list(namespaces) if namespaces is not None else self.namespaces()
        )
        with self._explicit(author, reason, None):
            for namespace in targets:
                entries = self._entries_of(None, namespace)
                self._record(
                    namespace, "snapshot",
                    snapshot={
                        "name": name,
                        "entries": {
                            rule_id: list(entries[rule_id])
                            for rule_id in sorted(entries)
                        },
                    },
                )
        return self.get_snapshot(name) if targets else {}

    def _entries_of(
        self, ref: Optional[str], namespace: str
    ) -> Dict[str, Tuple[int, bool]]:
        """``(rule_id -> (revision, enabled))`` for a snapshot name or,
        with ``ref=None`` / ``"HEAD"``, the current live state."""
        if ref is None or ref == "HEAD":
            state = self._ns(namespace)
            return {
                rule.rule_id: (state.revisions[rule.rule_id], rule.enabled)
                for rule in state.ruleset
            }
        by_ns = self.get_snapshot(ref)
        snap = by_ns.get(namespace)
        return dict(snap.entries) if snap is not None else {}

    def diff(
        self,
        a: Optional[str],
        b: Optional[str],
        namespaces: Optional[Sequence[str]] = None,
    ) -> Dict[str, NamespaceDiff]:
        """Set-compare two snapshot names (``None``/``"HEAD"`` = live).

        Because snapshots are ``(rule_id, revision)`` sets, the diff never
        touches rule payloads: it is pure set algebra over ids and
        revision/enabled pairs.
        """
        targets = (
            list(namespaces) if namespaces is not None else self.namespaces()
        )
        out: Dict[str, NamespaceDiff] = {}
        for namespace in targets:
            ea = self._entries_of(a, namespace)
            eb = self._entries_of(b, namespace)
            added = tuple(sorted(set(eb) - set(ea)))
            removed = tuple(sorted(set(ea) - set(eb)))
            common = set(ea) & set(eb)
            replaced = tuple(sorted(
                rule_id for rule_id in common if ea[rule_id][0] != eb[rule_id][0]
            ))
            enabled = tuple(sorted(
                rule_id for rule_id in common
                if not ea[rule_id][1] and eb[rule_id][1]
            ))
            disabled = tuple(sorted(
                rule_id for rule_id in common
                if ea[rule_id][1] and not eb[rule_id][1]
            ))
            out[namespace] = NamespaceDiff(
                namespace=namespace,
                added=added, removed=removed, replaced=replaced,
                enabled=enabled, disabled=disabled,
            )
        return out

    def rollback(
        self,
        name: str,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
        namespaces: Optional[Sequence[str]] = None,
    ) -> RollbackResult:
        """Restore every (or the given) namespace to snapshot ``name``.

        The rollback is computed as ``diff(HEAD, name)`` and lowered to
        the minimal delta ops on each namespace's live set:

        * enabled-flag differences become ``enable``/``disable`` flips —
          on an incremental consumer these ride the zero-evaluation
          view-filter path (§2.2 restore semantics);
        * revision differences become single-rule ``replace`` deltas from
          the structurally shared payload store;
        * rules created after the snapshot are removed; rules removed
          since are re-added from their stored ``(rule_id, revision)``
          payload *at that revision* (the payload is byte-identical to
          the original, so reusing its revision preserves the
          versioned-identity guarantee and makes ``diff(HEAD, name)``
          empty afterwards).

        A full re-evaluation never happens: cost is O(differences), and a
        pure scale-down → rollback cycle is O(flips) with **zero** rule
        evaluations (asserted in the acceptance tests).
        """
        by_ns = self.get_snapshot(name)
        targets = (
            list(namespaces) if namespaces is not None else sorted(by_ns)
        )
        result = RollbackResult(snapshot=name)
        amb_reason = self._current_attribution()[1]
        rollback_reason = reason or amb_reason or f"rollback to {name!r}"
        with self._explicit(author, rollback_reason, provenance):
            for namespace in targets:
                if namespace not in by_ns:
                    continue
                state = self._ns(namespace)
                ruleset = state.ruleset
                snap_entries = by_ns[namespace].entries
                live = self._entries_of(None, namespace)
                ops = 0
                # 1. retire rules created after the snapshot
                for rule_id in sorted(set(live) - set(snap_entries)):
                    ruleset.remove(rule_id)
                    result.removed += 1
                    ops += 1
                # 2. re-add rules removed since, at their recorded revision
                for rule_id in sorted(set(snap_entries) - set(live)):
                    revision, enabled = snap_entries[rule_id]
                    rule = rule_from_dict(
                        dict(self._payload(state, rule_id, revision), enabled=enabled)
                    )
                    self._restoring = revision
                    ruleset.add(rule)
                    result.added += 1
                    ops += 1
                # 3. replace rules whose revision moved
                for rule_id in sorted(set(snap_entries) & set(live)):
                    revision, enabled = snap_entries[rule_id]
                    if live[rule_id][0] != revision:
                        rule = rule_from_dict(self._payload(state, rule_id, revision))
                        self._restoring = revision
                        ruleset.replace(rule)
                        result.replaced += 1
                        ops += 1
                    # 4. enabled flips (zero-evaluation on incremental consumers)
                    if live[rule_id][1] != enabled:
                        (ruleset.enable if enabled else ruleset.disable)(rule_id)
                        result.flips += 1
                        ops += 1
                self._record(
                    namespace, "rollback", snapshot={"name": name, "ops": ops}
                )
                result.namespaces.append(namespace)
        return result

    # -- queries ------------------------------------------------------------------

    def changes(
        self,
        namespace: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[ChangeEntry]:
        """The change log, oldest first (optionally one namespace), or its
        last ``limit`` entries, streamed from the log."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        entries = (
            entry for entry in self.log
            if namespace is None or entry.namespace == namespace
        )
        return list(entries if limit is None else deque(entries, maxlen=limit))

    def blame(self, rule_id: str, namespace: Optional[str] = None) -> List[ChangeEntry]:
        """Every recorded change touching ``rule_id``, newest first.

        The §2.2 analyst question — *who changed this rule, when, and
        why?* — answered from the audit log, with provenance links back
        to the telemetry that triggered each change.
        """
        return [
            entry
            for entry in self.log
            if entry.rule_id == rule_id
            and (namespace is None or entry.namespace == namespace)
        ][::-1]


def _snapshot_of(entry: ChangeEntry) -> Snapshot:
    """The :class:`Snapshot` a ``snapshot`` entry records."""
    data = entry.snapshot or {}
    entries = {
        rule_id: (int(pair[0]), bool(pair[1]))
        for rule_id, pair in data.get("entries", {}).items()
    }
    return Snapshot(
        data.get("name", ""), entry.namespace, entry.at, entry.author, entry.reason, entries
    )


def bind_chimera(
    repository: RuleRepository,
    chimera: object,
    tenant: str = "chimera",
) -> List[str]:
    """Bind a Chimera pipeline's three rule sets as tenant namespaces.

    Creates ``<tenant>/rule-based``, ``<tenant>/attr-value`` and
    ``<tenant>/filter`` — one store and one change log underneath all of
    a tenant's stages, so a snapshot/rollback spans the whole pipeline.
    """
    pairs = (
        (f"{tenant}/rule-based", chimera.rule_stage.rules),
        (f"{tenant}/attr-value", chimera.attr_stage.rules),
        (f"{tenant}/filter", chimera.filter.rules),
    )
    names = []
    for namespace, ruleset in pairs:
        repository.bind(namespace, ruleset)
        names.append(namespace)
    return names
