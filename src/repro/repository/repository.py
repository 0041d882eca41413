"""The versioned, multi-tenant rule repository (ROADMAP item 2).

The paper's rules are long-lived assets; this module gives them a
persistent home with the properties §4's maintenance story demands:

* **audit log** — every change (add / replace / remove / enable / disable)
  is appended to a durable change log with author, reason, timestamp, and
  an optional provenance link (:mod:`repro.repository.changelog`);
* **named snapshots with structural sharing** — a snapshot is just the set
  of ``(rule_id, revision)`` pairs plus per-rule enabled flags; rule
  payloads are stored once per revision no matter how many snapshots
  reference them, so ``diff`` is a set comparison;
* **rollback that rides the zero-evaluation path** — rolling a bound
  namespace back lowers to ``enable``/``disable`` flips (pure
  :class:`~repro.execution.incremental.MatchStore` view filters, zero rule
  evaluations) plus per-rule ``replace``/``add``/``remove`` deltas — never
  a full re-evaluation;
* **multi-tenant namespaces** — ``chimera``, ``em``, ``ie``, ``kb``,
  ``tagging`` (or any other domain) share one store, one change log, one
  metrics registry, and one incident manager.

A namespace may be *bound* to a live :class:`~repro.core.ruleset.RuleSet`:
mutations made through the repository API are applied to the rule set
(fanning out to its incremental subscribers), and mutations made directly
on the rule set — e.g. :meth:`IncidentManager.scale_down
<repro.chimera.incidents.IncidentManager.scale_down>` disabling rules
during an incident — are captured through the rule set's subscription feed
and recorded with the ambient :meth:`RuleRepository.attribution`. Unbound
namespaces work purely on the stored state (the CLI's mode of operation).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import DuplicateRuleError, UnknownRuleError
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

    The repository owns enabled flags per namespace; the payload keyed by
    ``(rule_id, revision)`` must denote the rule's condition only, so two
    sightings of the same pair are guaranteed to be the same condition.
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

    def to_log_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "entries": {
                rule_id: [revision, enabled]
                for rule_id, (revision, enabled) in sorted(self.entries.items())
            },
        }


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
    """Everything the repository knows about one namespace."""

    def __init__(self, name: str):
        self.name = name
        self.rules: Dict[str, Dict[str, Any]] = {}      # live condition payloads
        self.revisions: Dict[str, int] = {}             # live revisions
        self.enabled: Dict[str, bool] = {}              # live enabled flags
        # (rule_id, revision) -> payload; the structurally shared history.
        self.payloads: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self.revision_watermark = 0
        self.bound: Optional[RuleSet] = None
        self.unsubscribe: Optional[Callable[[], None]] = None

    def next_revision(self, rule_id: str) -> int:
        return max(
            self.revisions.get(rule_id, 0), self.revision_watermark
        ) + 1


class RuleRepository:
    """Persistent, multi-tenant rule repository over one change log.

    ``root=None`` keeps everything in memory (deterministic scenario runs,
    tests); with a directory, the change log lives at
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
        pin_seq: Optional[int] = None,
    ):
        self.root = root
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics
        log_path = None
        if root is not None:
            os.makedirs(root, exist_ok=True)
            log_path = os.path.join(root, CHANGELOG_NAME)
        # ``pin_seq`` (durable-service resume) truncates any change-log
        # entries beyond the last acknowledged checkpoint before replay.
        self.log = ChangeLog(log_path, fsync=fsync, pin_seq=pin_seq)
        self._namespaces: Dict[str, _NamespaceState] = {}
        # snapshot name -> namespace -> Snapshot
        self._snapshots: Dict[str, Dict[str, Snapshot]] = {}
        self._attribution: List[Tuple[str, str, Optional[str]]] = []
        self._self_mutating = 0
        #: Author recorded for changes made with no attribution scope open.
        self.default_author = "direct"
        for entry in self.log.entries:
            self._fold(entry)

    @classmethod
    def open(cls, root: str, **kwargs: Any) -> "RuleRepository":
        """Open (or create) the repository stored under ``root``."""
        return cls(root=root, **kwargs)

    def close(self) -> None:
        """Detach from bound rule sets and close the log file."""
        for state in self._namespaces.values():
            if state.unsubscribe is not None:
                state.unsubscribe()
                state.unsubscribe = None
                state.bound = None
        self.log.close()

    def __enter__(self) -> "RuleRepository":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- namespaces ---------------------------------------------------------------

    def namespaces(self) -> List[str]:
        return sorted(self._namespaces)

    def _ns(self, namespace: str) -> _NamespaceState:
        if namespace not in self._namespaces:
            self._namespaces[namespace] = _NamespaceState(namespace)
        return self._namespaces[namespace]

    def rule_ids(self, namespace: str) -> List[str]:
        return sorted(self._ns(namespace).rules)

    def revision(self, namespace: str, rule_id: str) -> int:
        state = self._ns(namespace)
        if rule_id not in state.revisions:
            raise UnknownRuleError(rule_id)
        return state.revisions[rule_id]

    def is_enabled(self, namespace: str, rule_id: str) -> bool:
        state = self._ns(namespace)
        if rule_id not in state.enabled:
            raise UnknownRuleError(rule_id)
        return state.enabled[rule_id]

    def rule_payload(
        self, namespace: str, rule_id: str, revision: Optional[int] = None
    ) -> Dict[str, Any]:
        """The stored condition payload of ``(rule_id, revision)``."""
        state = self._ns(namespace)
        if revision is None:
            if rule_id not in state.rules:
                raise UnknownRuleError(rule_id)
            return dict(state.rules[rule_id])
        try:
            return dict(state.payloads[(rule_id, revision)])
        except KeyError:
            raise UnknownRuleError(f"{rule_id}@{revision}") from None

    def materialize(self, namespace: str) -> RuleSet:
        """Build a fresh :class:`RuleSet` of the namespace's live state.

        Rules come back in the bound set's evaluation order — the fold
        keeps ``state.rules`` in it (an add appends, a replace keeps its
        place, a remove deletes) — because that order breaks equal-weight
        vote ties in :meth:`RuleSet.apply`.
        """
        state = self._ns(namespace)
        ruleset = RuleSet(name=namespace)
        for rule_id in state.rules:
            payload = dict(state.rules[rule_id])
            payload["enabled"] = state.enabled[rule_id]
            ruleset.add(rule_from_dict(payload))
        return ruleset

    # -- attribution --------------------------------------------------------------

    @contextmanager
    def attribution(
        self, author: str, reason: str = "", provenance: Optional[str] = None
    ):
        """Ambient author/reason/provenance for changes made inside the
        block — including changes arriving through a bound rule set's
        subscription feed (the incident manager's scale-down path)."""
        self._attribution.append((author, reason, provenance))
        try:
            yield self
        finally:
            self._attribution.pop()

    def _current_attribution(self) -> Tuple[str, str, Optional[str]]:
        if self._attribution:
            return self._attribution[-1]
        return (self.default_author, "", None)

    # -- recording ----------------------------------------------------------------

    def _record(
        self,
        namespace: str,
        op: str,
        rule_id: str = "",
        revision: int = 0,
        rule: Optional[Dict[str, Any]] = None,
        snapshot: Optional[Dict[str, Any]] = None,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        amb_author, amb_reason, amb_prov = self._current_attribution()
        entry = ChangeEntry(
            seq=self.log.next_seq,
            at=self.clock.now,
            namespace=namespace,
            op=op,
            author=author if author is not None else amb_author,
            reason=reason if reason is not None else amb_reason,
            rule_id=rule_id,
            revision=revision,
            rule=rule,
            snapshot=snapshot,
            provenance=provenance if provenance is not None else amb_prov,
        )
        self._fold(entry)
        self.log.append(entry)
        if self.metrics is not None:
            self.metrics.counter(
                "repository_changes_total", ns=namespace, op=op
            ).inc()
        return entry

    def _fold(self, entry: ChangeEntry) -> None:
        """Apply one entry to in-memory state (used live and on replay)."""
        state = self._ns(entry.namespace)
        if entry.op in ("add", "replace"):
            payload = dict(entry.rule or {})
            state.rules[entry.rule_id] = payload
            state.revisions[entry.rule_id] = entry.revision
            state.payloads[(entry.rule_id, entry.revision)] = payload
            if entry.op == "add":
                state.enabled[entry.rule_id] = bool(
                    (entry.rule or {}).get("__enabled_at_add__", True)
                )
                payload.pop("__enabled_at_add__", None)
        elif entry.op == "remove":
            state.rules.pop(entry.rule_id, None)
            reaped = state.revisions.pop(entry.rule_id, 0)
            state.revision_watermark = max(state.revision_watermark, reaped)
            state.enabled.pop(entry.rule_id, None)
        elif entry.op == "enable":
            state.enabled[entry.rule_id] = True
        elif entry.op == "disable":
            state.enabled[entry.rule_id] = False
        elif entry.op == "snapshot":
            data = entry.snapshot or {}
            snap = Snapshot(
                name=data.get("name", ""),
                namespace=entry.namespace,
                at=entry.at,
                author=entry.author,
                reason=entry.reason,
                entries={
                    rule_id: (int(pair[0]), bool(pair[1]))
                    for rule_id, pair in data.get("entries", {}).items()
                },
            )
            self._snapshots.setdefault(snap.name, {})[entry.namespace] = snap
        # "rollback" and "audit-import" are markers: no state change.

    # -- bound rule sets ----------------------------------------------------------

    def bind(
        self,
        namespace: str,
        ruleset: RuleSet,
        author: str = "bind",
        reason: str = "",
    ) -> None:
        """Bind a live rule set to ``namespace`` and start recording.

        Rules already in the set are reconciled into the store first
        (new ids recorded as adds, changed conditions as replaces, flag
        drift as enable/disable), so binding a freshly rebuilt pipeline
        to a reopened repository is idempotent. After binding, every
        mutation of the rule set — from any caller — lands in the log.
        """
        state = self._ns(namespace)
        if state.bound is not None:
            raise RepositoryError(
                f"namespace {namespace!r} is already bound to "
                f"rule set {state.bound.name!r}"
            )
        with self.attribution(author, reason or f"bind {ruleset.name!r}"):
            for rule in ruleset:
                payload = _condition_payload(rule)
                flag = ruleset.is_enabled(rule.rule_id)
                if rule.rule_id not in state.rules:
                    self._record(
                        namespace, "add",
                        rule_id=rule.rule_id,
                        revision=state.next_revision(rule.rule_id),
                        rule=dict(payload, __enabled_at_add__=flag),
                    )
                else:
                    if state.rules[rule.rule_id] != payload:
                        self._record(
                            namespace, "replace",
                            rule_id=rule.rule_id,
                            revision=state.next_revision(rule.rule_id),
                            rule=payload,
                        )
                    if state.enabled[rule.rule_id] != flag:
                        self._record(
                            namespace,
                            "enable" if flag else "disable",
                            rule_id=rule.rule_id,
                        )
        state.bound = ruleset
        state.unsubscribe = ruleset.subscribe(
            lambda event, rule: self._on_ruleset_event(namespace, event, rule)
        )

    def _on_ruleset_event(self, namespace: str, event: str, rule: Rule) -> None:
        if self._self_mutating:
            return  # repository-driven mutation: already recorded
        state = self._ns(namespace)
        rule_id = rule.rule_id
        if event == "added":
            self._record(
                namespace, "add",
                rule_id=rule_id,
                revision=state.next_revision(rule_id),
                rule=dict(_condition_payload(rule), __enabled_at_add__=rule.enabled),
            )
            return
        if rule_id not in state.rules:
            # Defensive auto-import: a rule the store never saw (bound set
            # mutated before binding finished, or an exotic caller).
            self._record(
                namespace, "add",
                rule_id=rule_id,
                revision=state.next_revision(rule_id),
                rule=dict(_condition_payload(rule), __enabled_at_add__=rule.enabled),
            )
        if event == "removed":
            self._record(namespace, "remove", rule_id=rule_id)
        elif event == "replaced":
            self._record(
                namespace, "replace",
                rule_id=rule_id,
                revision=state.next_revision(rule_id),
                rule=_condition_payload(rule),
            )
        elif event == "enabled":
            if not state.enabled.get(rule_id, False):
                self._record(namespace, "enable", rule_id=rule_id)
        elif event == "disabled":
            if state.enabled.get(rule_id, True):
                self._record(namespace, "disable", rule_id=rule_id)

    @contextmanager
    def _self_mutation(self):
        self._self_mutating += 1
        try:
            yield
        finally:
            self._self_mutating -= 1

    # -- repository-driven mutations ----------------------------------------------

    def add(
        self,
        namespace: str,
        rule: Rule,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        state = self._ns(namespace)
        if rule.rule_id in state.rules:
            raise DuplicateRuleError(
                f"rule {rule.rule_id!r} already in namespace {namespace!r}"
            )
        entry = self._record(
            namespace, "add",
            rule_id=rule.rule_id,
            revision=state.next_revision(rule.rule_id),
            rule=dict(_condition_payload(rule), __enabled_at_add__=rule.enabled),
            author=author, reason=reason, provenance=provenance,
        )
        if state.bound is not None and rule.rule_id not in state.bound:
            with self._self_mutation():
                state.bound.add(rule)
        return entry

    def replace(
        self,
        namespace: str,
        rule: Rule,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        state = self._ns(namespace)
        if rule.rule_id not in state.rules:
            raise UnknownRuleError(rule.rule_id)
        entry = self._record(
            namespace, "replace",
            rule_id=rule.rule_id,
            revision=state.next_revision(rule.rule_id),
            rule=_condition_payload(rule),
            author=author, reason=reason, provenance=provenance,
        )
        if state.bound is not None and rule.rule_id in state.bound:
            with self._self_mutation():
                state.bound.replace(rule)
        return entry

    def remove(
        self,
        namespace: str,
        rule_id: str,
        author: Optional[str] = None,
        reason: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> ChangeEntry:
        state = self._ns(namespace)
        if rule_id not in state.rules:
            raise UnknownRuleError(rule_id)
        entry = self._record(
            namespace, "remove", rule_id=rule_id,
            author=author, reason=reason, provenance=provenance,
        )
        if state.bound is not None and rule_id in state.bound:
            with self._self_mutation():
                state.bound.remove(rule_id)
        return entry

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
        state = self._ns(namespace)
        if rule_id not in state.rules:
            raise UnknownRuleError(rule_id)
        if state.enabled[rule_id] == enabled:
            return None
        entry = self._record(
            namespace, "enable" if enabled else "disable", rule_id=rule_id,
            author=author, reason=reason, provenance=provenance,
        )
        if state.bound is not None and rule_id in state.bound:
            with self._self_mutation():
                if enabled:
                    state.bound.enable(rule_id)
                else:
                    state.bound.disable(rule_id)
        return entry

    # -- snapshots ----------------------------------------------------------------

    def snapshot_names(self) -> List[str]:
        return sorted(self._snapshots)

    def get_snapshot(self, name: str) -> Dict[str, Snapshot]:
        try:
            return dict(self._snapshots[name])
        except KeyError:
            known = ", ".join(self.snapshot_names()) or "(none)"
            raise RepositoryError(
                f"unknown snapshot {name!r}; known: {known}"
            ) from None

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
        amb_author, amb_reason, _ = self._current_attribution()
        author = author if author is not None else amb_author
        reason = reason if reason is not None else amb_reason
        targets = (
            list(namespaces) if namespaces is not None else self.namespaces()
        )
        out: Dict[str, Snapshot] = {}
        for namespace in targets:
            state = self._ns(namespace)
            snap = Snapshot(
                name=name,
                namespace=namespace,
                at=self.clock.now,
                author=author,
                reason=reason,
                entries={
                    rule_id: (state.revisions[rule_id], state.enabled[rule_id])
                    for rule_id in state.rules
                },
            )
            self._record(
                namespace, "snapshot",
                snapshot=snap.to_log_dict(),
                author=author, reason=reason,
            )
            out[namespace] = self._snapshots[name][namespace]
        return out

    def _entries_of(
        self, ref: Optional[str], namespace: str
    ) -> Dict[str, Tuple[int, bool]]:
        """``(rule_id -> (revision, enabled))`` for a snapshot name or,
        with ``ref=None`` / ``"HEAD"``, the current live state."""
        if ref is None or ref == "HEAD":
            state = self._ns(namespace)
            return {
                rule_id: (state.revisions[rule_id], state.enabled[rule_id])
                for rule_id in state.rules
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
        the minimal delta ops:

        * enabled-flag differences become ``enable``/``disable`` flips —
          on a bound rule set these ride the incremental engine's
          zero-evaluation view-filter path (§2.2 restore semantics);
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
        amb_author, amb_reason, amb_prov = self._current_attribution()
        author = author if author is not None else amb_author
        provenance = provenance if provenance is not None else amb_prov
        rollback_reason = reason or amb_reason or f"rollback to {name!r}"
        with self.attribution(author, rollback_reason, provenance):
            for namespace in targets:
                if namespace not in by_ns:
                    continue
                state = self._ns(namespace)
                snap_entries = by_ns[namespace].entries
                live = self._entries_of(None, namespace)
                ops = 0
                # 1. retire rules created after the snapshot
                for rule_id in sorted(set(live) - set(snap_entries)):
                    self.remove(
                        namespace, rule_id,
                        author=author, reason=rollback_reason,
                        provenance=provenance,
                    )
                    result.removed += 1
                    ops += 1
                # 2. re-add rules removed since, at their recorded revision
                for rule_id in sorted(set(snap_entries) - set(live)):
                    revision, enabled = snap_entries[rule_id]
                    payload = dict(state.payloads[(rule_id, revision)])
                    self._record(
                        namespace, "add",
                        rule_id=rule_id,
                        revision=revision,
                        rule=dict(payload, __enabled_at_add__=enabled),
                        author=author, reason=rollback_reason,
                        provenance=provenance,
                    )
                    if state.bound is not None and rule_id not in state.bound:
                        rule = rule_from_dict(dict(payload, enabled=enabled))
                        with self._self_mutation():
                            state.bound.add(rule)
                    result.added += 1
                    ops += 1
                # 3. replace rules whose revision moved
                for rule_id in sorted(set(snap_entries) & set(live)):
                    revision, enabled = snap_entries[rule_id]
                    if live[rule_id][0] != revision:
                        payload = dict(state.payloads[(rule_id, revision)])
                        self._record(
                            namespace, "replace",
                            rule_id=rule_id,
                            revision=revision,
                            rule=payload,
                            author=author, reason=rollback_reason,
                            provenance=provenance,
                        )
                        if state.bound is not None and rule_id in state.bound:
                            rule = rule_from_dict(dict(payload, enabled=enabled))
                            with self._self_mutation():
                                state.bound.replace(rule)
                        result.replaced += 1
                        ops += 1
                    # 4. enabled flips (zero-evaluation on bound sets)
                    if live[rule_id][1] != enabled:
                        self.set_enabled(
                            namespace, rule_id, enabled,
                            author=author, reason=rollback_reason,
                            provenance=provenance,
                        )
                        result.flips += 1
                        ops += 1
                self._record(
                    namespace, "rollback",
                    snapshot={"name": name, "ops": ops},
                    author=author, reason=rollback_reason,
                    provenance=provenance,
                )
                result.namespaces.append(namespace)
        return result

    # -- queries ------------------------------------------------------------------

    def changes(
        self,
        namespace: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[ChangeEntry]:
        """The change log, oldest first (optionally one namespace/tail)."""
        entries = [
            entry for entry in self.log.entries
            if namespace is None or entry.namespace == namespace
        ]
        if limit is not None:
            entries = entries[-limit:]
        return entries

    def blame(self, rule_id: str, namespace: Optional[str] = None) -> List[ChangeEntry]:
        """Every recorded change touching ``rule_id``, newest first.

        The §2.2 analyst question — *who changed this rule, when, and
        why?* — answered from the audit log, with provenance links back
        to the telemetry that triggered each change.
        """
        return [
            entry
            for entry in reversed(self.log.entries)
            if entry.rule_id == rule_id
            and (namespace is None or entry.namespace == namespace)
        ]


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
