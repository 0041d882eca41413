"""The repository's append-only change log.

Every mutation of the rule base — who, when, why, what — is one
:class:`ChangeEntry`, appended and synced as one line of
``changelog.jsonl`` (an :class:`~repro.core.durability.AppendLog`) and
replayable into the exact repository state. The log is the
*authoritative* store: rules, revisions, enabled flags, and snapshots are
all folds over it, in the spirit of the audit-trail-centric designs the
paper's §4 maintenance story calls for.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.durability import AppendLog, fsync_dir, json_line, read_lines

#: Ops a change entry may carry.
OPS = (
    "add",          # a new rule (payload attached)
    "replace",      # an edited rule under the same id (payload attached)
    "remove",       # rule retired from the namespace
    "enable",       # per-namespace enabled flip
    "disable",
    "snapshot",     # a named snapshot was taken (entries attached)
    "rollback",     # marker: a rollback to a named snapshot ran
    "audit-import", # marker from a retired importer; read, never written
)


@dataclass(frozen=True)
class ChangeEntry:
    """One recorded change: the unit of blame.

    ``provenance`` is a free-form link into the observability stack —
    typically a :class:`~repro.observability.provenance.ProvenanceRecord`
    sequence number or an incident id — connecting "this rule was
    disabled" to "because of these classified items".
    """

    seq: int
    at: float
    namespace: str
    op: str
    author: str
    reason: str = ""
    rule_id: str = ""
    revision: int = 0
    rule: Optional[Dict[str, Any]] = None
    snapshot: Optional[Dict[str, Any]] = None
    provenance: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "seq": self.seq,
            "at": self.at,
            "ns": self.namespace,
            "op": self.op,
            "author": self.author,
            "reason": self.reason,
        }
        if self.rule_id:
            payload["rule_id"] = self.rule_id
        if self.revision:
            payload["revision"] = self.revision
        if self.rule is not None:
            payload["rule"] = self.rule
        if self.snapshot is not None:
            payload["snapshot"] = self.snapshot
        if self.provenance is not None:
            payload["provenance"] = self.provenance
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChangeEntry":
        return cls(
            seq=int(payload["seq"]),
            at=float(payload["at"]),
            namespace=str(payload["ns"]),
            op=str(payload["op"]),
            author=str(payload["author"]),
            reason=str(payload.get("reason", "")),
            rule_id=str(payload.get("rule_id", "")),
            revision=int(payload.get("revision", 0)),
            rule=payload.get("rule"),
            snapshot=payload.get("snapshot"),
            provenance=payload.get("provenance"),
        )

    def describe(self) -> str:
        """One human-readable log line."""
        target = f" {self.rule_id}" if self.rule_id else ""
        if self.op == "snapshot" and self.snapshot is not None:
            target = f" {self.snapshot.get('name', '')!r}"
        if self.op == "rollback" and self.snapshot is not None:
            target = f" -> {self.snapshot.get('name', '')!r}"
        reason = f" ({self.reason})" if self.reason else ""
        return (
            f"#{self.seq:04d} t={self.at:.3f} [{self.namespace}] "
            f"{self.op}{target} by {self.author}{reason}"
        )


class ChangeLog:
    """Durable, replayable sequence of :class:`ChangeEntry`.

    With ``path=None`` the log is in-memory only (scenario runs, tests);
    with a path it is an :class:`~repro.core.durability.AppendLog`, so
    opening cuts a torn trailing line (a crash mid-append: never
    acknowledged) before every complete line is replayed, and each
    append is one line, synced before :meth:`append` returns. Creating
    the file syncs its directory too: a standalone repository has no
    checkpoint to do it.
    """

    def __init__(self, path: Optional[str] = None, fsync: bool = True):
        self.path = path
        self.entries: List[ChangeEntry] = []
        self.torn_bytes_repaired = 0
        self._appender: Optional[AppendLog] = None
        if path is not None:
            created = not os.path.exists(path)
            self._appender = AppendLog(path, fsync=fsync)
            if created and fsync:
                fsync_dir(os.path.dirname(os.path.abspath(path)))
            self.torn_bytes_repaired = self._appender.torn_bytes_repaired
            self.entries = [
                ChangeEntry.from_dict(json.loads(line))
                for _, line in read_lines(path)
            ]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def next_seq(self) -> int:
        return self.entries[-1].seq + 1 if self.entries else 1

    def offset(self) -> int:
        """Byte length of the file-backed log: where the next entry starts."""
        return self._appender.end

    def append(self, entry: ChangeEntry) -> ChangeEntry:
        """Record one entry (durably when the log is file-backed).

        The line is written before the entry joins :attr:`entries`, so a
        write that raises leaves the in-memory log unchanged.
        """
        if entry.seq != self.next_seq:
            raise ValueError(
                f"change log is append-only: expected seq {self.next_seq}, "
                f"got {entry.seq}"
            )
        if self._appender is not None:
            self._appender.append(json_line(entry.to_dict()))
            self._appender.sync()
        self.entries.append(entry)
        return entry

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None

    def __enter__(self) -> "ChangeLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
