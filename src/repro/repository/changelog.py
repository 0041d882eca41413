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
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterator, Optional

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

    The entries are encoded lines: RAM holds where each starts
    (:attr:`starts`) and the :attr:`last` one, and a read decodes. With
    ``path=None`` the lines are an in-memory buffer (scenario runs, tests);
    with a path, an :class:`~repro.core.durability.AppendLog`, so opening
    cuts a torn trailing line (a crash mid-append: never acknowledged)
    and each append is one line, synced before :meth:`append` returns.
    Creating the file syncs its directory too: a standalone repository
    has no checkpoint to do it.
    """

    def __init__(self, path: Optional[str] = None, fsync: bool = True):
        self.path = path
        self.torn_bytes_repaired = 0
        self.last: Optional[ChangeEntry] = None
        #: Where each entry's line starts, oldest first.
        self.starts = array("q")
        self._buffer = bytearray()  # an in-memory log's lines
        self._appender: Optional[AppendLog] = None
        if path is not None:
            created = not os.path.exists(path)
            self._appender = AppendLog(path, fsync=fsync)
            if created and fsync:
                fsync_dir(os.path.dirname(os.path.abspath(path)))
            self.torn_bytes_repaired = self._appender.torn_bytes_repaired
            self.starts.extend(start for start, _ in read_lines(path))
            self.last = self.entry(-1) if self.starts else None

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def next_seq(self) -> int:
        return self.last.seq + 1 if self.last is not None else 1

    def offset(self) -> int:
        """Byte length of the log: where the next entry starts."""
        return len(self._buffer) if self.path is None else self._appender.end

    def at(self, start: int) -> ChangeEntry:
        """The entry whose line starts at byte ``start``."""
        if self.path is None:
            line = self._buffer[start:self._buffer.index(b"\n", start)]
        else:
            with open(self.path, "rb") as handle:
                handle.seek(start)
                line = handle.readline()
        return ChangeEntry.from_dict(json.loads(line))

    def entry(self, index: int) -> ChangeEntry:
        """The ``index``-th entry (negative counts from the newest)."""
        return self.at(self.starts[index])

    def __iter__(self) -> Iterator[ChangeEntry]:
        """Every entry, oldest first, one line decoded at a time."""
        if self.path is None:
            lines = self._buffer.splitlines()
        else:
            lines = (line for _, line in read_lines(self.path))
        return (ChangeEntry.from_dict(json.loads(line)) for line in islice(lines, len(self)))

    def append(self, entry: ChangeEntry) -> int:
        """Record one entry (durably when the log is file-backed); returns
        the offset its line starts at.

        The line is written before the entry is counted, so a write that
        raises leaves the log unchanged.
        """
        if entry.seq != self.next_seq:
            raise ValueError(
                f"change log is append-only: expected seq {self.next_seq}, "
                f"got {entry.seq}"
            )
        start, line = self.offset(), json_line(entry.to_dict())
        if self.path is None:
            self._buffer += line
        else:
            self._appender.append(line)
            self._appender.sync()
        self.starts.append(start)
        self.last = entry
        return start

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None

    def __enter__(self) -> "ChangeLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
