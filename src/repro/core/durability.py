"""Crash-safe file primitives: atomic replace and fsync'd JSONL appends.

The paper's rules are long-lived assets ("tens of thousands of rules ...
accumulated over years"); the files holding them must survive crashes at
any instant. Two disciplines cover every write the rule-state layer does:

* **atomic replace** (:func:`atomic_write_text` / :func:`atomic_write_json`)
  for whole-document stores: write to a *uniquely named* temp file in the
  target directory, fsync the file, ``os.replace`` onto the destination,
  then fsync the directory so the rename itself is durable. A crash at any
  point leaves either the old document or the new one — never a torn mix —
  and concurrent writers cannot corrupt each other because every writer
  gets its own temp name (``tempfile.mkstemp``).

* **fsync'd appends** (:class:`JsonlAppender`) for append-only logs: each
  record is one JSON line written, flushed, and fsync'd as a unit. A crash
  mid-append can leave at most one torn trailing line; :func:`read_jsonl`
  stops at the last complete line, so the log is always readable at the
  previous durable state (property-tested in ``tests/test_repository_properties.py``).

Reclaiming a torn tail or rolling a log back to a checkpointed offset is
one more primitive, :func:`truncate_file` (truncate, fsync the file, fsync
the directory).

These are the primitives behind :mod:`repro.core.persistence`, the
:mod:`repro.repository` change log and the service's checkpoint store.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename/creation inside it is durable.

    Best-effort: platforms (or filesystems) that refuse to open a
    directory for reading simply skip the sync rather than failing the
    write that triggered it.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def truncate_file(path: str, keep_bytes: int) -> int:
    """Durably truncate ``path`` to ``keep_bytes``; returns bytes dropped.

    Missing file with ``keep_bytes == 0`` is a no-op (nothing was ever
    written); a missing file with a positive offset is corruption the
    caller must surface, so it raises.
    """
    if not os.path.exists(path):
        if keep_bytes == 0:
            return 0
        raise FileNotFoundError(
            f"checkpoint expects {keep_bytes} bytes of {path!r}, file is missing"
        )
    size = os.path.getsize(path)
    if keep_bytes > size:
        raise ValueError(
            f"checkpoint expects {keep_bytes} bytes of {path!r}, "
            f"only {size} on disk — the checkpoint is ahead of its logs"
        )
    if keep_bytes == size:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_dir(os.path.dirname(os.path.abspath(path)))
    return size - keep_bytes


def atomic_write_text(path: str, text: str, fsync: bool = True) -> None:
    """Atomically (and durably) replace ``path`` with ``text``.

    The temp file is uniquely named (``mkstemp``) in the destination's
    directory, so concurrent writers never stomp each other's temp file,
    and ``os.replace`` stays a same-filesystem rename. The temp file and
    then the directory are fsync'd, closing the two crash windows the old
    fixed-name ``f"{path}.tmp"`` scheme left open. ``fsync=False`` keeps
    the flush and the atomic rename and skips both syncs, as
    :class:`JsonlAppender` does (throwaway roots: tests, benchmarks).
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, temporary = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(directory)


def atomic_write_json(
    path: str, payload: Any, indent: Optional[int] = 2, fsync: bool = True
) -> None:
    """Atomically write ``payload`` as (key-sorted) JSON to ``path``;
    ``indent=None`` writes it compact, with no space after a separator."""
    separators = (",", ":") if indent is None else None
    atomic_write_text(
        path,
        json.dumps(payload, indent=indent, sort_keys=True, separators=separators),
        fsync=fsync,
    )


def _encode_jsonl(payload: Dict[str, Any]) -> bytes:
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class JsonlAppender:
    """Append-only JSONL writer with per-record durability.

    Every :meth:`append` writes one complete line, flushes, and fsyncs, so
    a record that was acknowledged is on disk. Creating the file also
    fsyncs the parent directory (the file's *existence* must survive a
    crash too). ``fsync=False`` keeps every flush and issues no sync at
    all. Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self._fsync = fsync
        directory = os.path.dirname(os.path.abspath(path))
        existed = os.path.exists(path)
        self._handle = open(path, "ab")
        if fsync and not existed:
            fsync_dir(directory)

    def append(self, payload: Dict[str, Any]) -> None:
        """Durably append one record (a JSON-safe dict) as a line."""
        self._handle.write(_encode_jsonl(payload))
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def offset(self) -> int:
        """Byte length of the file including every acknowledged append."""
        self._handle.flush()
        return self._handle.tell()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self._fsync:
                try:
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass
            self._handle.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def scan_jsonl(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read every *complete* record of a JSONL file.

    Returns ``(records, torn_bytes)`` where ``torn_bytes`` counts trailing
    bytes after the last newline — the footprint of an append interrupted
    by a crash. Torn bytes are ignored (the log is readable at the
    previous durable state); callers that want to reclaim the space can
    truncate to ``os.path.getsize(path) - torn_bytes``.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    end = raw.rfind(b"\n") + 1  # 0 when no complete line exists
    torn = len(raw) - end
    records = [
        json.loads(line) for line in raw[:end].split(b"\n") if line
    ]
    return records, torn


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """All complete records of a JSONL file (torn trailing bytes ignored)."""
    return scan_jsonl(path)[0]


def iter_jsonl_lines(path: str) -> Iterator[bytes]:
    """Complete, non-empty lines of a JSONL file, one at a time: the
    :func:`scan_jsonl` contract (trailing bytes without a newline are a
    torn append and end the iteration) without holding the file."""
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                return
            if len(line) > 1:
                yield line


def tail_jsonl_lines(path: str, keep: int) -> Tuple[Deque[bytes], int]:
    """``(the last keep complete lines, how many complete lines there
    are)`` in one streaming pass: what a bounded in-memory window over an
    unbounded log needs on reopen, without decoding what it will not hold."""
    tail: Deque[bytes] = deque(maxlen=keep)
    total = 0
    for line in iter_jsonl_lines(path):
        tail.append(line)
        total += 1
    return tail, total


def iter_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Iterate complete records of a JSONL file, decoding line by line."""
    return map(json.loads, iter_jsonl_lines(path))
