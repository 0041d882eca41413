"""Crash-safe file primitives: atomic replace and append-only logs.

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

* **append-only logs** (:class:`AppendLog`, read back by
  :func:`read_lines`) for histories: the change log, the provenance
  spool, the service's journal and series (property-tested for a cut at
  every byte in ``tests/test_repository_properties.py``).

Rolling a log back to a checkpointed offset is one more primitive,
:func:`truncate_file` (truncate, fsync the file, fsync the directory).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, Optional, Tuple


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
    :class:`AppendLog` does (throwaway roots: tests, benchmarks).
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


def json_line(payload: Dict[str, Any]) -> bytes:
    """``payload`` as one compact, key-sorted JSON line: the line format of
    the batch journal, the change log and the metric series."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def read_lines(path: str) -> Iterator[Tuple[int, bytes]]:
    """``(offset, line)`` for every complete, non-empty line of ``path``,
    oldest first, one line in memory at a time: the one way a log is read
    back. Bytes after the last newline are a torn append and end the
    iteration; a missing file has no lines."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        offset = 0
        for line in handle:
            if not line.endswith(b"\n"):
                return
            if len(line) > 1:
                yield offset, line
            offset += len(line)


def _complete_length(path: str) -> int:
    """Bytes of ``path`` up to and including its last newline (0 for a
    missing file), found by reading back from the end."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return 0
    with handle:
        position = handle.seek(0, os.SEEK_END)
        while position:
            step = min(position, 1 << 16)
            position -= step
            handle.seek(position)
            newline = handle.read(step).rfind(b"\n")
            if newline >= 0:
                return position + newline + 1
    return 0


class AppendLog:
    """A file of newline-terminated lines, written at its end only.

    Opening cuts a torn tail — bytes after the last newline, left by a
    crash mid-append and never acknowledged — so the next line starts a
    line of its own (``torn_bytes_repaired`` counts them). :meth:`append`
    buffers one encoded line; :meth:`sync` flushes, fsyncs (not with
    ``fsync=False``) and returns :attr:`end`: per record, or once per
    batch that a checkpoint acknowledges. Opening does not sync the
    directory: the service's checkpoint does with every save, and the
    change log when it creates its file.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        #: Byte length of the log, every appended line included.
        self.end = _complete_length(path)
        self.torn_bytes_repaired = truncate_file(path, self.end)
        self._handle = open(path, "ab")

    def append(self, line: bytes) -> int:
        """Buffer one encoded line (ending in a newline); returns the
        offset it starts at."""
        start = self.end
        self._handle.write(line)
        self.end = start + len(line)
        return start

    def sync(self) -> int:
        """Make every appended line durable; returns :attr:`end`."""
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        return self.end

    def read(self, start: int, stop: Optional[int] = None) -> bytes:
        """Bytes ``[start, stop)`` — to :attr:`end` by default — lines not
        yet synced included (a closed log reads too)."""
        if not self._handle.closed:
            self._handle.flush()
        with open(self.path, "rb") as handle:
            handle.seek(start)
            return handle.read((self.end if stop is None else stop) - start)

    def close(self) -> None:
        """Flush and close; lines appended since the last :meth:`sync` are
        not synced (none is acknowledged yet)."""
        self._handle.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
