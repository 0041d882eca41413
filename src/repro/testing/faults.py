"""Deterministic crash injection for the durable service.

Real fault injection — killing processes mid-write — is slow and flaky;
this module replaces it with a *schedule* and a file mangler:

* a :class:`CrashPlan` names the barrier (``"journal-appended"``,
  ``"before-checkpoint"``, ...) where the daemon raises
  :class:`SimulatedCrash`, leaving the on-disk state exactly as a kill at
  that instant would;
* :func:`simulated_kill` leaves a service as SIGKILL would once a plan
  has fired;
* :func:`tear_file` truncates an append-only file mid-record, as a crash
  partway through an append would.
"""

from __future__ import annotations

from typing import List, Optional


class SimulatedCrash(Exception):
    """Raised by a :class:`CrashPlan` at a named crash point.

    Stands in for SIGKILL in durability tests: the process state is
    abandoned where it stood (no cleanup handlers run on the aborted
    work), and the test resumes a fresh instance from disk — exactly the
    recovery path a real kill -9 exercises, at test speed.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class CrashPlan:
    """A schedule of named crash points for durability components.

    Checkpoint/journal writers call :meth:`reached` at their internal
    barriers (``"journal-appended"``, ``"before-checkpoint"``, ...); a
    plan armed for that point raises :class:`SimulatedCrash` there,
    leaving the on-disk state exactly as a power cut at that instant
    would. ``hit`` logs every consultation so tests can assert the crash
    fired where expected.
    """

    def __init__(self, crash_at: Optional[str] = None, on_hit: int = 1):
        if on_hit < 1:
            raise ValueError(f"on_hit must be >= 1, got {on_hit}")
        self.crash_at = crash_at
        self.on_hit = on_hit
        self.hit: List[str] = []
        self._armed = crash_at is not None

    def reached(self, point: str) -> None:
        self.hit.append(point)
        if not self._armed or point != self.crash_at:
            return
        if self.hit.count(point) >= self.on_hit:
            self._armed = False
            raise SimulatedCrash(point)


def simulated_kill(service) -> None:
    """SIGKILL semantics for a :class:`~repro.service.StreamService`: release
    the OS handles of the logs it has open, so a fresh instance can reopen
    them, and run none of ``close()``'s cleanup — no checkpoint, no sync, no
    listener unhooked. Safe on a service whose ``start()`` stopped part-way
    or was refused."""
    service.store.close()
    for name in ("series", "provenance"):
        log = getattr(service, name, None)
        if log is not None:
            log.close()
    repository = getattr(service, "repository", None)
    if repository is not None:
        repository.log.close()


def tear_file(path: str, keep_bytes: Optional[int] = None, garbage: bytes = b"") -> int:
    """Simulate a torn write: truncate ``path`` mid-record.

    With ``keep_bytes=None`` the file loses the second half of its final
    line (a crash partway through an append); otherwise it is truncated
    to exactly ``keep_bytes``. ``garbage`` is appended afterwards (a
    partially-flushed buffer of a *new* record). Returns the resulting
    file size. Every log is an :class:`~repro.core.durability.AppendLog`,
    whose open cuts the torn tail: it was never written.
    """
    import os

    size = os.path.getsize(path)
    if keep_bytes is None:
        with open(path, "rb") as handle:
            data = handle.read()
        body = data.rstrip(b"\n")
        last_line_start = body.rfind(b"\n") + 1
        last_line_len = len(data) - last_line_start
        keep_bytes = last_line_start + max(1, last_line_len // 2)
        keep_bytes = min(keep_bytes, size)
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
        if garbage:
            handle.seek(0, os.SEEK_END)
            handle.write(garbage)
        handle.flush()
        os.fsync(handle.fileno())
    return os.path.getsize(path)
