"""Ring-buffered metric time series, persisted as JSONL.

After every batch the daemon samples the
:class:`~repro.observability.metrics.MetricsRegistry` *delta* since the
previous sample (cheap, copy-free — satellite API on the registry) plus
a handful of gauges (ordinal, clock day, open incidents, wall latency)
and appends the sample here. The file, an
:class:`~repro.core.durability.AppendLog` synced per sample, is the
durable history and the window's only copy: the ring holds where each of
the last ``window`` lines (~8 KB each) starts, and ``tail`` — like
:func:`load_series` — reads lines back and decodes them.

Samples are **operational telemetry, not replay state**: wall-clock
latencies differ run to run, so the byte-identity contract explicitly
excludes this file's *values* (its length is still rolled back on resume
so the sample-per-batch invariant holds).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.core.durability import AppendLog, json_line, read_lines


def _read_window(
    starts: Sequence[int], count: int, read: Callable[[int], bytes]
) -> List[Dict[str, Any]]:
    """The last ``count`` (0: none) of the lines at ``starts``, decoded;
    ``read(start)`` returns the bytes from ``start`` to the last line's end."""
    if count < 0:
        raise ValueError(f"series window must be non-negative, got {count}")
    if not count or not starts:
        return []
    start = starts[max(len(starts) - count, 0)]
    return [json.loads(line) for line in read(start).splitlines()]


class SeriesStore:
    """Append metric samples durably; keep the recent window's offsets."""

    def __init__(self, path: str, window: int = 512, fsync: bool = True):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.path = path
        self.window = window
        self._log = AppendLog(path, fsync=fsync)
        #: Where each of the window's lines starts, oldest first.
        self._starts: Deque[int] = deque(maxlen=window)
        self.total_samples = 0
        for start, _ in read_lines(path):  # count all, keep the window's worth
            self._starts.append(start)
            self.total_samples += 1

    def append(self, sample: Dict[str, Any]) -> None:
        self._starts.append(self._log.append(json_line(sample)))
        self._log.sync()
        self.total_samples += 1

    def offset(self) -> int:
        """Current durable byte length of the series file."""
        return self._log.end

    def tail(self, count: int = 60) -> List[Dict[str, Any]]:
        """The most recent ``count`` samples, oldest first."""
        return _read_window(self._starts, count, self._log.read)

    def column(self, key: str, count: int = 60) -> List[float]:
        """One numeric column of the recent window (missing -> 0.0)."""
        return [float(sample.get(key, 0.0) or 0.0) for sample in self.tail(count)]

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SeriesStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_series(path: str, window: Optional[int] = None) -> List[Dict[str, Any]]:
    """The last ``window`` samples on disk (all of them when None), read
    without opening the log (dashboard use)."""
    starts: List[int] = []
    end = 0
    for start, line in read_lines(path):
        starts.append(start)
        end = start + len(line)

    def read(start: int) -> bytes:
        with open(path, "rb") as handle:
            handle.seek(start)
            return handle.read(end - start)

    return _read_window(starts, len(starts) if window is None else window, read)
