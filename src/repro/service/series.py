"""Ring-buffered metric time series, persisted as JSONL.

After every batch the daemon samples the
:class:`~repro.observability.metrics.MetricsRegistry` *delta* since the
previous sample (cheap, copy-free — satellite API on the registry) plus
a handful of gauges (ordinal, clock day, open incidents, wall latency)
and appends the sample here. The in-memory ring bounds what the HTTP
console and dashboard read; the file, an
:class:`~repro.core.durability.AppendLog` synced per sample, is the
durable history. The ring holds each sample as the line written for it
(~8 KB: every delta lists every counter), not as the decoded dict
(~23 KB), and decodes on read — only the console's ``/series`` reads it.

Samples are **operational telemetry, not replay state**: wall-clock
latencies differ run to run, so the byte-identity contract explicitly
excludes this file's *values* (its length is still rolled back on resume
so the sample-per-batch invariant holds).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.core.durability import AppendLog, json_line, read_lines


class SeriesStore:
    """Append metric samples durably; keep the recent window in memory."""

    def __init__(self, path: str, window: int = 512, fsync: bool = True):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.path = path
        self.window = window
        self._log = AppendLog(path, fsync=fsync)
        #: The window's samples as their JSONL lines, oldest first.
        self.lines: Deque[bytes] = deque(maxlen=window)
        self.total_samples = 0
        for _, line in read_lines(path):  # count all, keep the window's worth
            self.lines.append(line)
            self.total_samples += 1

    def append(self, sample: Dict[str, Any]) -> None:
        line = json_line(sample)
        self._log.append(line)
        self._log.sync()
        self.lines.append(line)
        self.total_samples += 1

    def offset(self) -> int:
        """Current durable byte length of the series file."""
        return self._log.end

    def tail(self, count: int = 60) -> List[Dict[str, Any]]:
        """The most recent ``count`` samples, oldest first, decoded."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        window = list(self.lines)[-count:] if count else []
        return [json.loads(line) for line in window]

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
    """Read samples from disk without opening the log (dashboard use)."""
    records = [json.loads(line) for _, line in read_lines(path)]
    return records[-window:] if window else records
