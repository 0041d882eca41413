"""Ring-buffered metric time series, persisted as JSONL.

After every batch the daemon samples the
:class:`~repro.observability.metrics.MetricsRegistry` *delta* since the
previous sample (cheap, copy-free — satellite API on the registry) plus
a handful of gauges (ordinal, clock day, open incidents, wall latency)
and appends the sample here. The in-memory ring bounds what the HTTP
console and dashboard read; the JSONL file is the durable history.

Samples are **operational telemetry, not replay state**: wall-clock
latencies differ run to run, so the byte-identity contract explicitly
excludes this file's *values* (its length is still rolled back on resume
so the sample-per-batch invariant holds).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.core.durability import JsonlAppender, scan_jsonl, tail_jsonl_lines


class SeriesStore:
    """Append metric samples durably; keep the recent window in memory."""

    def __init__(self, path: str, window: int = 512, fsync: bool = True):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.path = path
        self.window = window
        self.samples: Deque[Dict[str, Any]] = deque(maxlen=window)
        self.total_samples = 0
        if os.path.exists(path):
            # Count every complete line, decode only the window's worth
            # (a torn last line is a crashed append: ignored).
            tail, self.total_samples = tail_jsonl_lines(path, window)
            self.samples.extend(json.loads(line) for line in tail)
        self._appender = JsonlAppender(path, fsync=fsync)

    def append(self, sample: Dict[str, Any]) -> None:
        self.samples.append(sample)
        self.total_samples += 1
        self._appender.append(sample)

    def offset(self) -> int:
        """Current durable byte length of the series file."""
        return self._appender.offset()

    def tail(self, count: int = 60) -> List[Dict[str, Any]]:
        """The most recent ``count`` samples, oldest first."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        window = list(self.samples)
        return window[-count:] if count else []

    def column(self, key: str, count: int = 60) -> List[float]:
        """One numeric column of the recent window (missing -> 0.0)."""
        return [float(sample.get(key, 0.0) or 0.0) for sample in self.tail(count)]

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "SeriesStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_series(path: str, window: Optional[int] = None) -> List[Dict[str, Any]]:
    """Read samples from disk without opening an appender (dashboard use)."""
    if not os.path.exists(path):
        return []
    records, _torn = scan_jsonl(path)
    return records[-window:] if window else records
