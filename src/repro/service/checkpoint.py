"""Durable state for the streaming service.

The daemon's recovery contract is *byte identity*: a process SIGKILL'd at
any instant must resume and produce exactly the bytes an uninterrupted
run would have. One rule divides the state between two write disciplines
(both from :mod:`repro.core.durability`): **logs hold what happened, the
checkpoint holds only what no log determines.**

* ``batches.jsonl`` — an append-only journal of every batch the daemon
  ingested (one fsync'd line per batch, items inlined). With the rule
  repository's ``repo/changelog.jsonl`` it determines the incremental
  executor's match store, which is therefore never written down: resume
  streams the journal back through the engine and rebuilds it.
* ``provenance.jsonl`` — the provenance spool, one line per classified
  item. With the journal's batch sizes it determines the per-rule health
  windows (fire counts, co-fire overlap, baseline, drift alerts), which
  are therefore never written down either: resume folds the spool
  through a fresh tracker.
* ``checkpoint.json`` — atomically replaced after every batch (a crash
  leaves the previous checkpoint or the new one, never a torn mix): RNG
  streams, clock, incidents, metrics, the logs' byte offsets, the
  digest-chain head and the one chain link (``prev_digest_chain``,
  ``last_batch_id``) that lets resume verify the view it re-derived.
  O(metric series + incidents); flat in items served and in rule pairs
  seen. Written compact: each RNG as ``[version, base64 of the 625
  packed state words, gauss_next]``, the metrics as column families
  (:meth:`~repro.observability.metrics.MetricsRegistry.dump`), no space
  after a separator. Resume refuses a missing field or a malformed RNG
  or metrics row with a ``ValueError`` naming the field.

The checkpoint records the journal's **byte offset** at snapshot time
(likewise for the provenance spool and the metric series). Anything past
those offsets was written by a run that died before checkpointing it;
:meth:`CheckpointStore.truncate` rolls the files back so the replayed
batches regenerate those bytes identically instead of duplicating them.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional

from repro.core.durability import (
    JsonlAppender,
    atomic_write_json,
    iter_jsonl,
    truncate_file,
)

#: Bumped when the checkpoint layout changes incompatibly; any other
#: version is refused, and no converter exists. Version 1 embedded the
#: executor's match store; version 2 re-derives it; version 3 re-derives
#: the health windows too (no ``tracker`` key) and chains the digest over
#: the fired map's fingerprint instead of its whole JSON; version 4 holds
#: the same state encoded compactly (packed RNG states, metric families
#: as columns, the rule-label admission set derived from its series).
CHECKPOINT_VERSION = 4

CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_NAME = "batches.jsonl"
SPOOL_NAME = "provenance.jsonl"
SERIES_NAME = "series.jsonl"
REPO_DIR = "repo"


class CheckpointStore:
    """The service's on-disk root: checkpoint, journal, spool, series.

    Layout under ``root``::

        checkpoint.json    what no log determines (atomic, one per batch)
        batches.jsonl      append-only batch journal (items inlined)
        provenance.jsonl   provenance spool (spool-all mode)
        series.jsonl       metric time-series samples
        repo/              file-backed RuleRepository (changelog.jsonl)
    """

    def __init__(self, root: str, fsync: bool = True):
        self.root = root
        self.fsync = fsync
        os.makedirs(root, exist_ok=True)
        self.checkpoint_path = os.path.join(root, CHECKPOINT_NAME)
        self.journal_path = os.path.join(root, JOURNAL_NAME)
        self.spool_path = os.path.join(root, SPOOL_NAME)
        self.series_path = os.path.join(root, SERIES_NAME)
        self.repo_root = os.path.join(root, REPO_DIR)
        self._journal: Optional[JsonlAppender] = None

    # -- checkpoint document -----------------------------------------------------

    def save(self, state: Dict[str, Any]) -> None:
        """Atomically replace the checkpoint document (compact JSON, so
        the C encoder runs; readers only ever ``json.load`` it). Synced
        to disk unless the store was opened with ``fsync=False``."""
        atomic_write_json(
            self.checkpoint_path, state, indent=None, fsync=self.fsync
        )

    def load(self) -> Optional[Dict[str, Any]]:
        """The last durable checkpoint, or ``None`` on a fresh root."""
        if not os.path.exists(self.checkpoint_path):
            return None
        with open(self.checkpoint_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return state

    # -- batch journal -----------------------------------------------------------

    def append_batch(self, record: Dict[str, Any]) -> None:
        """Durably journal one ingested batch."""
        if self._journal is None:
            self._journal = JsonlAppender(self.journal_path, fsync=self.fsync)
        self._journal.append(record)

    def journal_offset(self) -> int:
        """Current durable byte length of the batch journal."""
        if self._journal is not None:
            return self._journal.offset()
        if os.path.exists(self.journal_path):
            return os.path.getsize(self.journal_path)
        return 0

    def read_journal(self) -> Iterator[Dict[str, Any]]:
        """Every complete journal record, decoded one line at a time
        (torn trailing bytes ignored)."""
        if not os.path.exists(self.journal_path):
            return iter(())
        return iter_jsonl(self.journal_path)

    # -- resume rollback ---------------------------------------------------------

    def truncate(self, offsets: Dict[str, int]) -> Dict[str, int]:
        """Roll the append-only files back to the checkpointed offsets.

        Must run *before* any appender is opened on them. Returns the
        bytes dropped per file (the footprint of the crashed run's
        unacknowledged tail), for operator visibility.
        """
        if self._journal is not None:
            raise RuntimeError("truncate() must run before the journal is opened")
        dropped = {}
        for name, path in (
            ("journal", self.journal_path),
            ("spool", self.spool_path),
            ("series", self.series_path),
        ):
            dropped[name] = truncate_file(path, int(offsets.get(name, 0)))
        return dropped

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
