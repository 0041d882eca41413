"""Durable state for the streaming service.

The daemon's recovery contract is *byte identity*: a process SIGKILL'd at
any instant must resume and produce exactly the bytes an uninterrupted
run would have. One rule divides the state: **logs hold what happened,
the checkpoint holds only what no log determines.**

* The logs, each an :class:`~repro.core.durability.AppendLog`:
  ``batches.jsonl`` (every ingested batch, items inlined) and the rule
  repository's ``repo/changelog.jsonl`` determine the incremental
  executor's match store, and ``provenance.jsonl`` (one line per
  classified item) with the journal's batch sizes determines the health
  windows — so neither is ever written down: resume rebuilds both.
  ``series.jsonl`` holds metric samples.
* ``checkpoint.json``, atomically replaced after every batch: where the
  batch stream's and the item generator's RNGs stand, incidents, metrics,
  every log's byte offset, the digest-chain head and the one chain link
  (``prev_digest_chain``, ``last_batch_id``) that lets resume verify the
  view it re-derived.
  O(metric series + incidents), written compact. An RNG is its position,
  ``{"drawn": 32-bit words drawn since the post-startup state, "check":
  16 hex digits of blake2b over the packed state}``: the seed and the
  count determine the state, and resume skips ``drawn`` words from the
  replayed startup and refuses a state whose digest is not ``check``.
  Metrics are column families. A missing or malformed field is a
  ``ValueError`` naming it.

Anything past a log's offset was written by a run that died before
checkpointing it (or by a ``repro repo`` command on a stopped root):
:meth:`CheckpointStore.truncate` rolls all four logs back before anything
opens one, so the replayed batches regenerate those bytes instead of
duplicating them. A log shorter than its offset lost acknowledged bytes
and is refused ("ahead of its logs").
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.core.durability import (
    AppendLog,
    atomic_write_json,
    json_line,
    truncate_file,
)
from repro.repository import CHANGELOG_NAME

#: Bumped when the checkpoint layout changes incompatibly; any other
#: version is refused, and no converter exists. Version 1 embedded the
#: executor's match store; version 2 re-derives it; version 3 re-derives
#: the health windows too and chains the digest over the fired map's
#: fingerprint; version 4 encodes the state compactly; version 5 rolls the
#: change log back by ``offsets.changelog`` (version 4 pinned it by seq);
#: version 6 drops the analyst RNG, rule-id counter, clock, batch counters
#: and run totals, which the replayed startup, the journal, the ordinal and
#: the metric counters determine; version 7 stores each RNG as the words it
#: has drawn (not its 2,500-byte state) and drops the generator's id
#: counter, which the journalled item count determines.
CHECKPOINT_VERSION = 7

CHECKPOINT_NAME = "checkpoint.json"
JOURNAL_NAME = "batches.jsonl"
SPOOL_NAME = "provenance.jsonl"
SERIES_NAME = "series.jsonl"
REPO_DIR = "repo"


class CheckpointStore:
    """The service's on-disk root: checkpoint and the four logs.

    Layout under ``root``::

        checkpoint.json      what no log determines (atomic, one per batch)
        batches.jsonl        append-only batch journal (items inlined)
        provenance.jsonl     provenance spool (write-ahead)
        series.jsonl         metric time-series samples
        repo/changelog.jsonl the RuleRepository's change log

    The store owns the journal and only rolls the other logs back:
    :meth:`truncate` first, then :meth:`open_journal`.
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
        #: Checkpoint offset key -> the log it measures.
        self.log_paths = {
            "journal": self.journal_path,
            "spool": self.spool_path,
            "series": self.series_path,
            "changelog": os.path.join(self.repo_root, CHANGELOG_NAME),
        }
        self.journal: Optional[AppendLog] = None

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

    def open_journal(self) -> None:
        """Open the batch journal for appending (after :meth:`truncate`)."""
        self.journal = AppendLog(self.journal_path, fsync=self.fsync)

    def append_batch(self, record: Dict[str, Any]) -> None:
        """Durably journal one ingested batch."""
        self.journal.append(json_line(record))
        self.journal.sync()

    def journal_offset(self) -> int:
        """Current durable byte length of the batch journal."""
        return self.journal.end

    # -- resume rollback ---------------------------------------------------------

    def truncate(self, offsets: Dict[str, Any]) -> Dict[str, int]:
        """Roll all four logs back to the checkpointed ``offsets``, before
        any is opened; returns the bytes dropped per log. Every offset is
        checked before any log is cut: a missing or malformed one is a
        ``ValueError`` naming ``offsets.<log>``, never a rollback to 0."""
        if self.journal is not None:
            raise RuntimeError("truncate() must run before the journal is opened")
        for name in self.log_paths:
            offset = offsets.get(name)
            if type(offset) is not int or offset < 0:
                raise ValueError(
                    f"checkpoint field 'offsets.{name}' is "
                    f"{'missing' if offset is None else repr(offset)}; "
                    f"expected a byte offset"
                )
        return {
            name: truncate_file(path, offsets[name])
            for name, path in self.log_paths.items()
        }

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
