"""The durable service's fsync budget.

An fsync is the one cost of durability that does not shrink on a faster
host, and its count does not drift run to run, so it is held to a table:
every ``os.fsync`` (directory syncs included) that
``StreamService(ServiceConfig(seed=7, training=0), fsync=True)`` issues.

* ``start`` — a fresh root: the change log's directory when the log is
  created, one synced line per startup rule (135), and the ordinal-0
  checkpoint (the empty spool, the temp file, then the root directory,
  which also makes the names of the root's logs durable).
* ``first_batch`` / ``batch`` — the journal line, the provenance spool
  (appended per record, synced once), the series line, and the
  checkpoint's temp file and directory.
* ``per_change`` — one synced change-log line per rule edit.

The measured counts must equal the table, so a change that removes a sync
edits it. The ceilings do not move: the steady batch may not rise, and
``start`` plus the first batch may not exceed 145.
"""

import os

import pytest

from repro.core import WhitelistRule
from repro.observability.provenance import ProvenanceLog
from repro.service import ServiceConfig, StreamService
from repro.testing.budgets import (
    FSYNC_BATCH_CEILING as BATCH_CEILING,
    FSYNC_START_AND_FIRST_BATCH_CEILING as START_AND_FIRST_BATCH_CEILING,
    FSYNCS,
)

pytestmark = pytest.mark.gates


def count_fsyncs(root, monkeypatch):
    """The budget's rows as measured on a fresh root; ``batch`` lists the
    second to fourth batches."""
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))

    def take():
        taken = len(calls)
        calls.clear()
        return taken

    counts = {}
    with StreamService(
        root, ServiceConfig(seed=7, training=0), fsync=True
    ) as service:
        counts["start"] = take()
        service.process_batch()
        counts["first_batch"] = take()
        changes = len(service.repository.log)
        counts["batch"] = []
        for _ in range(3):
            service.process_batch()
            counts["batch"].append(take())
        assert len(service.repository.log) == changes  # no edit in a batch
        service.chimera.add_whitelist_rules(
            [WhitelistRule("zzqxv", "rugs"), WhitelistRule("zzqxw", "rugs")]
        )
        counts["per_change"] = take() / (len(service.repository.log) - changes)
    monkeypatch.undo()
    return counts


def test_the_table_holds_and_stays_under_its_ceilings(tmp_path, monkeypatch):
    assert FSYNCS["batch"] <= BATCH_CEILING
    assert FSYNCS["start"] + FSYNCS["first_batch"] <= START_AND_FIRST_BATCH_CEILING
    counts = count_fsyncs(str(tmp_path / "root"), monkeypatch)
    assert counts == dict(FSYNCS, batch=[FSYNCS["batch"]] * 3)


def test_budget_goes_red_for_a_spool_synced_per_record(tmp_path, monkeypatch):
    """The gate has teeth: a spool synced at every record, not once per
    batch, is far past the steady batch's ceiling."""
    record = ProvenanceLog.record

    def record_and_sync(self, entry):
        recorded = record(self, entry)
        self.spool_offset()
        return recorded

    monkeypatch.setattr(ProvenanceLog, "record", record_and_sync)
    counts = count_fsyncs(str(tmp_path / "root"), monkeypatch)
    assert min(counts["batch"]) > 4 * BATCH_CEILING
