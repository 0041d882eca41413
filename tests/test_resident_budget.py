"""What a served item leaves in RAM, held to a budget.

The daemon never forgets an item (ROADMAP 3d), so the bytes each one
leaves behind are the slope of the process's memory over a stream that
never ends. This module measures that slope with ``tracemalloc`` — the
live world's over 40 batches, and a resumed world's over everything its
journal holds — and pins the three decisions that set it: the provenance
ring of a write-ahead log holds encoded lines, its per-item index holds
plain lists, and a held ``PreparedItem`` keeps no probe set.

The budgets are the largest reading over ``PYTHONHASHSEED`` 0, 1 and
random at the commit that set them (3,010 / 2,754 B per item, equal on
all three: the corpus holds an item once), plus 5%; with a second
id-keyed cache beside the index they read 3,045 / 2,785, and before the
ring held lines 4,977 / 5,417. A 40-batch run fills under half of the
10,000-slot ring, so these are this run's figures, not the soak's
(DESIGN §13 has those).
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import deque
from contextlib import contextmanager

import pytest

from repro.service import ServiceConfig, StreamService

WARMUP_BATCHES = 3
MEASURED_BATCHES = 40
LIVE_BUDGET_B_PER_ITEM = 3_160
RESUMED_BUDGET_B_PER_ITEM = 2_891


@contextmanager
def _traced_growth():
    """Yields a list that, after the block, holds the bytes allocated
    inside it and still reachable once the cycle collector has run."""
    grown = []
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        yield grown
        gc.collect()
        grown.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()


def _retention_offenders(service: StreamService) -> dict:
    """Objects of the three shapes this budget exists to keep out."""
    log = service.provenance
    return {
        "prepared items holding a set": [
            prepared.item_id
            for _, prepared in service.incremental._data_index.live_rows()
            for slot in type(prepared).__slots__
            if isinstance(getattr(prepared, slot), (set, frozenset))
        ],
        "deques in the by-item index": [
            item_id
            for item_id, bucket in log._by_item.items()
            if isinstance(bucket, deque)
        ],
        "ring entries that are not lines": [
            type(entry).__name__
            for entry in log._records
            if not isinstance(entry, str)
        ],
    }


@pytest.fixture(scope="module")
def readings(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("resident") / "run")
    out = {}
    service = StreamService(
        root, ServiceConfig(seed=7, training=0), fsync=False
    ).start()
    service.run(WARMUP_BATCHES)
    warm_items = service.totals["items"]
    with _traced_growth() as grown:
        service.run(MEASURED_BATCHES)
    items = service.totals["items"]
    out["live_b_per_item"] = grown[0] / (items - warm_items)
    out["live_offenders"] = _retention_offenders(service)
    service.close()
    del service

    # One untraced resume warms what is process-global (the text LRUs, the
    # interned vocabulary), so the traced one reads the world alone.
    StreamService(root, fsync=False).start().close()
    with _traced_growth() as grown:
        resumed = StreamService(root, fsync=False).start()
    assert resumed.totals["items"] == items
    out["resumed_b_per_item"] = grown[0] / items
    out["resumed_offenders"] = _retention_offenders(resumed)
    resumed.close()
    return out


def test_live_world_bytes_per_item_within_budget(readings):
    assert readings["live_b_per_item"] <= LIVE_BUDGET_B_PER_ITEM


def test_resumed_world_bytes_per_item_within_budget(readings):
    assert readings["resumed_b_per_item"] <= RESUMED_BUDGET_B_PER_ITEM


@pytest.mark.parametrize("world", ["live", "resumed"])
def test_nothing_retains_probe_sets_deques_or_decoded_records(readings, world):
    offenders = readings[f"{world}_offenders"]
    assert {what: found[:3] for what, found in offenders.items() if found} == {}
