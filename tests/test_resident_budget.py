"""What a served item leaves in RAM, held to a budget.

The daemon never forgets an item (ROADMAP 3d), so the bytes each one
leaves behind are the slope of the process's memory over a stream that
never ends. This module measures that slope with ``tracemalloc`` — the
live world's over 40 batches, and a resumed world's over everything its
journal holds — and pins the decisions that set it: a corpus row holds
no record (the journal does); a write-ahead provenance log and the
series store keep their windows in their files and hold only the offset
of each retained line (no records, lines or by-item index); a held
``PreparedItem`` keeps no probe set, and its stop-word-free tokens are
its full token tuple when the two are equal; the corpus index's postings
are arrays, not sets; and the match store's rows are shared, one object
per distinct row. The bounded text LRUs are emptied before each reading:
their fill is not slope.

The budgets are the largest reading over ``PYTHONHASHSEED`` 0, 1 and
random at the commit that set them (633 / 759 B per item), plus 5%.
While corpus rows held their records and the series its lines they read
1,138 / 1,308 (1,410 / 1,309 with the live world's cache fill counted).
While the ring held the encoded lines and a by-item index they read
1,955 / 1,852; before tokens were interned, postings were arrays and
rows were shared 2,879 / 2,754 (2,816 resumed as measured here, which
counts the then un-interned ids twice); with a second id-keyed cache
beside the index 3,045 / 2,785; before the ring held lines 4,977 /
5,417. A 40-batch run fills under half of the 10,000-slot ring, so these
are this run's figures, not the soak's (DESIGN §13 has those).
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import deque
from contextlib import contextmanager

import pytest

from repro.catalog.types import ProductItem
from repro.service import ServiceConfig, StreamService
from repro.utils.text import clear_caches

pytestmark = pytest.mark.gates

WARMUP_BATCHES = 3
MEASURED_BATCHES = 40
LIVE_BUDGET_B_PER_ITEM = 665
RESUMED_BUDGET_B_PER_ITEM = 797


@contextmanager
def _traced_growth():
    """Yields a list that, after the block, holds the bytes allocated
    inside it and still reachable once the text LRUs are emptied and the
    cycle collector has run: the bounded caches' fill is not slope."""
    grown = []
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        yield grown
        clear_caches()
        gc.collect()
        grown.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()


def _retention_offenders(service: StreamService) -> dict:
    """Objects of the seven shapes this budget exists to keep out."""
    log = service.provenance
    index = service.incremental._data_index
    rows = list(service.incremental.store._by_item.values())
    distinct_rows = len({frozenset(row) for row in rows})
    return {
        "corpus rows referencing a record": [
            prepared.item_id
            for _, prepared in index.live_rows()
            for slot in type(prepared).__slots__
            if isinstance(getattr(prepared, slot), ProductItem)
        ],
        "a series store holding lines": [
            name
            for name, value in vars(service.series).items()
            if isinstance(value, (deque, list))
            and any(type(entry) is not int for entry in value)
        ],
        "prepared items holding a set": [
            prepared.item_id
            for _, prepared in index.live_rows()
            for slot in type(prepared).__slots__
            if isinstance(getattr(prepared, slot), (set, frozenset))
        ],
        "prepared items holding an equal copy of their tokens": [
            prepared.item_id
            for _, prepared in index.live_rows()
            if prepared._tokens == prepared._tokens_with_stopwords
            and prepared._tokens is not prepared._tokens_with_stopwords
        ],
        "posting lists that are sets": [
            token
            for token, posted in index._postings.items()
            if isinstance(posted, (set, frozenset))
        ],
        "store rows that are not shared": (
            [f"{len(rows)} row objects for {distinct_rows} distinct rows"]
            if len({id(row) for row in rows}) > distinct_rows
            else []
        ),
        "a write-ahead log holding records, lines or by-item entries": [
            name
            for name, value in vars(log).items()
            if isinstance(value, (deque, dict, list)) and name != "_starts"
        ] + [
            type(start).__name__
            for start in log._starts
            if type(start) is not int
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
    # interned vocabulary), so the traced one reads the world alone. Its
    # item ids are kept, so the traced world's interned ids resolve to
    # them and the process-wide interned-string table, whose resizes step
    # with everything else the process ever interned, does not grow inside
    # the trace; the bytes of those shared id strings are added back.
    warm = StreamService(root, fsync=False).start()
    warm_ids = list(warm.incremental._data_index._row_by_id)
    warm.close()
    del warm
    with _traced_growth() as grown:
        resumed = StreamService(root, fsync=False).start()
    assert resumed.totals["items"] == items
    shared_id_bytes = sum(map(sys.getsizeof, warm_ids))
    out["resumed_b_per_item"] = (grown[0] + shared_id_bytes) / items
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
