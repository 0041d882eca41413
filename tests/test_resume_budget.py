"""A host-independent work budget for resuming a served root.

``sys.setprofile`` counts the Python and C calls
``StreamService(root).start()`` makes to resume a seed-7 ``training=0``
root of 15 batches and one of 30. Resume replays the journal, so its work
is linear in the journalled items; the two counts give the line's slope
(calls per journalled item) and intercept (what a resume costs before its
first item: building the world, reading the checkpoint), and each is held
to ``RESUME_CALLS``. Both readings are equal under every hash seed tried.
"""

import sys

import pytest

from repro.service import ServiceConfig, StreamService
from repro.testing.budgets import RESUME_CALLS

pytestmark = pytest.mark.gates

SHORT, LONG = 15, 30


def resume_work(root, batches):
    """(journalled items, interpreter calls made by ``start()``) for a
    root served for ``batches`` batches, then closed."""
    items = 0
    with StreamService(root, ServiceConfig(seed=7, training=0), fsync=False) as service:
        for _ in range(batches):
            batch, _result = service.process_batch()
            items += len(batch.items)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    service = StreamService(root, fsync=False)
    sys.setprofile(count)
    try:
        service.start()
    finally:
        sys.setprofile(None)
    service.close()
    return items, calls


def test_resume_calls_per_journalled_item(tmp_path):
    short_items, short_calls = resume_work(str(tmp_path / "short"), SHORT)
    long_items, long_calls = resume_work(str(tmp_path / "long"), LONG)
    slope = (long_calls - short_calls) / (long_items - short_items)
    intercept = short_calls - slope * short_items
    assert slope <= RESUME_CALLS["per_item"], f"{slope:.1f} calls per journalled item"
    assert intercept <= RESUME_CALLS["intercept"], f"{intercept:.0f} calls before the first item"
