"""A host-independent work budget for the served path.

``sys.setprofile`` counts the Python and C calls a ``StreamService`` makes
to serve six batches (501 items at seed 7) after three warm-up batches,
once without the learner and once with the default config. Two figures
per served item are held:

* engine evaluations — calls of ``CompiledRuleSet.match_item``: exactly
  one, the admission. The pipeline holds one engine over its four rule
  sets (gate bypass, rule-based, attr-value, filter) and classifies from
  the row admission wrote; a stage that evaluated on its own again would
  read 2 or more (one private artifact per rule set read 4);
* admission lookups — calls of ``IncrementalExecutor.admitted``: exactly
  one, the classification's read of the item's row (it read 2 while the
  row read asked again);
* interpreter calls, all of them, against a ceiling.
"""

import sys

import pytest

from repro.execution.compiler import CompiledRuleSet
from repro.execution.incremental import IncrementalExecutor
from repro.service import ServiceConfig, StreamService
from repro.testing.budgets import CALL_BUDGET

pytestmark = pytest.mark.gates

WARMUP, COUNTED = 3, 6


def served_work(root, config):
    """(engine evaluations, admission lookups, interpreter calls), each
    per item over the counted batches."""
    evaluate = CompiledRuleSet.match_item.__code__
    admitted = IncrementalExecutor.admitted.__code__
    calls = evaluations = lookups = 0

    def count(frame, event, arg):
        nonlocal calls, evaluations, lookups
        if event == "call":
            calls += 1
            if frame.f_code is evaluate:
                evaluations += 1
            elif frame.f_code is admitted:
                lookups += 1
        elif event == "c_call":
            calls += 1

    with StreamService(root, config, fsync=False) as service:
        service.run(WARMUP)
        items = 0
        for _ in range(COUNTED):
            sys.setprofile(count)
            try:
                batch, _result = service.process_batch()
            finally:
                sys.setprofile(None)
            items += len(batch.items)
    assert items > 400
    return evaluations / items, lookups / items, calls / items


@pytest.mark.parametrize(
    "name, config",
    [("training=0", ServiceConfig(seed=7, training=0)), ("default", ServiceConfig(seed=7))],
)
def test_one_engine_evaluation_per_served_item(tmp_path, name, config):
    evaluations, lookups, calls = served_work(str(tmp_path / "root"), config)
    assert evaluations == lookups == 1.0
    assert calls <= CALL_BUDGET[name], f"{calls:.1f} calls per served item"
