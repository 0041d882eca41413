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
* interpreter calls, all of them, against a ceiling.
"""

import sys

import pytest

from repro.execution.compiler import CompiledRuleSet
from repro.service import ServiceConfig, StreamService

pytestmark = pytest.mark.gates

WARMUP, COUNTED = 3, 6
#: Calls per served item: (without the learner, with it).
CALL_BUDGET = {"training=0": 415.0, "default": 700.0}


def served_work(root, config):
    """(engine evaluations per item, interpreter calls per item) over the
    counted batches."""
    evaluate = CompiledRuleSet.match_item.__code__
    calls = evaluations = 0

    def count(frame, event, arg):
        nonlocal calls, evaluations
        if event == "call":
            calls += 1
            if frame.f_code is evaluate:
                evaluations += 1
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
    return evaluations / items, calls / items


@pytest.mark.parametrize(
    "name, config",
    [("training=0", ServiceConfig(seed=7, training=0)), ("default", ServiceConfig(seed=7))],
)
def test_one_engine_evaluation_per_served_item(tmp_path, name, config):
    evaluations, calls = served_work(str(tmp_path / "root"), config)
    assert evaluations == 1.0
    assert calls <= CALL_BUDGET[name], f"{calls:.1f} calls per served item"
