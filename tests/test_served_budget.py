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

A scenario run is held the same way, per item, on each executor kind:
one engine evaluation (each batch is admitted before it is classified),
and no batch pass over the compiled set except the partitioned fault
model's own.
"""

import pathlib
import sys
from collections import Counter

import pytest

from repro.execution.compiler import CompiledRuleSet
from repro.execution.incremental import IncrementalExecutor
from repro.scenario import load_scenario, run_scenario
from repro.scenario.library import load_library_scenario
from repro.service import ServiceConfig, StreamService
from repro.testing.budgets import CALL_BUDGET, SCENARIO_WORK

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


GOLDEN_SCENARIOS = pathlib.Path(__file__).parent / "golden" / "scenarios"


def scenario_work(monkeypatch, spec):
    """(match_item calls per item, execute items per item, CompiledRuleSets
    built) over one run of ``spec``."""
    counts = Counter()

    def count(name, size):
        method = getattr(CompiledRuleSet, name)

        def counted(self, *args, **kwargs):
            counts[name] += size(*args)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(CompiledRuleSet, name, counted)

    count("__init__", lambda *args: 1)
    count("match_item", lambda item: 1)
    count("execute", lambda items, *rest: len(items))
    items = run_scenario(spec).totals["items"]
    assert items > 50
    return counts["match_item"] / items, counts["execute"] / items, counts["__init__"]


@pytest.mark.parametrize("name", ["golden-quiet", "golden-eventful", "hot-key-skew"])
def test_one_engine_evaluation_per_scenario_item(monkeypatch, name):
    path = GOLDEN_SCENARIOS / f"{name}.yaml"
    spec = load_scenario(str(path)) if path.exists() else load_library_scenario(name)
    evaluations, executed, built = scenario_work(monkeypatch, spec)
    expected_evaluations, expected_executed, expected_built = SCENARIO_WORK[spec.executor.kind]
    assert (evaluations, executed) == (expected_evaluations, expected_executed)
    if expected_built is not None:
        assert built == expected_built
