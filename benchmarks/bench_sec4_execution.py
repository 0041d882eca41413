"""E8 — Section 4 "Rule Execution and Optimization": indexing and sharding.

Paper challenges reproduced as measured series:

* executing tens of thousands of rules per item is infeasible by scan; a
  rule index cuts per-item rule evaluations by orders of magnitude with
  identical output;
* sharding items across a (simulated) cluster divides the critical path;
* indexing the *data* makes repeated rule-development runs fast.
"""

import pytest

from _report import emit
from repro.catalog import CatalogGenerator, build_seed_taxonomy
from repro.core import WhitelistRule
from repro.execution import (
    CompiledRuleSet,
    DataIndex,
    NaiveExecutor,
    PartitionedExecutor,
)
from repro.execution.compiler import corpus_token_frequency
from repro.rulegen import RuleGenerator

SEED = 540
N_ITEMS = 400


@pytest.fixture(scope="module")
def workload():
    taxonomy = build_seed_taxonomy()
    generator = CatalogGenerator(taxonomy, seed=SEED)
    training = generator.generate_labeled(9000)
    rules = RuleGenerator(min_support=0.01, q=500).generate(training).rules
    items = generator.generate_items(N_ITEMS)
    frequency = corpus_token_frequency(t.title for t in training)
    return rules, items, frequency


def test_sec4_indexed_vs_naive(benchmark, workload):
    rules, items, frequency = workload
    naive_fired, naive_stats = NaiveExecutor(rules).run(items)
    indexed = CompiledRuleSet(rules, token_frequency=frequency)
    indexed_fired, indexed_stats = benchmark.pedantic(
        lambda: indexed.execute(items), rounds=1, iterations=1
    )
    speedup = naive_stats.rule_evaluations / max(1, indexed_stats.rule_evaluations)
    sharded = PartitionedExecutor(rules, n_workers=8, token_frequency=frequency).run(items)
    critical_path = max(sharded.shard_evaluations)

    lines = [
        f"rules executed                : {len(rules)}",
        f"items                         : {len(items)}",
        f"naive rule evals per item     : {naive_stats.evaluations_per_item:.0f}",
        f"indexed rule evals per item   : {indexed_stats.evaluations_per_item:.1f}",
        f"index work reduction          : {speedup:.0f}x",
        f"results identical             : {naive_fired.keys() == indexed_fired.keys()}",
        f"8-shard critical path (evals) : {critical_path} "
        f"of {sharded.stats.rule_evaluations} total",
    ]
    emit("E8_sec4_execution", lines)

    assert {k: sorted(v) for k, v in naive_fired.items()} == indexed_fired
    assert speedup >= 20
    assert critical_path <= sharded.stats.rule_evaluations / 4


def test_sec4_data_index_for_rule_dev(benchmark, workload):
    """An analyst iterating on a rule re-runs it against indexed data."""
    rules, items, _ = workload
    index = DataIndex(items)
    probe = WhitelistRule("(motor|engine) oils?", "motor oil")

    rows = benchmark(lambda: index.matches(probe, items))
    full_scan = [item for item in items if probe.matches(item)]
    assert {items[row].item_id for row in rows} == {i.item_id for i in full_scan}
    assert index.candidate_fraction(probe) < 0.25
