"""E3 — Section 5.2 evaluation: rule generation from labeled data.

Paper rows: "Our method generated 874K rules after the sequential pattern
mining step (using minimum support of 0.001), then 63K high-confidence rules
and 37K low-confidence rules after the rule selection step (using α = 0.7).
... we used a combination of crowdsourcing and analysts to estimate the
precision of the entire set of high-confidence rules and low-confidence
rules to be 95% and 92%, respectively."

Scaled workload; shapes asserted: mined >> selected, both tiers'
crowd-estimated precision >= 92%, high tier >= low tier (within noise).

Timing uses the shared ``_report`` helpers (median of repeated runs, cold
tokenization caches) so rulegen numbers are comparable across PRs and with
``bench_rulegen_parallel.py``.
"""

import time

import pytest

from _report import emit, median
from repro.catalog import CatalogGenerator, build_seed_taxonomy
from repro.crowd import CrowdBudget, VerificationTask, WorkerPool
from repro.evaluation import ruleset_quality
from repro.rulegen import RuleGenerator
from repro.utils.text import clear_caches

SEED = 552
TRAINING_SIZE = 9000
TEST_SIZE = 4000
REPEATS = 3


@pytest.fixture(scope="module")
def workload():
    taxonomy = build_seed_taxonomy()
    generator = CatalogGenerator(taxonomy, seed=SEED)
    training = generator.generate_labeled(TRAINING_SIZE)
    test_items = generator.generate_items(TEST_SIZE)
    return training, test_items


def crowd_estimate(rules, items, seed):
    pool = WorkerPool(size=40, accuracy_range=(0.92, 0.99), seed=seed)
    task = VerificationTask(pool, budget=CrowdBudget(10**6), seed=seed)
    pairs = [(item, rule.target_type)
             for item in items for rule in rules if rule.matches(item)]
    sample = pairs[:400]
    if not sample:
        return float("nan")
    approved = sum(1 for item, label in sample
                   if task.verify_pair(item, label).approved)
    return approved / len(sample)


def timed_generate(generator, training, repeats=REPEATS):
    """(last result, median wall) over ``repeats`` cold runs."""
    walls = []
    result = None
    for _ in range(repeats):
        clear_caches()
        started = time.perf_counter()
        result = generator.generate(training)
        walls.append(time.perf_counter() - started)
    return result, median(walls)


def test_sec52_rulegen(workload):
    training, test_items = workload
    generator = RuleGenerator(min_support=0.02, q=200, alpha=0.7)
    result, wall = timed_generate(generator, training)

    high_crowd = crowd_estimate(result.high_confidence, test_items, SEED + 1)
    low_crowd = crowd_estimate(result.low_confidence, test_items, SEED + 2)
    high_truth = ruleset_quality(result.high_confidence, test_items).precision
    low_truth = ruleset_quality(result.low_confidence, test_items).precision

    lines = [
        f"training titles          : {len(training)} (paper: 885K)",
        f"types covered            : {result.types_covered} (paper: 3707)",
        f"mined candidate rules    : {result.n_mined} (paper: 874K)",
        f"clean candidates         : {result.n_clean}",
        f"selected high-confidence : {len(result.high_confidence)} (paper: 63K)",
        f"selected low-confidence  : {len(result.low_confidence)} (paper: 37K)",
        f"crowd precision high/low : {high_crowd:.1%} / {low_crowd:.1%} (paper: 95% / 92%)",
        f"truth precision high/low : {high_truth:.1%} / {low_truth:.1%}",
        f"pipeline wall (median of {REPEATS}) : {wall:.2f}s",
    ]
    emit("E3_sec52_rulegen", lines)

    assert result.n_mined > result.n_selected * 5  # mining >> selection
    assert high_crowd >= 0.92 and low_crowd >= 0.90
    assert high_truth >= low_truth - 0.02
    assert len(result.high_confidence) > 0 and len(result.low_confidence) > 0


def test_sec52_mining_speed(workload):
    """Timing row: the reference sequence-mining step alone."""
    training, _ = workload
    from repro.rulegen import mine_frequent_sequences
    from repro.utils.text import tokenize

    jeans_titles = [tokenize(t.title) for t in training if t.label == "jeans"]

    walls = []
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = mine_frequent_sequences(jeans_titles, 0.02, 4)
        walls.append(time.perf_counter() - started)

    emit("E3_sec52_mining_speed", [
        f"jeans titles={len(jeans_titles)} frequent={len(result)}",
        f"mine (median of {REPEATS}) : {median(walls)*1000:.1f}ms",
    ])
    assert result
