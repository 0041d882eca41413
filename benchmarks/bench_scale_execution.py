"""E18 — Scaling series: execution work vs rule-base size.

The paper's execution challenge is stated at "tens of thousands to hundreds
of thousands of rules". This series measures per-item work for naive vs
indexed execution at growing rule counts — the shape that matters is naive
work growing linearly in rules while indexed work stays near-flat.

Run directly, this module is the *compiled-path* scale harness instead:
it streams a large synthetic corpus (default 1M items / 10k rules, 50k-item
chunks so memory stays flat) through one CompiledRuleSet, writes
``BENCH_scale.json`` at the repo root with the compile / match seconds
beside the wall clock (the rest is corpus generation), and cross-checks a
leading subsample against the NaiveExecutor reference for fired-map
identity (every rule on every subsample item, so keep ``--subsample`` x
``--rules`` in the tens of millions):

    python benchmarks/bench_scale_execution.py                       # full
    python benchmarks/bench_scale_execution.py --items 50000 --rules 1000
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import pytest

from _report import emit, environment
from repro.catalog import CatalogGenerator, build_seed_taxonomy, synthesize_types
from repro.execution import CompiledRuleSet, NaiveExecutor
from repro.execution.compiler import corpus_token_frequency
from repro.rulegen import RuleGenerator

SEED = 591


@pytest.fixture(scope="module")
def workload():
    import random
    from collections import defaultdict

    from repro.core import SequenceRule
    from repro.rulegen import mine_frequent_sequences
    from repro.utils.text import tokenize

    taxonomy = build_seed_taxonomy()
    for product_type in synthesize_types(250, random.Random(SEED)):
        taxonomy.add(product_type)
    generator = CatalogGenerator(taxonomy, seed=SEED)
    training = generator.generate_labeled(12_000)
    # Every mined sequence becomes a rule (no selection): the point of this
    # series is rule-base *size*, matching the paper's 10^4-10^5 regime.
    by_type = defaultdict(list)
    for example in training:
        by_type[example.label].append(tokenize(example.title))
    all_rules = []
    for type_name in sorted(by_type):
        frequent = mine_frequent_sequences(by_type[type_name], 0.02, max_length=3)
        for sequence in sorted(frequent):
            if len(sequence) >= 2:
                all_rules.append(SequenceRule(sequence, type_name,
                                              support=frequent[sequence]))
        if len(all_rules) >= 12_000:
            break
    items = generator.generate_items(150)
    frequency = corpus_token_frequency(t.title for t in training)
    return all_rules, items, frequency


def test_scale_execution(benchmark, workload):
    all_rules, items, frequency = workload
    rule_counts = [max(200, len(all_rules) // 16),
                   max(800, len(all_rules) // 4),
                   len(all_rules)]

    def series():
        rows = []
        for count in rule_counts:
            rules = all_rules[:count]
            _, naive_stats = NaiveExecutor(rules).run(items)
            _, indexed_stats = CompiledRuleSet(
                rules, token_frequency=frequency).execute(items)
            rows.append((len(rules),
                         naive_stats.evaluations_per_item,
                         indexed_stats.evaluations_per_item))
        return rows

    rows = benchmark.pedantic(series, rounds=1, iterations=1)
    assert len(rows) >= 2, f"not enough mined rules ({len(all_rules)})"

    lines = [f"{'rules':>7s} {'naive evals/item':>17s} {'indexed evals/item':>19s}"]
    for count, naive, indexed in rows:
        lines.append(f"{count:7d} {naive:17.0f} {indexed:19.1f}")
    lines.append("-> naive work grows linearly with the rule base; "
                 "indexed work stays near-flat (the §4 scaling answer)")
    emit("E18_scale_execution", lines)

    naive_growth = rows[-1][1] / rows[0][1]
    assert naive_growth > 3                         # linear in rules
    # At the largest rule base the index skips >= 97% of the work.
    assert rows[-1][2] < rows[-1][1] * 0.03
    assert rows[-1][2] < 150                        # near-flat in absolute terms


# ---------------------------------------------------------------------------
# Standalone compiled-path scale harness (not collected by pytest).
# ---------------------------------------------------------------------------

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_scale.json")


def build_scale_rules(n_rules, seed):
    """10k-rule-regime synthetic rule base over a vocabulary wide enough
    that per-item candidate sets stay realistic (anchors dilute as the
    rule base grows, matching the paper's shared-catalog setting)."""
    import random

    from repro.core import AttributeRule, SequenceRule, WhitelistRule

    rng = random.Random(seed)
    vocab = [f"tok{i:05d}" for i in range(max(400, (2 * n_rules) // 5))]
    plural_bases = [f"ware{i:04d}" for i in range(max(100, n_rules // 10))]
    vocab_all = vocab + [base + "s" for base in plural_bases]

    rules = []
    for i in range(n_rules):
        roll = rng.random()
        if roll < 0.6:
            sequence = tuple(rng.sample(vocab_all, rng.randint(1, 2)))
            rules.append(SequenceRule(sequence, "t", rule_id=f"seq-{i:06d}"))
        elif roll < 0.9:
            base = rng.choice(plural_bases)
            pattern = (f"{base}s?" if rng.random() < 0.5
                       else f"({base}s?|{rng.choice(vocab_all)})")
            rules.append(WhitelistRule(pattern, "t", rule_id=f"wl-{i:06d}"))
        else:
            rules.append(
                WhitelistRule(
                    f"{rng.choice(vocab_all)} {rng.choice(vocab_all)}", "t",
                    rule_id=f"wl-{i:06d}",
                )
            )
    for i in range(min(5, n_rules)):
        rules.append(AttributeRule("isbn", "books", rule_id=f"attr-{i:02d}"))
    return rules, vocab_all


def item_chunks(n_items, chunk_size, vocab, seed):
    """Stream the corpus: items are born, matched, and dropped one chunk
    at a time so the 1M-item run never holds the catalog in memory."""
    import random

    from repro.catalog.types import ProductItem

    rng = random.Random(seed + 1)
    produced = 0
    while produced < n_items:
        n = min(chunk_size, n_items - produced)
        batch = []
        for i in range(produced, produced + n):
            length = rng.randint(8, 14)
            title = " ".join(rng.choice(vocab) for _ in range(length))
            attrs = {"isbn": "978"} if rng.random() < 0.05 else {}
            batch.append(
                ProductItem(item_id=f"item-{i:07d}", title=title, attributes=attrs)
            )
        yield batch
        produced += n


def main(argv=None):
    import argparse
    import gc
    import json
    import time

    from repro.execution.executor import ExecutionStats

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=1_000_000)
    parser.add_argument("--rules", type=int, default=10_000)
    parser.add_argument("--chunk", type=int, default=50_000)
    parser.add_argument("--subsample", type=int, default=2_000,
                        help="leading items cross-checked vs NaiveExecutor")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    rules, vocab = build_scale_rules(args.rules, args.seed)

    stats = ExecutionStats()
    started = time.perf_counter()
    compiled = CompiledRuleSet(rules)
    stats.compile_time = time.perf_counter() - started

    matches = 0
    fired_items = 0
    subsample_items = []
    subsample_fired = {}
    gc.disable()
    try:
        started = time.perf_counter()
        for batch in item_chunks(args.items, args.chunk, vocab, args.seed):
            fired, stats = compiled.execute(batch, stats=stats)
            matches += sum(len(hits) for hits in fired.values())
            fired_items += len(fired)
            if len(subsample_items) < args.subsample:
                take = args.subsample - len(subsample_items)
                head = batch[:take]
                subsample_items.extend(head)
                for item in head:
                    if item.item_id in fired:
                        subsample_fired[item.item_id] = fired[item.item_id]
            del fired, batch
        wall = time.perf_counter() - started
    finally:
        gc.enable()

    reference_fired, _ = NaiveExecutor(rules).run(subsample_items)
    identical = reference_fired == subsample_fired

    payload = {
        "benchmark": "scale_execution_compiled",
        **environment(),
        "config": {
            "rules": len(rules),
            "items": args.items,
            "chunk_items": args.chunk,
            "subsample_items": len(subsample_items),
            "seed": args.seed,
        },
        "totals": {
            "wall_time_sec": round(wall, 2),
            "items_per_sec": round(args.items / wall, 1),
            "matches": matches,
            "items_with_matches": fired_items,
            "evaluations_per_item": round(
                stats.rule_evaluations / max(args.items, 1), 2
            ),
        },
        "engine_sec": {
            "compile": round(stats.compile_time, 4),
            "match": round(stats.match_time, 4),
        },
        "fired_identical_on_subsample": bool(identical),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    emit("BENCH_scale_execution", [
        f"rules x items        : {len(rules)} x {args.items}",
        f"items/sec            : {payload['totals']['items_per_sec']}",
        f"evals/item           : {payload['totals']['evaluations_per_item']}",
        f"compile / match sec  : "
        f"{payload['engine_sec']['compile']} / {payload['engine_sec']['match']}",
        f"subsample identical  : {identical}  (n={len(subsample_items)})",
        f"json                 : {os.path.relpath(args.out, REPO_ROOT)}",
    ], persist=os.path.abspath(args.out) == DEFAULT_OUT)
    if not identical:
        raise SystemExit("FAIL: compiled path diverged from NaiveExecutor")
    return payload


if __name__ == "__main__":
    main()
