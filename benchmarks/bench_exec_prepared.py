"""Compiled engine throughput against the NaiveExecutor reference.

Three series are timed on the same synthetic corpus:

* ``prepared_naive`` — NaiveExecutor (every rule x every item over
  PreparedItems), on an item subsample: the reference semantics, and the
  cost the engine exists to avoid;
* ``compiled_indexed`` — ``CompiledRuleSet(rules).execute``: the
  whole rule set lowered once into a CompiledRuleSet (DESIGN.md §5),
  measured steady-state (compile + warmup excluded; compile time reported
  separately as ``compile_time_sec``);
* ``compiled_parallel`` — PartitionedExecutor, in-process shards sharing
  one compiled artifact.

Both engine series must return NaiveExecutor's fired map over the whole
corpus (``fired_identical``). The committed ``BENCH_exec.json`` also holds
``seed_*`` / ``prepared_indexed`` series measured by earlier versions of
this script; the programs they timed no longer exist. Run directly:

    python benchmarks/bench_exec_prepared.py                 # full scale
    python benchmarks/bench_exec_prepared.py --rules 100 --items 500  # smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.catalog.types import ProductItem  # noqa: E402
from repro.core import AttributeRule, SequenceRule, WhitelistRule  # noqa: E402
from repro.execution import (  # noqa: E402
    CompiledRuleSet,
    NaiveExecutor,
    PartitionedExecutor,
)
from repro.utils.text import tokenize_cached  # noqa: E402

from _report import emit  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_exec.json")

# ---------------------------------------------------------------------------
# Synthetic corpus: wide vocabulary so the index prunes realistically.
# ---------------------------------------------------------------------------


def build_corpus(n_rules, n_items, seed=7):
    """Rules and items over a *shared* product-domain vocabulary.

    The paper's regime is thousands of rules written about the same catalog
    the items come from, so rule anchors genuinely occur in titles and each
    item draws a non-trivial candidate set.
    """
    rng = random.Random(seed)
    vocab = [f"tok{i:04d}" for i in range(400)]
    plural_bases = [f"ware{i:03d}" for i in range(100)]
    vocab += [base + "s" for base in plural_bases]

    items = []
    for i in range(n_items):
        length = rng.randint(8, 14)
        title = " ".join(rng.choice(vocab) for _ in range(length))
        attrs = {"isbn": "978"} if rng.random() < 0.05 else {}
        items.append(ProductItem(item_id=f"item-{i:07d}", title=title, attributes=attrs))

    rules = []
    for i in range(n_rules):
        roll = rng.random()
        if roll < 0.6:
            sequence = tuple(rng.sample(vocab, rng.randint(1, 2)))
            rules.append(SequenceRule(sequence, "t", rule_id=f"seq-{i:06d}"))
        elif roll < 0.9:
            base = rng.choice(plural_bases)
            pattern = f"{base}s?" if rng.random() < 0.5 else f"({base}s?|{rng.choice(vocab)})"
            rules.append(WhitelistRule(pattern, "t", rule_id=f"wl-{i:06d}"))
        else:
            rules.append(
                WhitelistRule(f"{rng.choice(vocab)} {rng.choice(vocab)}", "t",
                              rule_id=f"wl-{i:06d}")
            )
    # A few residue (attribute) rules: always-check, like real rule bases.
    for i in range(min(5, n_rules)):
        rules.append(AttributeRule("isbn", "books", rule_id=f"attr-{i:02d}"))
    return rules, items


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def series(name, n_items, wall_time, evaluations):
    return {
        "series": name,
        "items": n_items,
        "wall_time_sec": round(wall_time, 4),
        "items_per_sec": round(n_items / wall_time, 1) if wall_time > 0 else None,
        "evaluations_per_item": round(evaluations / n_items, 2) if n_items else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=int, default=1000)
    parser.add_argument("--items", type=int, default=10_000)
    parser.add_argument("--naive-sample", type=int, default=500,
                        help="item subsample for the quadratic naive series")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    rules, items = build_corpus(args.rules, args.items, seed=args.seed)
    naive_sample = items[: min(args.naive_sample, len(items))]
    tokenize_cached.cache_clear()

    # -- the reference ---------------------------------------------------------
    _, naive_stats = NaiveExecutor(rules).run(naive_sample)

    # -- compiled paths ------------------------------------------------------
    # Steady-state protocol: the artifact compiles once and serves every
    # subsequent batch, so compile + warmup run before the timed passes and
    # compile cost is reported as its own number. The timed pass repeats and
    # keeps the fastest run: at ~10us/item the loop is fine-grained enough
    # that a single shot mostly measures scheduler luck on a shared box, and
    # min-of-N is the standard estimator for the loop's true cost.
    compiled, compile_probe = timed(lambda: CompiledRuleSet(rules))
    compiled.execute(items[: min(1000, len(items))])  # warmup
    compiled_fired = compiled_stats = None
    for _ in range(5):
        run_fired, run_stats = compiled.execute(items)
        if compiled_stats is None or run_stats.match_time < compiled_stats.match_time:
            compiled_fired, compiled_stats = run_fired, run_stats

    parallel_executor = PartitionedExecutor(rules, n_workers=4)
    parallel_executor.run(items[: min(1000, len(items))])  # warmup + compile
    compiled_parallel_out = compiled_parallel_wall = None
    for _ in range(3):
        run_out, run_wall = timed(lambda: parallel_executor.run(items))
        if compiled_parallel_wall is None or run_wall < compiled_parallel_wall:
            compiled_parallel_out, compiled_parallel_wall = run_out, run_wall
    compiled_parallel_fired = compiled_parallel_out.fired

    reference_fired = NaiveExecutor(rules).run(items)[0]
    identical = (
        compiled_fired == reference_fired
        and compiled_parallel_fired == reference_fired
    )

    payload = {
        "benchmark": "exec_prepared",
        "config": {
            "rules": len(rules),
            "items": len(items),
            "naive_sample_items": len(naive_sample),
            "seed": args.seed,
        },
        "series": [
            series(
                "prepared_naive",
                len(naive_sample),
                naive_stats.wall_time,
                naive_stats.rule_evaluations,
            ),
            series(
                "compiled_indexed",
                len(items),
                compiled_stats.match_time,
                compiled_stats.rule_evaluations,
            ),
            series(
                "compiled_parallel",
                len(items),
                compiled_parallel_wall,
                compiled_parallel_out.stats.rule_evaluations,
            ),
        ],
        "compiled_indexed_protocol": {
            "note": "steady-state: compile + 1k-item warmup before the "
                    "timed passes, then best of 5 runs (3 for parallel); "
                    "compile amortizes across batches",
            "compile_time_sec": round(compile_probe, 4),
        },
        "fired_identical": bool(identical),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    naive_row, compiled_row, parallel_row = payload["series"]
    lines = [
        f"rules x items                  : {len(rules)} x {len(items)}",
        f"naive items/sec  (n={len(naive_sample)})      : {naive_row['items_per_sec']}",
        f"compiled indexed items/sec     : {compiled_row['items_per_sec']}"
        f"  (compile {compile_probe:.3f}s)",
        f"compiled evals/item            : {compiled_row['evaluations_per_item']}",
        f"compiled parallel items/sec    : {parallel_row['items_per_sec']}",
        f"fired maps identical           : {identical}",
        f"json                           : {os.path.relpath(args.out, REPO_ROOT)}",
    ]
    emit("BENCH_exec_prepared", lines,
         persist=os.path.abspath(args.out) == DEFAULT_OUT)
    if not identical:
        raise SystemExit("FAIL: compiled engine diverged from NaiveExecutor")
    return payload


if __name__ == "__main__":
    main()
