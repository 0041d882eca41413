"""Incremental vs from-scratch execution under churn (§4's open problem).

The never-ending deployment's two hot change events are measured against a
from-scratch ``IndexedExecutor`` (batch mode of the same engine) re-run over
the same corpus:

* ``1_rule_edit``      — an analyst refines one rule (``update_rule``);
* ``10_rule_churn``    — a churn batch: 5 rule edits + 5 new rules;
* ``1k_item_batch``    — a vendor batch of new items arrives
                         (``add_items``); the full re-run must cover
                         corpus + batch.

Every scenario asserts the delta-maintained fired map *and* the from-scratch
run are **byte-identical** (canonical JSON) to the ``NaiveExecutor``
reference before timing is reported.
Results are written machine-readable to ``BENCH_incremental.json`` at the
repo root. Run directly:

    python benchmarks/bench_incremental_exec.py                    # full scale
    python benchmarks/bench_incremental_exec.py --rules 200 --items 2000 \
        --batch 200                                                # smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core import SequenceRule, WhitelistRule  # noqa: E402
from repro.execution import (  # noqa: E402
    ExecutionStats,
    IncrementalExecutor,
    IndexedExecutor,
    NaiveExecutor,
)

from _report import emit, stats_lines  # noqa: E402
from bench_exec_prepared import build_corpus  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_incremental.json")


def canonical(fired) -> str:
    return json.dumps(fired, sort_keys=True)


def full_rerun(rules, items):
    """From-scratch IndexedExecutor pass: the cost incremental avoids.

    Returns its wall time and (untimed) the reference fired map, after
    checking the re-run against it.
    """
    started = time.perf_counter()
    fired, _stats = IndexedExecutor(rules).run(items)
    elapsed = time.perf_counter() - started
    reference, _stats = NaiveExecutor(rules).run(items)
    if canonical(fired) != canonical(reference):
        raise SystemExit("FAIL: from-scratch run diverged from NaiveExecutor")
    return reference, elapsed


def edited(rule, salt):
    """A refined variant of ``rule`` with the same rule_id (analyst edit)."""
    if isinstance(rule, SequenceRule):
        return SequenceRule(rule.token_sequence[:1], rule.target_type,
                            rule_id=rule.rule_id)
    return WhitelistRule(f"({rule.pattern}|extra{salt:04d})", rule.target_type,
                         rule_id=rule.rule_id)


def scenario_row(name, delta_time, rerun_time, op_stats, identical):
    speedup = rerun_time / max(delta_time, 1e-9)
    return {
        "scenario": name,
        "delta_time_sec": round(delta_time, 6),
        "full_rerun_time_sec": round(rerun_time, 6),
        "speedup": round(speedup, 1),
        "delta_rules": op_stats.delta_rules,
        "delta_items": op_stats.delta_items,
        "delta_evaluations": op_stats.rule_evaluations,
        "invalidations": op_stats.invalidations,
        "fired_identical": bool(identical),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=int, default=1000)
    parser.add_argument("--items", type=int, default=10_000)
    parser.add_argument("--batch", type=int, default=1000,
                        help="size of the arriving item batch")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    rules, all_items = build_corpus(args.rules, args.items + args.batch, seed=args.seed)
    items, batch = all_items[: args.items], all_items[args.items:]

    incremental = IncrementalExecutor(rules, items)
    baseline_fired, _ = full_rerun(rules, items)
    assert canonical(incremental.fired_map()) == canonical(baseline_fired)

    rows = []

    # -- scenario 1: a single rule edit --------------------------------------
    editable = [r for r in rules if isinstance(r, (SequenceRule, WhitelistRule))]
    target = editable[len(editable) // 2]
    new_rule = edited(target, 1)
    started = time.perf_counter()
    op = incremental.update_rule(new_rule)
    delta_fired = incremental.fired_map()
    delta_time = time.perf_counter() - started
    rules = [new_rule if r.rule_id == new_rule.rule_id else r for r in rules]
    rerun_fired, rerun_time = full_rerun(rules, items)
    identical = canonical(delta_fired) == canonical(rerun_fired)
    rows.append(scenario_row("1_rule_edit", delta_time, rerun_time, op, identical))

    # -- scenario 2: a 10-rule churn batch (5 edits + 5 additions) -----------
    edits = [edited(r, 100 + i) for i, r in enumerate(editable[:5])]
    additions = [
        WhitelistRule(f"churn{i:03d}", "t", rule_id=f"churn-{i:03d}")
        for i in range(5)
    ]
    started = time.perf_counter()
    churn_stats = ExecutionStats()
    for rule in edits:
        churn_stats.merge(incremental.update_rule(rule))
    churn_stats.merge(incremental.add_rules(additions))
    delta_fired = incremental.fired_map()
    delta_time = time.perf_counter() - started
    edited_ids = {r.rule_id for r in edits}
    rules = [next(e for e in edits if e.rule_id == r.rule_id) if r.rule_id in edited_ids
             else r for r in rules] + additions
    rerun_fired, rerun_time = full_rerun(rules, items)
    identical = canonical(delta_fired) == canonical(rerun_fired)
    rows.append(scenario_row("10_rule_churn", delta_time, rerun_time, churn_stats,
                             identical))

    # -- scenario 3: a 1k-item vendor batch arrives --------------------------
    started = time.perf_counter()
    op = incremental.add_items(batch)
    delta_fired = incremental.fired_map()
    delta_time = time.perf_counter() - started
    items = items + list(batch)
    rerun_fired, rerun_time = full_rerun(rules, items)
    identical = canonical(delta_fired) == canonical(rerun_fired)
    rows.append(scenario_row(f"{len(batch)}_item_batch", delta_time, rerun_time, op,
                             identical))

    all_identical = all(row["fired_identical"] for row in rows)
    payload = {
        "benchmark": "incremental_exec",
        "config": {
            "rules": len(rules),
            "items": args.items,
            "batch": len(batch),
            "seed": args.seed,
        },
        "scenarios": rows,
        "lifetime_stats": {
            "rule_evaluations": incremental.stats.rule_evaluations,
            "cache_hits": incremental.stats.cache_hits,
            "cache_misses": incremental.stats.cache_misses,
            "invalidations": incremental.stats.invalidations,
            "delta_rules": incremental.stats.delta_rules,
            "delta_items": incremental.stats.delta_items,
        },
        "fired_identical": all_identical,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    lines = [f"rules x items                  : {len(rules)} x {args.items} "
             f"(+{len(batch)} batch)"]
    for row in rows:
        lines.append(
            f"{row['scenario']:<15}: delta {row['delta_time_sec']:.4f}s vs "
            f"full {row['full_rerun_time_sec']:.4f}s = {row['speedup']}x "
            f"(evals {row['delta_evaluations']}, identical {row['fired_identical']})"
        )
    lines.extend(stats_lines("lifetime", incremental.stats))
    lines.append(f"json                           : "
                 f"{os.path.relpath(args.out, REPO_ROOT)}")
    emit("BENCH_incremental_exec", lines)
    if not all_identical:
        raise SystemExit("FAIL: incremental fired map diverged from full re-run")
    return payload


if __name__ == "__main__":
    main()
