"""Observability overhead: instrumented vs. un-instrumented execution.

The observability layer's contract (DESIGN.md §8) is two-fold:

1. **identical results** — fired maps are byte-identical with tracing on
   or off (instrumentation is strictly observational);
2. **bounded cost** — spans are emitted per run (never per item or per
   chunk).

This benchmark checks the first and measures the second on the same
synthetic corpus as ``bench_exec_prepared``, writing ``BENCH_obs.json`` at
the repo root. A traced batch run executes the same loop as a plain one;
what it adds is two spans (``exec.compile`` and ``exec.partitioned.run``:
the traced run is a one-worker ``PartitionedExecutor``, the batch engine
with spans around it) and one ``observe_fired`` walk over the fired map,
so ``span_count`` is constant in the item count. The loop takes ~0.1 s and
the difference sits inside this host's run-to-run drift, so the relative
figure is reported, not gated. The served path's tracing overhead is
gated by the ledger (``ledger.trace_overhead_share``, benchmarks/ledger).
The CI smoke job runs the small configuration and fails the build when
identity breaks or the span count grows. Run directly:

    python benchmarks/bench_obs_overhead.py                  # full scale
    python benchmarks/bench_obs_overhead.py --rules 100 --items 500  # smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.execution import PartitionedExecutor  # noqa: E402
from repro.observability import Observability  # noqa: E402
from repro.utils.text import clear_caches  # noqa: E402

from _report import (  # noqa: E402
    emit, environment, measure_interleaved, median, overhead_fraction,
)
from bench_exec_prepared import build_corpus  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_obs.json")

def run_once(rules, items, observability=None):
    result = PartitionedExecutor(rules, n_workers=1, observability=observability).run(items)
    return result.fired, result.stats.wall_time


def measure(rules, items, repeats):
    """Interleaved plain/traced runs -> (fired, min wall, walls) pairs."""
    observed = []

    def run_traced():
        obs = Observability()
        observed.append(obs)
        return run_once(rules, items, observability=obs)

    plain, traced = measure_interleaved(
        lambda: run_once(rules, items), run_traced, repeats
    )
    return plain, traced, observed[-1] if observed else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=int, default=1000)
    parser.add_argument("--items", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--trace-out", default=None,
                        help="write the last instrumented run's Chrome trace here")
    args = parser.parse_args(argv)

    rules, items = build_corpus(args.rules, args.items, seed=args.seed)

    # Warm the text caches once so neither series pays cold-tokenize cost
    # (the comparison is about instrumentation, not cache state).
    clear_caches()
    run_once(rules, items)

    plain, traced, last_obs = measure(rules, items, args.repeats)
    fired_plain, wall_plain, walls_plain = plain
    fired_traced, wall_traced, walls_traced = traced
    identical = fired_plain == fired_traced
    # min instrumented wall / min plain wall - 1; min-of-interleaved-runs is
    # the shared comparison statistic (see ``_report.measure_interleaved``).
    overhead = overhead_fraction(wall_plain, wall_traced)

    if args.trace_out and last_obs is not None:
        last_obs.write_chrome_trace(args.trace_out)

    payload = {
        "benchmark": "bench_obs_overhead",
        **environment(),
        "config": {
            "rules": args.rules,
            "items": args.items,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        "plain_wall_sec": round(wall_plain, 6),
        "traced_wall_sec": round(wall_traced, 6),
        "plain_wall_median_sec": round(median(walls_plain), 6),
        "traced_wall_median_sec": round(median(walls_traced), 6),
        "plain_walls": [round(w, 6) for w in walls_plain],
        "traced_walls": [round(w, 6) for w in walls_traced],
        "overhead_fraction": round(overhead, 6),
        "fired_maps_identical": identical,
        "span_count": len(last_obs.tracer.spans) if last_obs else 0,
    }
    # Preserve the daemon-overhead section bench_service_overhead merges in.
    if os.path.exists(args.out):
        try:
            with open(args.out) as handle:
                previous = json.load(handle)
            if "service" in previous:
                payload["service"] = previous["service"]
        except (OSError, json.JSONDecodeError):
            pass
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [
        f"plain   wall={wall_plain:.4f}s (min of {args.repeats})",
        f"traced  wall={wall_traced:.4f}s (min of {args.repeats})",
        f"overhead {overhead * 100:+.2f}%",
        f"fired maps identical: {identical}",
        f"-> {args.out}",
    ]
    emit("BENCH_obs_overhead", lines,
         persist=os.path.abspath(args.out) == DEFAULT_OUT)

    if not identical:
        print("FAIL: fired maps differ between traced and plain runs",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
