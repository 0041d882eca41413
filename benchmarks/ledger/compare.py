#!/usr/bin/env python3
"""Compare two sets of ledger runs against the bounds in ``BENCHMARK.json``.

``python benchmarks/ledger/compare.py A B`` — each side is one
``ledger.json`` or a directory holding several (searched recursively),
``A`` being the base (the parent commit, or the first set of runs).

Per workload × metric it prints both medians, the ratio with its base,
each side's spread (inter-quartile distance ÷ median, from four runs up)
and one verdict. The metrics are the end-to-end ones of ``BENCHMARK.json``
at its bounds, then the issue's demoted ones (``workloads.DEMOTED``) at
the issue's bounds:

``ok``          the median worsened by no more than the metric's bound;
``regressed``   it worsened by more;
``unresolved``  a side's spread is wider than the bound, so the runs
                cannot tell — unless every run of ``B`` reads better than
                every run of ``A``, which is ``ok``.

Runs that share a seed must also agree exactly on ``digest_chain``,
``totals`` and the operation counts, and within 1% on ``checkpoint_kb``;
no run may have failed operations. Exit status is non-zero on any
``regressed`` verdict or identity disagreement. Wall times are comparable
only between runs whose ``host_probe_ms`` agree; each side's median
reading is printed per workload.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402
from workloads import DEMOTED  # noqa: E402

MIN_RUNS_FOR_SPREAD = 4
IDENTITY_KEYS = ("digest_chain", "totals", "attempted", "failed", "sizes", "known_index_misses")


def load_side(path):
    """Every ledger under ``path`` (a file or a directory), smoke runs refused."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(folder, name)
            for folder, _, names in os.walk(path)
            for name in names
            if name == "ledger.json"
        )
    else:
        files = [path]
    ledgers = []
    for file in files:
        with open(file, "r", encoding="utf-8") as handle:
            ledger = json.load(handle)
        if ledger.get("smoke"):
            raise SystemExit(f"{file}: smoke results are not comparable")
        ledgers.append(ledger)
    if not ledgers:
        raise SystemExit(f"{path}: no ledger.json found")
    return ledgers


def load_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    """``name -> {"better", "bound"}``: the contract's metrics, then the demoted ones."""
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, (_, better, bound) in DEMOTED.items():
        bounds[name] = {"better": better, "bound": bound}
    return bounds


def plain_runs(ledgers, workload):
    return [
        ledger["workloads"][workload]["plain"]
        for ledger in ledgers
        if "plain" in ledger["workloads"].get(workload, {})
    ]


def verdict(base, change, better, bound):
    """(status, ratio, base spread, change spread) for one metric."""
    a, b = statistics.median(base), statistics.median(change)
    worse = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    spreads = [
        spread(values) if len(values) >= MIN_RUNS_FOR_SPREAD else None
        for values in (base, change)
    ]
    if worse > bound:
        status = "regressed"
    elif any(s is not None and s > bound for s in spreads):
        clear_win = (
            max(change) < min(base) if better == "lower" else min(change) > max(base)
        )
        status = "ok" if clear_win else "unresolved"
    else:
        status = "ok"
    return status, b / a, spreads[0], spreads[1]


def identity_problems(base_runs, change_runs, workload):
    problems = []
    for run in base_runs + change_runs:
        if run["failed"]:
            problems.append(f"{workload} seed {run['seed']}: {run['failed']} failed operations")
    by_seed = {run["seed"]: run for run in base_runs}
    for run in change_runs:
        other = by_seed.get(run["seed"])
        if other is None:
            continue
        for key in IDENTITY_KEYS:
            if run[key] != other[key]:
                problems.append(
                    f"{workload} seed {run['seed']}: {key} differs "
                    f"({other[key]!r} vs {run[key]!r})"
                )
        a, b = (r["measured"]["checkpoint_kb"]["value"] for r in (other, run))
        if abs(b - a) > 0.01 * a:
            problems.append(
                f"{workload} seed {run['seed']}: checkpoint_kb differs by more than 1% "
                f"({a:.1f} vs {b:.1f})"
            )
    return problems


def compare(base, change, bounds):
    """Print the table; return the process exit status."""
    def fmt(value):
        return "    -" if value is None else f"{value:5.3f}"

    status = 0
    workloads = [w for w in base[0]["workloads"] if w in change[0]["workloads"]]
    print(f"{'workload':<14}{'metric':<24}{'base':>12}{'change':>12}"
          f"{'change/base':>13}{'spreadA':>9}{'spreadB':>9}{'bound':>7}  verdict")
    for workload in workloads:
        base_runs, change_runs = plain_runs(base, workload), plain_runs(change, workload)
        probes = [
            statistics.median(p for run in runs for p in run["host_probe_ms"])
            for runs in (base_runs, change_runs)
        ]
        print(f"{workload}: host_probe_ms {probes[0]:.2f} (base) vs {probes[1]:.2f} (change)")
        for name, spec in bounds.items():
            a = [run["measured"][name]["value"] for run in base_runs]
            b = [run["measured"][name]["value"] for run in change_runs]
            if None in a + b:
                continue  # the workload has no such operation
            result, ratio, spread_a, spread_b = verdict(a, b, spec["better"], spec["bound"])
            if result == "regressed":
                status = 1
            print(f"{workload:<14}{name:<24}{statistics.median(a):>12.4f}"
                  f"{statistics.median(b):>12.4f}{ratio:>13.4f}"
                  f"{fmt(spread_a):>9}{fmt(spread_b):>9}{spec['bound']:>7.2f}  {result}")
        for problem in identity_problems(base_runs, change_runs, workload):
            print(f"IDENTITY: {problem}")
            status = 1
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load_side(argv[0]), load_side(argv[1]), load_bounds())


if __name__ == "__main__":
    sys.exit(main())
