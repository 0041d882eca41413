"""Shared reporting and measurement helpers for the benchmark harness.

Each experiment emits its paper-style rows both to stdout and to
``benchmarks/results/<experiment>.txt`` so the regenerated tables survive
pytest's output capturing (a script run with ``--out`` elsewhere prints
only). The overhead benchmarks
(``bench_obs_overhead``, ``bench_quality_overhead``) also share one
comparison statistic, :func:`measure_interleaved` — min of interleaved
runs — so "overhead" means the same thing in every report.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Callable, Dict, Iterable, List, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def environment() -> Dict[str, object]:
    """What a committed number was measured on: commit, interpreter, host.

    ``git_hash`` / ``src_dirty`` are None outside a git checkout.
    """
    def git(*args):
        return subprocess.run(
            ("git", "-C", REPO_ROOT) + args,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    try:
        commit, src_dirty = (git("rev-parse", "HEAD"),
                             bool(git("status", "--porcelain", "--", "src")))
    except (OSError, subprocess.CalledProcessError):
        commit, src_dirty = None, None
    return {
        "git_hash": commit,
        "src_dirty": src_dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def measure_interleaved(
    run_base: Callable[[], Tuple[object, float]],
    run_measured: Callable[[], Tuple[object, float]],
    repeats: int,
):
    """Interleaved base/measured runs -> two (result, min wall, walls) triples.

    Each callable returns ``(result, wall_seconds)``. Alternating the two
    series within one loop cancels the warm-up and drift bias a
    back-to-back A-then-B comparison would bake in; taking each series'
    *minimum* wall discards one-off scheduler preemptions — noise only
    ever *adds* time, so the fastest observed run is the closest
    observable to the true cost. That keeps ~50ms CI smoke runs from
    flaking on a single preempted iteration.
    """
    result_base = result_measured = None
    walls_base: List[float] = []
    walls_measured: List[float] = []
    for _ in range(repeats):
        result_base, wall = run_base()
        walls_base.append(wall)
        result_measured, wall = run_measured()
        walls_measured.append(wall)
    return (
        (result_base, min(walls_base), walls_base),
        (result_measured, min(walls_measured), walls_measured),
    )


def overhead_fraction(base_wall: float, measured_wall: float) -> float:
    """min measured wall / min base wall - 1 (0 when the base is degenerate)."""
    return (measured_wall / base_wall - 1.0) if base_wall > 0 else 0.0


def stats_lines(label: str, stats) -> List[str]:
    """Render an ExecutionStats as report rows, incremental ledger included.

    Shows the work counters plus the cache/delta accounting
    (``cache_hits``/``cache_misses``, ``invalidations``,
    ``delta_rules``/``delta_items``) so benchmark output exposes how much
    of a run was served from memoized state versus re-evaluated.
    """
    rows = [
        f"{label} items={stats.items} evals={stats.rule_evaluations} "
        f"matches={stats.matches} wall={stats.wall_time:.4f}s",
    ]
    if stats.cache_hits or stats.cache_misses or stats.invalidations \
            or stats.delta_rules or stats.delta_items:
        rows.append(
            f"{label} cache_hits={stats.cache_hits} cache_misses={stats.cache_misses} "
            f"hit_rate={stats.cache_hit_rate:.2f} invalidations={stats.invalidations} "
            f"delta_rules={stats.delta_rules} delta_items={stats.delta_items}"
        )
    return rows


def emit(experiment: str, lines: Iterable[str], persist: bool = True) -> List[str]:
    """Print the experiment's rows and, with ``persist``, write them to
    ``results/<experiment>.txt``; returns the lines.

    A script with an ``--out`` option persists only when ``--out`` is its
    committed default, so a run that writes elsewhere leaves the checkout
    clean.
    """
    rendered = list(lines)
    if persist:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
        with open(path, "w") as handle:
            for line in rendered:
                handle.write(line + "\n")
    print(f"\n=== {experiment} ===")
    for line in rendered:
        print(line)
    return rendered
