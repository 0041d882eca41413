#!/usr/bin/env python3
"""The served-path ledger: four ``StreamService`` workloads, end to end
and layer by layer.

Two ways in, one code path:

``python benchmarks/ledger/run.py [--seed N] [--trace 1] [--smoke] [--out DIR]``
    The ledger: runs the four workloads one after another, each in a
    fresh single-threaded subprocess, prints every metric by name with
    its unit and sample count, verifies outputs, and writes
    ``ledger.json`` (results + environment) under ``--out``.

``... run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process — the form ``BENCHMARK.json`` names and
    the ledger's subprocesses use. The last stdout line is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``: the
    end-to-end metrics with ``--trace 0``, the per-layer ones with
    ``--trace 1``.
"""

import time

ENTERED = time.perf_counter()  # setup_s starts here, before any heavy import

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

DEFAULT_SEED = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="scales the fixed sizes up when above the run_seconds "
                             "they are tuned for; never below them")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; results carry smoke=true")
    parser.add_argument("--out", help="directory for ledger.json, raw samples and spans "
                                      "(default: a fresh temp dir in the checkout)")
    return parser.parse_args(argv)


# -- environment ----------------------------------------------------------------------

def filesystem_type(path):
    """Filesystem type of the mount holding ``path`` (longest /proc/mounts prefix)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount.rstrip("/") + "/") or path == mount:
                    if len(mount) > len(best):
                        best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def git_state():
    """(hash, src-dirty flag); (None, None) outside a git checkout."""
    def git(*args):
        return subprocess.run(
            ("git", "-C", ROOT) + args, capture_output=True, text=True, check=True
        ).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def environment(seed, temp_root):
    import numpy
    import scipy

    commit, src_dirty = git_state()
    return {
        "git_hash": commit,
        "src_dirty": src_dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "fsync": False,
        "temp_fs": filesystem_type(os.path.abspath(temp_root)),
    }


def load_now(label):
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"WARNING: 1-min load {load:.2f} exceeds nproc at {label}; "
              "timings from this run are suspect", file=sys.stderr)
    return load


# -- one workload, this process -------------------------------------------------------

def temp_dir():
    """A fresh temp dir inside the checkout: the driver's runs may read
    and write nowhere else. ``.gitignore`` names the prefix."""
    return tempfile.mkdtemp(prefix=".ledger_tmp-", dir=ROOT)


def run_one(args):
    from workloads import RUN_SECONDS, WORKLOADS, WorkloadRun, sized_workload

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    workload = sized_workload(args.workload, seconds, args.smoke)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    work_dir = temp_dir()
    load_before = load_now(f"{workload.name} start")
    try:
        run = WorkloadRun(
            workload, args.seed, work_dir, trace=bool(args.trace), started=ENTERED
        ).run()
        record = run.result()
        record["smoke"] = args.smoke
        record["load_1min"] = [load_before, load_now(f"{workload.name} end")]
        record["temp_fs"] = filesystem_type(os.path.abspath(work_dir))
        if args.out:
            run.write_raw(args.out)
            kind = "traced" if args.trace else "plain"
            with open(os.path.join(args.out, f"{workload.name}-{kind}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_record(record)
    section = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for name, entry in section.items():
        value = entry["value"]
        if value is None:
            # The driver's line carries numbers only: a layer that is gone,
            # or an operation this workload never performs, spent no time.
            # ledger.json keeps the null.
            value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0  # an incorrect run is reported on the line above, not by the exit code


def print_record(record):
    sizes = record["sizes"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"{'traced' if record['traced'] else 'plain'}"
          f"{' SMOKE' if record.get('smoke') else ''} "
          f"batches={sizes['batches']} edits={sizes['edits']}")
    for name, entry in record["measured"].items():
        if entry["value"] is None:
            continue
        bounded = "" if name in record["end_to_end"] else "  (no bound)"
        print(f"  {name:<36} {entry['value']:>14.4f} {entry['unit']:<8} n={entry['n']}{bounded}")
    for name, entry in record.get("per_layer", {}).items():
        shown = "null" if entry["value"] is None else f"{entry['value']:.6f}"
        print(f"  {name:<36} {shown:>14} {entry['unit']}")
    for warning in record.get("warnings", []):
        print(f"  WARNING: {warning}")
    print(f"  failed/attempted = {record['failed']}/{record['attempted']} "
          f"(failed_share {record['failed_share']:.6f})")
    before, after = record["host_probe_ms"]
    print(f"  host_probe_ms = {before:.2f} before, {after:.2f} after the timed section")
    print(f"  known_index_misses = {record['known_index_misses']} of the oracle sample")
    print(f"  digest_chain = {record['digest_chain']}")
    print(f"  totals = {json.dumps(record['totals'], sort_keys=True)}")
    for failure in record["failures"]:
        print(f"  FAILURE: {failure}")


# -- the ledger: all four, each in a fresh subprocess ---------------------------------

def run_ledger(args):
    from workloads import RESUMES, SIZE_FACTOR, TAIL, WARMUP_BATCHES, WORKLOADS

    out = args.out or temp_dir()
    os.makedirs(out, exist_ok=True)
    ledger = {
        "smoke": args.smoke,
        "protocol": {
            "warmup_batches": WARMUP_BATCHES, "resumes": RESUMES,
            "tail_percentile": TAIL, "size_factor": SIZE_FACTOR,
            "loop": "closed, 1 client, 1 thread",
        },
        "environment": environment(args.seed, out),
        "load_1min_start": load_now("ledger start"),
        "workloads": {},
    }
    if ledger["environment"]["src_dirty"]:
        print("WARNING: src/ has uncommitted changes; these numbers describe no "
              "commit and must not be published", file=sys.stderr)
    status = 0
    for name in WORKLOADS:
        entry = {}
        for kind, trace in (("plain", 0), ("traced", 1))[: 1 + args.trace]:
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--trace", str(trace), "--out", out,
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # drop the driver line
            path = os.path.join(out, f"{name}-{kind}.json")
            if done.returncode or not os.path.exists(path):
                print(f"FAILED: {name} ({kind}) exited {done.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(path, "r", encoding="utf-8") as handle:
                entry[kind] = json.load(handle)
            if not entry[kind]["correct"]:
                status = 1
        if "plain" in entry and "traced" in entry:
            ratio = entry["traced"]["timed_wall_s"] / entry["plain"]["timed_wall_s"] - 1.0
            entry["trace_wall_ratio"] = ratio
            print(f"  {name}: traced timed wall / untraced - 1 = {ratio:+.4f}")
        ledger["workloads"][name] = entry
    ledger["load_1min_end"] = load_now("ledger end")
    path = os.path.join(out, "ledger.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
    print(f"ledger written to {path}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
