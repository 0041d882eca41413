"""Rule induction at catalog scale: the miner against its reference.

Induces rules over a procedurally scaled catalog (default: 100k labeled
titles across 200+ types) with :class:`~repro.rulegen.RuleGenerator`
(weighted representative titles mined, scored and selected as arrays)
and with :class:`~repro.rulegen.ReferenceRuleGenerator` (the §5.2
pipeline row by row), asserts the two rule lists are identical (same
sequences, targets, supports and confidences, in the same order — ids are
auto-assigned and excluded) together with the stage counts, and writes
``BENCH_rulegen.json`` with both wall clocks and the miner's phase split.

The speedup it reports is algorithmic — deduplicated representative
titles, one vectorized level loop for every type and length, array
scoring and selection, only the selected rules materialized — and
single-threaded on both sides; ``cpu_count`` is
recorded for the record, not because anything here scales with it.

Honesty notes, recorded in the JSON:

* tokenization caches are cleared before every timed run, so neither
  series inherits the other's warm cache.
* ``--repeats N`` times both generators N times and keeps the best wall
  clock of each, so scheduler noise can't flatter either side; the phase
  split is the best miner run's.

Usage:
    python benchmarks/bench_rulegen_parallel.py                  # full scale
    python benchmarks/bench_rulegen_parallel.py --items 10000 \
        --extra-types 40 --out /tmp/BENCH_rulegen.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _report import emit, environment  # noqa: E402
from repro.catalog import build_seed_taxonomy, synthesize_types  # noqa: E402
from repro.catalog.generator import CatalogGenerator  # noqa: E402
from repro.rulegen import ReferenceRuleGenerator, RuleGenerator  # noqa: E402
from repro.utils.text import clear_caches  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_rulegen.json")

TAXONOMY_SEED = 7
CATALOG_SEED = 11
MIN_SUPPORT = 0.01
QUOTA = 200
SPEEDUP_KIND = "algorithmic: weighted reps + columnar level loop, scoring and selection"


def rule_payload(result):
    """The id-free identity key: what the rules *are*, not what they're named."""
    return [
        (list(rule.token_sequence), rule.target_type, rule.support,
         rule.confidence)
        for rule in result.rules
    ]


def stage_counts(result):
    return {
        "n_mined": result.n_mined,
        "n_clean": result.n_clean,
        "n_selected": result.n_selected,
        "types_covered": result.types_covered,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--items", type=int, default=100_000,
                        help="labeled training titles")
    parser.add_argument("--extra-types", type=int, default=180,
                        help="synthesized types on top of the seed taxonomy")
    parser.add_argument("--repeats", type=int, default=1,
                        help="time each generator this many times and keep "
                             "the best wall clock (cold caches every repeat)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args()
    repeats = max(1, args.repeats)

    def timed(generator):
        """Best-of-``repeats`` cold-cache ``(wall, result)``."""
        best_wall, best = None, None
        for _ in range(repeats):
            clear_caches()
            started = time.perf_counter()
            result = generator.generate(training)
            wall = time.perf_counter() - started
            if best_wall is None or wall < best_wall:
                best_wall, best = wall, result
        return best_wall, best

    taxonomy = build_seed_taxonomy()
    if args.extra_types:
        for product_type in synthesize_types(
            args.extra_types, random.Random(TAXONOMY_SEED)
        ):
            taxonomy.add(product_type)
    generator = CatalogGenerator(taxonomy, seed=CATALOG_SEED)
    training = generator.generate_labeled(args.items)
    n_types = len({example.label for example in training})

    reference_wall, reference = timed(
        ReferenceRuleGenerator(min_support=MIN_SUPPORT, q=QUOTA)
    )
    miner_wall, mined = timed(RuleGenerator(min_support=MIN_SUPPORT, q=QUOTA))
    identical = (
        rule_payload(mined) == rule_payload(reference)
        and stage_counts(mined) == stage_counts(reference)
    )
    speedup = round(reference_wall / miner_wall, 3) if miner_wall else 0.0

    report = {
        "experiment": "rulegen_miner_vs_reference",
        **environment(),
        "taxonomy_seed": TAXONOMY_SEED,
        "catalog_seed": CATALOG_SEED,
        "repeats": repeats,
        "items": args.items,
        "types": n_types,
        "min_support": MIN_SUPPORT,
        "quota": QUOTA,
        "reference": {
            "wall_seconds": round(reference_wall, 4),
            **stage_counts(reference),
        },
        "miner": {
            "wall_seconds": round(miner_wall, 4),
            **stage_counts(mined),
            "phase_seconds": {
                phase: round(seconds, 4)
                for phase, seconds in mined.timings.items()
            },
        },
        "identical_to_reference": identical,
        "speedup_vs_reference": speedup,
        "speedup_kind": SPEEDUP_KIND,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    phases = " ".join(
        f"{phase}={seconds:.3f}s" for phase, seconds in mined.timings.items()
    )
    emit("rulegen_parallel", [
        f"corpus items={args.items} types={n_types} "
        f"min_support={MIN_SUPPORT} q={QUOTA} cpu_count={os.cpu_count()} "
        f"repeats={repeats}",
        f"reference wall={reference_wall:.3f}s mined={reference.n_mined} "
        f"clean={reference.n_clean} selected={reference.n_selected}",
        f"miner wall={miner_wall:.3f}s {phases}",
        f"identical_to_reference={identical} speedup={speedup:.2f}x "
        f"({SPEEDUP_KIND}) -> {args.out}",
    ])

    if not identical:
        print("FAIL: miner rule set diverged from the reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
