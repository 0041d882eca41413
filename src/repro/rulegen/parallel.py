"""Leftover imposed by the frozen benchmark: ``benchmarks/ledger/workloads.py``
(read-only for non-benchmark PRs) imports ``ShardedRuleGenerator`` from here and
calls it with ``min_support=, n_workers=1, seed=``. Sharding itself is deleted;
the benchmark PR that re-points that import deletes this file."""

from repro.rulegen.pipeline import RuleGenerator


def ShardedRuleGenerator(n_workers: int = 1, seed: int = 0, **rest) -> RuleGenerator:
    """``RuleGenerator(**rest)``; ``seed`` only ever seeded slice permutations."""
    if n_workers != 1:
        raise ValueError(f"sharded induction is gone: n_workers must be 1, got {n_workers}")
    return RuleGenerator(**rest)
