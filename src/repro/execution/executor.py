"""The execution ledger and the reference executor.

:class:`NaiveExecutor` is the executable definition of rule execution —
every enabled rule's ``matches_prepared`` against every item, no index,
no lowering, no tracing — and exists only for tests and oracles to
compare the compiled engine against
(:meth:`~repro.execution.compiler.CompiledRuleSet.execute`). Both return
the same (item -> fired rules) map, with sorted rule-id lists, so the
output is byte-identical and deterministic. Disabled rules never fire
(matching :class:`~repro.core.ruleset.RuleSet` semantics), and an item id
that repeats in a batch is decided by its last occurrence, as the delta
engine re-lists it.

:class:`ExecutionStats` is the ledger every mode fills: **rule
evaluations**, the machine-independent work counter the paper's scaling
argument is about, beside wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.prepared import ItemLike, prepare
from repro.core.rule import Rule


@dataclass
class ExecutionStats:
    """Work and time accounting for one execution run.

    A sharded run's resilience outcome (retries, skipped items) is not
    here: it lives on its
    :class:`~repro.execution.parallel.PartitionedRunResult`.

    The ``cache_*`` / ``invalidations`` / ``delta_*`` fields are the
    incremental-execution ledger (see
    :mod:`repro.execution.incremental`):

    * ``cache_hits`` / ``cache_misses`` — the fired-map memo only: a
      ``fired_map()`` read served from the last snapshot vs one that had
      to copy the view;
    * ``invalidations`` — stored ``(rule, item)`` match pairs discarded
      because a delta made them stale (rule removed/updated, item
      removed/re-listed);
    * ``delta_rules`` / ``delta_items`` — how many rules/items the delta
      path actually (re)evaluated, i.e. the size of the re-run that
      replaced a full ``rules × items`` pass.

    ``compile_time`` is the compiled-execution ledger (see
    :mod:`repro.execution.compiler`): time spent lowering the rule set
    into the combined matcher, beside the ``match_time`` its one loop
    takes. It is zero on :class:`NaiveExecutor` runs.

    **Additive vs. wall-clock fields.** Every counter above plus
    ``prepare_time`` / ``match_time`` is *additive*: it sums cleanly
    across shards and runs (the time fields are CPU-style totals — over a
    parallel run their sum can legitimately exceed elapsed time).
    ``wall_time`` is the one *non-additive* field: it is elapsed time as
    observed by whoever owns the run (the driver, for a partitioned run —
    failed attempts included), so :meth:`merge` leaves it alone.
    """

    items: int = 0
    rule_evaluations: int = 0
    matches: int = 0
    wall_time: float = 0.0
    prepare_time: float = 0.0
    match_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    invalidations: int = 0
    delta_rules: int = 0
    delta_items: int = 0
    compile_time: float = 0.0

    @property
    def evaluations_per_item(self) -> float:
        return self.rule_evaluations / self.items if self.items else 0.0

    @property
    def items_per_second(self) -> float:
        return self.items / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from memoized state."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another run's additive fields (work counters,
        ``prepare_time``, ``match_time``, ``compile_time``) into this one;
        ``wall_time`` stays the caller's."""
        self.items += other.items
        self.rule_evaluations += other.rule_evaluations
        self.matches += other.matches
        self.prepare_time += other.prepare_time
        self.match_time += other.match_time
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.invalidations += other.invalidations
        self.delta_rules += other.delta_rules
        self.delta_items += other.delta_items
        self.compile_time += other.compile_time


class NaiveExecutor:
    """Checks every enabled rule against every item: the reference."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)

    def run(
        self, items: Sequence[ItemLike]
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Returns (item_id -> sorted fired rule ids, stats)."""
        stats = ExecutionStats(items=len(items))
        fired: Dict[str, List[str]] = {}
        active = [rule for rule in self.rules if rule.enabled]
        started = time.perf_counter()
        prepared_items = [prepare(item).warm() for item in items]
        stats.prepare_time = time.perf_counter() - started
        for prepared in prepared_items:
            hits = [rule.rule_id for rule in active if rule.matches_prepared(prepared)]
            stats.rule_evaluations += len(active)
            stats.matches += len(hits)
            if hits:
                fired[prepared.item_id] = sorted(hits)
            else:
                fired.pop(prepared.item_id, None)
        stats.wall_time = time.perf_counter() - started
        stats.match_time = stats.wall_time - stats.prepare_time
        return fired, stats
