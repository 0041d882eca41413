"""Rule execution and optimization (sections 4 and 5.3).

"A major challenge therefore is to scale up the execution of tens of
thousands to hundreds of thousands of rules. A possible solution is to
index the rules so that given a particular data item, we can quickly locate
and execute only a (hopefully) small set of rules ... Another solution is
to execute the rules in parallel on a cluster of machines."

One engine, one match kernel, two execution modes over it, one reference
(DESIGN.md §5):

* :class:`CompiledRuleSet` — *the* engine: ``CompiledRuleSet(rules)``
  lowers exactly the rules it is handed (the caller decides ``enabled``)
  into one combined matcher (a token table for words, precompiled
  verification closures for the rest); a title the kernel cannot tokenize
  probes the same lanes and checks each candidate with
  ``matches_prepared``. An item is evaluated in one function whichever
  mode asked: ``match_item`` is one call of it, and **batch** execution,
  ``CompiledRuleSet(enabled_rules).execute(items)``, a loop of them;
* :class:`PartitionedExecutor` — **sharded** mode: items dealt across
  simulated, in-process cluster workers sharing one artifact a run;
* :class:`IncrementalExecutor` + :class:`MatchStore` — **delta** mode for
  the never-ending deployment (§2.2/§4): the fired map is a materialized
  view and only the changed rules/items are re-evaluated, with a
  :class:`DataIndex` answering "which rows could this rule touch?";
* :class:`NaiveExecutor` — the **reference**: every enabled rule against
  every item, no index, no lowering, no tracing. Every mode's fired map is
  byte-identical to it; only tests and benchmark oracles call it.

The sharded mode is fault tolerant (§2.2's ongoing-system requirements):
each shard tries each worker once, corrupt shard output is rejected by
driver-side validation, and a shard every worker failed is skipped — the
run degrades, with one :class:`FaultEvent` per failed attempt, instead of
raising. :mod:`repro.execution.parallel` owns that loop and its
deterministic fault injection (:class:`FaultPlan`).
"""

from repro import lazy_exports
from repro.core.prepared import (
    PreparedItem,
    prepare,
    prepare_all,
)
from repro.execution.compiler import CompiledRuleSet, rarest_anchor
from repro.execution.data_index import DataIndex
from repro.execution.executor import ExecutionStats, NaiveExecutor
from repro.execution.incremental import IncrementalExecutor, MatchStore

# Read on first access (:func:`repro.lazy_exports`): a served daemon never
# reads these names, so it never compiles their modules.
__getattr__ = lazy_exports(__name__, {
    "parallel": (
        "CorruptShardOutput",
        "FaultEvent",
        "FaultKind",
        "FaultPlan",
        "FaultSpec",
        "PartitionedExecutor",
        "PartitionedRunResult",
        "validate_shard_output",
    ),
})

__all__ = [
    "CompiledRuleSet",
    "CorruptShardOutput",
    "DataIndex",
    "ExecutionStats",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "IncrementalExecutor",
    "MatchStore",
    "NaiveExecutor",
    "PartitionedExecutor",
    "PartitionedRunResult",
    "PreparedItem",
    "prepare",
    "rarest_anchor",
    "prepare_all",
    "validate_shard_output",
]
