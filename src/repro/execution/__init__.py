"""Rule execution and optimization (sections 4 and 5.3).

"A major challenge therefore is to scale up the execution of tens of
thousands to hundreds of thousands of rules. A possible solution is to
index the rules so that given a particular data item, we can quickly locate
and execute only a (hopefully) small set of rules ... Another solution is
to execute the rules in parallel on a cluster of machines."

One engine, one match kernel, three modes, one reference (DESIGN.md §5):

* :class:`RuleSetCompiler` / :class:`CompiledRuleSet` — *the* engine: the
  whole rule set lowered once into one combined matcher (flattened
  Aho–Corasick tiers over a :class:`TokenAutomaton` plus precompiled
  verification closures), with a per-item compat lane
  (:class:`RuleIndex` probe + ``matches_prepared``) for unclean titles
  and rule classes the compiler does not know. An item is evaluated in
  one function whichever mode asked, traced or not: ``match_item`` is
  one call of it, ``execute`` a loop of them;
* :class:`IndexedExecutor` — **batch** mode: lower once, run every batch;
* :class:`PartitionedExecutor` — **sharded** mode: items dealt across
  simulated, in-process cluster workers sharing the batch mode's
  artifact;
* :class:`IncrementalExecutor` + :class:`MatchStore` — **delta** mode for
  the never-ending deployment (§2.2/§4): the fired map is a materialized
  view and only the changed rules/items are re-evaluated, with a
  :class:`DataIndex` answering "which rows could this rule touch?";
* :class:`NaiveExecutor` — the **reference**: every enabled rule against
  every item, no index, no lowering. Every mode's fired map is
  byte-identical to it; tests and benchmark oracles compare against it.

The sharded mode is fault tolerant (§2.2's ongoing-system requirements):
each shard tries each worker once, corrupt shard output is rejected by
driver-side validation, and a shard every worker failed is skipped — the
run degrades, with one :class:`FaultEvent` per failed attempt, instead of
raising. :mod:`repro.execution.parallel` owns that loop and its
deterministic fault injection (:class:`FaultPlan`).
"""

from repro.core.prepared import (
    PreparedItem,
    prepare,
    prepare_all,
)
from repro.execution.automaton import TokenAutomaton
from repro.execution.compiler import CompiledRuleSet, RuleSetCompiler
from repro.execution.data_index import DataIndex
from repro.execution.executor import ExecutionStats, IndexedExecutor, NaiveExecutor
from repro.execution.incremental import IncrementalExecutor, MatchStore
from repro.execution.parallel import (
    CorruptShardOutput,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PartitionedExecutor,
    PartitionedRunResult,
    validate_shard_output,
)
from repro.execution.rule_index import RuleIndex, rarest_anchor

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
    "IndexedExecutor",
    "MatchStore",
    "NaiveExecutor",
    "PartitionedExecutor",
    "PartitionedRunResult",
    "PreparedItem",
    "RuleIndex",
    "RuleSetCompiler",
    "TokenAutomaton",
    "prepare",
    "rarest_anchor",
    "prepare_all",
    "validate_shard_output",
]
