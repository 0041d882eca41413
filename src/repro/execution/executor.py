"""Measured rule executors: the naive reference and the compiled engine.

:class:`NaiveExecutor` is the executable definition of rule execution —
every enabled rule's ``matches_prepared`` against every item, no index,
no lowering — and exists for tests and oracles to compare against.
:class:`IndexedExecutor` is the batch mode of the one fast engine (the
compiled rule set of :mod:`repro.execution.compiler`). Both return the
same (item -> fired rules) result; the comparison tracks two costs:

* **rule evaluations** — the machine-independent work counter the paper's
  scaling argument is about;
* **wall-clock time**: ``prepare_time`` (tokenizing each item into a
  :class:`~repro.core.prepared.PreparedItem`, where that is a separate
  step) and ``match_time`` (the rule evaluations proper).

Fired rule-id lists are sorted, so all executors return byte-identical,
deterministic output. Disabled rules never fire (matching
:class:`~repro.core.ruleset.RuleSet` semantics).

Both executors support a degraded mode (``on_error="skip"``): an item whose
preparation or rule evaluation raises — a malformed record, a buggy UDF
clause — is dropped from the fired map and reported on the stats
(``skipped_items`` / ``skipped_item_ids``) instead of killing the run.
The default (``on_error="raise"``) preserves fail-fast semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Rule
from repro.observability import Observability, ensure_observability


_ON_ERROR_MODES = ("raise", "skip")

_MERGE_WALL_MODES = ("keep", "sum")


@dataclass
class ExecutionStats:
    """Work and time accounting for one execution run.

    ``retries`` and the ``skipped_*`` fields are the resilience ledger:
    how many shard re-dispatches the run cost, and which items were
    dropped under degraded mode (item-level skips or skipped shards).

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
    failed attempts included), so :meth:`merge` leaves it alone unless
    told how to combine it (see the ``wall`` parameter).
    """

    items: int = 0
    rule_evaluations: int = 0
    matches: int = 0
    wall_time: float = 0.0
    prepare_time: float = 0.0
    match_time: float = 0.0
    retries: int = 0
    skipped_items: int = 0
    skipped_item_ids: List[str] = field(default_factory=list)
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

    def merge(self, other: "ExecutionStats", wall: str = "keep") -> None:
        """Fold another run's counters into this one.

        All additive fields (work counters, ``prepare_time``,
        ``match_time``) are summed. ``wall_time`` is combined according to
        ``wall``:

        * ``"keep"`` (default) — untouched; the caller owns elapsed time.
          This is shard merging: the driver measures the run's wall clock
          itself, failed attempts included.
        * ``"sum"`` — serial composition: ``other`` ran after ``self``
          (the incremental executor's lifetime ledger).
        """
        if wall not in _MERGE_WALL_MODES:
            raise ValueError(f"wall must be one of {_MERGE_WALL_MODES}, got {wall!r}")
        self.items += other.items
        self.rule_evaluations += other.rule_evaluations
        self.matches += other.matches
        self.prepare_time += other.prepare_time
        self.match_time += other.match_time
        self.retries += other.retries
        self.skipped_items += other.skipped_items
        self.skipped_item_ids.extend(other.skipped_item_ids)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.invalidations += other.invalidations
        self.delta_rules += other.delta_rules
        self.delta_items += other.delta_items
        self.compile_time += other.compile_time
        if wall == "sum":
            self.wall_time += other.wall_time


def _checked_mode(on_error: str) -> str:
    if on_error not in _ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}")
    return on_error


def _guarded_prepare(
    items: Sequence[ItemLike], skip: bool, stats: ExecutionStats
) -> List[Optional[PreparedItem]]:
    """Prepare every item; under degraded mode a bad record becomes None."""
    prepared_items: List[Optional[PreparedItem]] = []
    for item in items:
        try:
            prepared_items.append(prepare(item).warm())
        except Exception:
            if not skip:
                raise
            stats.skipped_items += 1
            stats.skipped_item_ids.append(str(getattr(item, "item_id", "<unknown>")))
            prepared_items.append(None)
    return prepared_items


class NaiveExecutor:
    """Checks every (enabled) rule against every item.

    ``observability`` (a :class:`~repro.observability.Observability`)
    makes the run emit an ``exec.naive.run`` span with ``prepare`` /
    ``match`` children and feeds the metrics registry; ``clock`` is the
    monotonic clock backing the stats timing (default
    :func:`time.perf_counter` — tests inject a
    :class:`~repro.utils.clock.TickClock`). Neither changes results.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        on_error: str = "raise",
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.rules = list(rules)
        self.on_error = _checked_mode(on_error)
        self.observability = ensure_observability(observability)
        self._clock = clock if clock is not None else time.perf_counter

    def run(
        self, items: Sequence[ItemLike]
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Returns (item_id -> sorted fired rule ids, stats)."""
        stats = ExecutionStats()
        fired: Dict[str, List[str]] = {}
        active = [rule for rule in self.rules if rule.enabled]
        skip = self.on_error == "skip"
        obs = self.observability
        clock = self._clock
        with obs.span("exec.naive.run", rules=len(active), items=len(items)) as run_span:
            started = clock()
            with obs.span("prepare"):
                prepared_items = _guarded_prepare(items, skip, stats)
            stats.prepare_time = clock() - started
            with obs.span("match"):
                for prepared in prepared_items:
                    stats.items += 1
                    if prepared is None:  # dropped during prepare under degraded mode
                        continue
                    hits: List[str] = []
                    try:
                        for rule in active:
                            stats.rule_evaluations += 1
                            if rule.matches_prepared(prepared):
                                hits.append(rule.rule_id)
                    except Exception:
                        if not skip:
                            raise
                        stats.skipped_items += 1
                        stats.skipped_item_ids.append(prepared.item_id)
                        continue
                    if hits:
                        stats.matches += len(hits)
                        fired[prepared.item_id] = sorted(hits)
            stats.wall_time = clock() - started
            stats.match_time = max(0.0, stats.wall_time - stats.prepare_time)
            run_span.set_attribute("rule_evaluations", stats.rule_evaluations)
            run_span.set_attribute("matches", stats.matches)
        obs.observe_execution(stats, executor="naive")
        obs.observe_fired(fired)
        return fired, stats


class IndexedExecutor:
    """Batch mode of the compiled engine: lower once, run every batch.

    Results are identical to :class:`NaiveExecutor` (the anchors are
    sound); only the work differs. The rule set is lowered into a
    :class:`~repro.execution.compiler.CompiledRuleSet` on first use (span
    ``exec.compile``, cost on ``stats.compile_time``) and the artifact is
    reused across batches. It excludes disabled rules, so it is rebuilt
    when the set of disabled rules changes — flipping ``rule.enabled``
    between runs stays correct without a manual invalidation call, and
    only the current artifact is ever held. Tokenization is fused into
    matching: ``prepare_time`` stays 0 and its cost lands in
    ``match_time``.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        token_frequency: Optional[Dict[str, int]] = None,
        on_error: str = "raise",
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.rules = list(rules)
        self._token_frequency = dict(token_frequency or {})
        self.on_error = _checked_mode(on_error)
        self.observability = ensure_observability(observability)
        self._clock = clock if clock is not None else time.perf_counter
        self._artifact = None
        self._artifact_disabled: FrozenSet[str] = frozenset()

    def compiled_ruleset(self, stats: Optional[ExecutionStats] = None):
        """The compiled artifact for the current enabled-flag state.

        Compiles on first use (or after enabled-flag churn) under an
        ``exec.compile`` span; otherwise returns the held artifact.
        """
        from repro.execution.compiler import RuleSetCompiler

        disabled = frozenset(r.rule_id for r in self.rules if not r.enabled)
        if self._artifact is None or disabled != self._artifact_disabled:
            compiler = RuleSetCompiler(
                token_frequency=self._token_frequency,
                observability=self.observability,
            )
            self._artifact = compiler.compile(
                self.rules, stats=stats, clock=self._clock
            )
            self._artifact_disabled = disabled
        return self._artifact

    def run(
        self, items: Sequence[ItemLike]
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Returns (item_id -> sorted fired rule ids, stats)."""
        stats = ExecutionStats()
        obs = self.observability
        clock = self._clock
        with obs.span(
            "exec.indexed.run", rules=len(self.rules), items=len(items)
        ) as run_span:
            started = clock()
            artifact = self.compiled_ruleset(stats=stats)
            fired, stats = artifact.execute(
                items, on_error=self.on_error, clock=clock, stats=stats
            )
            stats.wall_time = clock() - started
            run_span.set_attribute("rule_evaluations", stats.rule_evaluations)
            run_span.set_attribute("matches", stats.matches)
        obs.observe_execution(stats, executor="indexed")
        obs.observe_fired(fired)
        return fired, stats
