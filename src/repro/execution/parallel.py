"""Sharded ("cluster") rule execution and the fault model it runs under.

Section 4 suggests executing rules "in parallel on a cluster of machines
(e.g., using Hadoop)", and §2.2 asks that such a system keep running and
degrade gracefully. The cluster is simulated in-process: what this mode
models is the cluster's *failure* behaviour, not its throughput (DESIGN.md
§5 has the measurement). :class:`PartitionedExecutor` is one loop over a
compiled artifact:

* the enabled rules are lowered once a run into one
  :class:`~repro.execution.compiler.CompiledRuleSet` (so ``rule.enabled``
  flips are followed and every rule class runs);
* items are dealt ``items[s::n_workers]`` into one shard per worker, and
  the shard holding an id's last occurrence owns that id, so a repeated
  id gets the row a sequential pass gives it;
* shard ``s`` tries worker ``(s + a) % n_workers`` for attempt
  ``a = 0 .. n_workers - 1`` — each worker once — and is skipped only
  when every worker failed it;
* an attempt is one ``CompiledRuleSet.execute`` call. A raised exception
  is a crash; output must pass :func:`validate_shard_output` before it is
  merged; every failed attempt is a :class:`FaultEvent`.

Faults are injected through a :class:`FaultPlan`, consulted at each
(worker, shard, attempt): a crash or hang never runs the shard (a hang
stands for what a driver's timeout would report), and a corruption runs it
and then mangles the output, which validation rejects. No test sleeps.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.prepared import ItemLike
from repro.core.rule import Rule
from repro.execution.compiler import CompiledRuleSet
from repro.execution.executor import ExecutionStats
from repro.observability import Observability, ensure_observability

Coord = Optional[int]  # a fault coordinate; None is the wildcard


class FaultKind(enum.Enum):
    """The three failure modes of the §2.2 failure model."""

    CRASH = "crash"
    HANG = "hang"
    CORRUPT = "corrupt"


class ShardFailure(Exception):
    """A failed shard attempt, classified by ``kind``."""

    def __init__(self, kind: FaultKind, message: str):
        super().__init__(message)
        self.kind = kind


class CorruptShardOutput(ShardFailure):
    """A shard's output failed driver-side validation."""

    def __init__(self, message: str):
        super().__init__(FaultKind.CORRUPT, message)


@dataclass(frozen=True)
class FaultEvent:
    """One failed shard attempt and what the driver did next."""

    shard_id: int
    worker_id: int
    attempt: int
    kind: str  # "crash" | "hang" | "corrupt"
    action: str  # "retry" | "skip"
    error: str = ""


def validate_shard_output(
    fired: Any,
    stats: Any,
    expected_item_ids: Sequence[str],
    known_rule_ids: FrozenSet[str],
) -> Dict[str, List[str]]:
    """Check a shard's fired map against what the driver knows it sent.

    A compromised, version-skewed or memory-corrupted worker can return
    *anything*; merging unchecked output would silently poison the whole
    run. The checks mirror the executor output contract: a dict of known
    item ids to sorted, non-empty lists of known rule ids, with stats that
    count the items the shard was sent.

    Returns the (validated) fired map; raises :class:`CorruptShardOutput`
    on any violation.
    """
    if not isinstance(fired, dict):
        raise CorruptShardOutput(f"fired map is {type(fired).__name__}, expected dict")
    expected = set(expected_item_ids)
    for item_id, rule_ids in fired.items():
        if not isinstance(item_id, str) or item_id not in expected:
            raise CorruptShardOutput(f"fired map names unknown item {item_id!r}")
        if not isinstance(rule_ids, (list, tuple)) or not rule_ids:
            raise CorruptShardOutput(f"fired[{item_id!r}] is not a non-empty list")
        for rule_id in rule_ids:
            if not isinstance(rule_id, str) or rule_id not in known_rule_ids:
                raise CorruptShardOutput(f"fired[{item_id!r}] names unknown rule {rule_id!r}")
        if list(rule_ids) != sorted(rule_ids):
            raise CorruptShardOutput(f"fired[{item_id!r}] is not sorted")
    if not isinstance(stats, ExecutionStats):
        raise CorruptShardOutput(f"stats is {type(stats).__name__}, expected ExecutionStats")
    # Compare against the payload count, not the id set: a batch may
    # legitimately contain duplicate item ids.
    if stats.items != len(expected_item_ids):
        raise CorruptShardOutput(
            f"stats.items={stats.items} but shard had {len(expected_item_ids)} items"
        )
    return {item_id: list(rule_ids) for item_id, rule_ids in fired.items()}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault. ``None`` coordinates are wildcards.

    ``detail`` selects the corruption style for CORRUPT faults:
    ``alien-item`` (default) adds a fired entry for an item the shard never
    held, ``alien-rule`` fires a rule id the driver never shipped,
    ``unsorted`` breaks the sorted-output contract, ``garbage`` replaces
    the fired map wholesale, and ``bad-stats`` mangles the stats object.
    Each style breaks a check of :func:`validate_shard_output`, so a
    triggered fault is always a failed attempt.
    """

    kind: FaultKind
    worker: Coord = None
    shard: Coord = None
    attempt: Coord = None
    detail: str = ""

    def applies_to(self, worker: int, shard: int, attempt: int) -> bool:
        return (
            (self.worker is None or self.worker == worker)
            and (self.shard is None or self.shard == shard)
            and (self.attempt is None or self.attempt == attempt)
        )

    def corrupt(self, fired: Dict[str, List[str]], stats: ExecutionStats) -> Tuple[Any, Any]:
        """Deterministically mangle a shard's ``(fired, stats)``."""
        style = self.detail or "alien-item"
        if style == "alien-item":
            fired = {**fired, "__not-in-this-shard__": ["rule-000000"]}
        elif style == "alien-rule":
            fired = {**fired, "__not-in-this-shard__": ["__never-shipped-rule__"]}
        elif style == "unsorted":
            fired = {**fired, "__not-in-this-shard__": ["zz-rule", "aa-rule"]}
        elif style == "garbage":
            fired = "\x00corrupted frame"
        elif style == "bad-stats":
            stats = ExecutionStats(items=-1)
        else:
            raise ValueError(f"unknown corruption detail {style!r}")
        return fired, stats


class FaultPlan:
    """An ordered fault schedule consulted by :class:`PartitionedExecutor`.

    The first matching spec wins, so plans read top-down like a playbook.
    Builders return ``self`` for chaining::

        plan = FaultPlan().crash(worker=1).corrupt(worker=2, attempt=0)

    ``triggered`` logs the :class:`FaultEvent` of every attempt a spec
    failed, across every run the plan is handed to.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self.specs: List[FaultSpec] = list(specs)
        self.triggered: List[FaultEvent] = []

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def crash(self, worker: Coord = None, shard: Coord = None,
              attempt: Coord = None) -> "FaultPlan":
        return self.add(FaultSpec(FaultKind.CRASH, worker, shard, attempt))

    def hang(self, worker: Coord = None, shard: Coord = None,
             attempt: Coord = None) -> "FaultPlan":
        return self.add(FaultSpec(FaultKind.HANG, worker, shard, attempt))

    def corrupt(self, worker: Coord = None, shard: Coord = None,
                attempt: Coord = None, detail: str = "") -> "FaultPlan":
        return self.add(FaultSpec(FaultKind.CORRUPT, worker, shard, attempt, detail))

    def fault_for(self, worker: int, shard: int, attempt: int) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.applies_to(worker, shard, attempt):
                return spec
        return None

    @classmethod
    def random_plan(
        cls,
        seed: int,
        n_workers: int,
        rate: float = 0.3,
        max_faulted_attempts: int = 2,
        kinds: Sequence[FaultKind] = (FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT),
        spare_workers: int = 1,
    ) -> "FaultPlan":
        """A reproducible random plan that always leaves healthy capacity.

        Workers ``0..spare_workers-1`` are never faulted, and every shard
        tries every worker, so with ``spare_workers >= 1`` every run
        completes — which is what the CI chaos job asserts under an
        arbitrary logged seed.
        """
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if spare_workers < 0 or spare_workers > n_workers:
            raise ValueError("spare_workers must be in [0, n_workers]")
        rng = random.Random(seed)
        plan = cls()
        details = ("alien-item", "alien-rule", "unsorted", "garbage", "bad-stats")
        for worker in range(spare_workers, n_workers):
            for attempt in range(max_faulted_attempts):
                if rng.random() >= rate:
                    continue
                kind = rng.choice(tuple(kinds))
                detail = rng.choice(details) if kind is FaultKind.CORRUPT else ""
                plan.add(FaultSpec(kind, worker=worker, attempt=attempt, detail=detail))
        return plan

    def describe(self) -> str:
        if not self.specs:
            return "fault plan: (healthy)"
        lines = ["fault plan:"]
        for spec in self.specs:
            coords = ", ".join(
                f"{label}={'*' if value is None else value}"
                for label, value in (
                    ("worker", spec.worker),
                    ("shard", spec.shard),
                    ("attempt", spec.attempt),
                )
            )
            suffix = f" [{spec.detail}]" if spec.detail else ""
            lines.append(f"  {spec.kind.value} @ {coords}{suffix}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class PartitionedRunResult:
    """A possibly-degraded partitioned run: results plus an honest account.

    The degraded-mode contract: ``fired`` holds exactly the output of every
    shard some worker completed for the ids it owns, ``stats.skipped_item_ids``
    names every id owned by a shard every worker failed, and ``fault_events`` records each
    failed attempt and the driver's response. ``stats.retries`` counts the
    ``retry`` events. ``shard_evaluations[s]`` is shard ``s``'s accepted
    rule evaluations (0 when skipped): the simulated parallel makespan is
    its maximum.
    """

    fired: Dict[str, List[str]]
    stats: ExecutionStats
    fault_events: List[FaultEvent] = field(default_factory=list)
    shard_evaluations: List[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return any(event.action == "skip" for event in self.fault_events)


class PartitionedExecutor:
    """Sharded mode of the compiled engine: items dealt over N workers.

    Timing: ``stats.compile_time`` is the lowering (paid once a run, in
    an ``exec.compile`` span),
    ``stats.match_time``
    sums the *accepted* attempts only, so a failed attempt's work is never
    counted, and ``stats.wall_time`` is the driver's elapsed time for the
    whole run, failed attempts included.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        n_workers: int = 4,
        token_frequency: Optional[Dict[str, int]] = None,
        fault_plan: Optional[FaultPlan] = None,
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.rules = list(rules)
        self.n_workers = n_workers
        self.fault_plan = fault_plan
        self.observability = ensure_observability(observability)
        self._clock = clock if clock is not None else time.perf_counter
        self.token_frequency = token_frequency

    def _attempt(
        self,
        artifact: CompiledRuleSet,
        chunk: Sequence[ItemLike],
        item_ids: List[str],
        known: FrozenSet[str],
        spec: Optional[FaultSpec],
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """One shard attempt: its validated ``(fired, stats)``, or a raise."""
        if spec is not None and spec.kind is not FaultKind.CORRUPT:
            raise ShardFailure(spec.kind, f"injected {spec.kind.value}")
        fired, stats = artifact.execute(chunk, clock=self._clock)
        if spec is not None:
            fired, stats = spec.corrupt(fired, stats)
        return validate_shard_output(fired, stats, item_ids, known), stats

    def run(self, items: Sequence[ItemLike]) -> PartitionedRunResult:
        """Execute every shard; degrade (never raise) on faults."""
        obs, clock, plan, n = self.observability, self._clock, self.fault_plan, self.n_workers
        result = PartitionedRunResult({}, ExecutionStats(), shard_evaluations=[0] * n)
        total = result.stats
        with obs.span("exec.partitioned.run", workers=n, items=len(items)) as run_span:
            started = clock()
            rules = [rule for rule in self.rules if rule.enabled]
            with obs.span("exec.compile", rules=len(rules)):
                lowering = clock()
                artifact = CompiledRuleSet(rules, self.token_frequency)
                total.compile_time += clock() - lowering
            known = frozenset(rule.rule_id for rule in rules)
            # The shard holding an id's last occurrence owns the id.
            owned: List[List[str]] = [[] for _ in range(n)]
            for item_id, last in {item.item_id: i for i, item in enumerate(items)}.items():
                owned[last % n].append(item_id)
            for shard in range(n):
                chunk = items[shard::n]
                item_ids = [item.item_id for item in chunk]
                for attempt in range(n):
                    worker = (shard + attempt) % n
                    spec = plan.fault_for(worker, shard, attempt) if plan is not None else None
                    try:
                        fired, stats = self._attempt(artifact, chunk, item_ids, known, spec)
                    except Exception as exc:
                        kind = exc.kind if isinstance(exc, ShardFailure) else FaultKind.CRASH
                        action = "retry" if attempt + 1 < n else "skip"
                        event = FaultEvent(shard, worker, attempt, kind.value, action, repr(exc))
                        result.fault_events.append(event)
                        if spec is not None:
                            plan.triggered.append(event)
                        continue
                    result.fired.update(
                        (item_id, fired[item_id]) for item_id in owned[shard] if item_id in fired
                    )
                    total.merge(stats)
                    result.shard_evaluations[shard] = stats.rule_evaluations
                    break
                else:  # every worker failed this shard
                    total.skipped_items += len(owned[shard])
                    total.skipped_item_ids.extend(owned[shard])
            total.retries = sum(1 for event in result.fault_events if event.action == "retry")
            total.wall_time = clock() - started
            run_span.set_attribute("rule_evaluations", total.rule_evaluations)
            run_span.set_attribute("matches", total.matches)
            run_span.set_attribute("retries", total.retries)
            run_span.set_attribute("skipped_items", total.skipped_items)
        obs.observe_execution(total, executor="partitioned")
        obs.observe_fired(result.fired)
        if obs.enabled:
            for event in result.fault_events:
                obs.metrics.counter(
                    "exec_fault_events_total", kind=event.kind, action=event.action
                ).inc()
            obs.metrics.counter("exec_shards_skipped_total").inc(
                sum(1 for event in result.fault_events if event.action == "skip")
            )
        return result
