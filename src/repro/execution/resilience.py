"""Fault tolerance primitives for partitioned rule execution.

Section 2.2's "Ongoing System Requirements" demand a classification service
that never stops: batches keep arriving while parts of the cluster crash,
hang, or return garbage. This module holds the driver-side vocabulary for
that failure model:

* :class:`WorkerCrash` / :class:`WorkerHang` / :class:`CorruptShardOutput`
  — the three observable shard failure modes (the fault taxonomy);
* :class:`RetryPolicy` — exponential backoff with bounded, seeded jitter;
* :func:`validate_shard_output` — the driver's defense against corrupt
  payloads coming back from a worker;
* :class:`FaultEvent` — one observed failure and what the driver did about
  it (retry or skip), so degraded runs are auditable;
* :class:`DegradedRunError` — raised only on request (degraded results are
  *returned*, never thrown, by the executor itself).

Everything here is deterministic: delays come from an injected
``random.Random`` and are executed through an injectable sleep callable, so
tests exercise every retry path without real waiting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Sequence


class ShardFailure(Exception):
    """Base class for per-shard execution failures the driver can retry."""


class WorkerCrash(ShardFailure):
    """The worker raised (or was killed by a fault plan) mid-shard."""


class WorkerHang(ShardFailure):
    """A straggler, as a driver's timeout would report it (injected only)."""


class CorruptShardOutput(ShardFailure):
    """The worker returned a payload that failed driver-side validation."""


class DegradedRunError(RuntimeError):
    """Raised by :meth:`PartitionedRunResult.require_complete` on skips."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap and multiplicative jitter.

    ``backoff_delay(attempt, rng)`` returns
    ``min(base_delay * multiplier**attempt, max_delay)`` scaled by a random
    jitter factor in ``[1, 1 + jitter]`` drawn from the supplied RNG — the
    standard decorrelation trick so retrying shards do not stampede the
    pool in lockstep.

    >>> policy = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.0)
    >>> [policy.backoff_delay(a, random.Random(0)) for a in range(3)]
    [0.1, 0.2, 0.4]
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before re-dispatching after failed attempt ``attempt``."""
        capped = min(self.base_delay * (self.multiplier ** attempt), self.max_delay)
        if self.jitter <= 0 or capped <= 0:
            return capped
        return capped * (1.0 + self.jitter * rng.random())

    @classmethod
    def immediate(cls, max_attempts: int = 3) -> "RetryPolicy":
        """A zero-delay policy for tests and in-process simulation."""
        return cls(max_attempts=max_attempts, base_delay=0.0, jitter=0.0)


@dataclass(frozen=True)
class FaultEvent:
    """One shard failure observed by the driver and its disposition."""

    shard_id: int
    worker_id: int
    attempt: int
    kind: str  # "crash" | "hang" | "corrupt"
    action: str  # "retry" | "skip"
    error: str = ""
    backoff: float = 0.0


def _fail(reason: str) -> None:
    raise CorruptShardOutput(reason)


def validate_shard_output(
    fired: Any,
    stats: Any,
    expected_item_ids: Sequence[str],
    known_rule_ids: FrozenSet[str],
) -> Dict[str, List[str]]:
    """Check a shard's fired map against what the driver knows it sent.

    A worker that is compromised, version-skewed, or memory-corrupted can
    return *anything*; merging unchecked output would silently poison the
    whole run. The checks mirror the executor output contract: a dict of
    known item ids to sorted, non-empty lists of known rule ids.

    Returns the (validated) fired map; raises :class:`CorruptShardOutput`
    on any violation.
    """
    from repro.execution.executor import ExecutionStats

    if not isinstance(fired, dict):
        _fail(f"fired map is {type(fired).__name__}, expected dict")
    expected = set(expected_item_ids)
    for item_id, rule_ids in fired.items():
        if not isinstance(item_id, str) or item_id not in expected:
            _fail(f"fired map names unknown item {item_id!r}")
        if not isinstance(rule_ids, (list, tuple)) or not rule_ids:
            _fail(f"fired[{item_id!r}] is not a non-empty list")
        for rule_id in rule_ids:
            if not isinstance(rule_id, str) or rule_id not in known_rule_ids:
                _fail(f"fired[{item_id!r}] names unknown rule {rule_id!r}")
        if list(rule_ids) != sorted(rule_ids):
            _fail(f"fired[{item_id!r}] is not sorted")
    if not isinstance(stats, ExecutionStats):
        _fail(f"stats is {type(stats).__name__}, expected ExecutionStats")
    # Compare against the payload count, not the id set: a batch may
    # legitimately contain duplicate item ids.
    if stats.items != len(expected_item_ids):
        _fail(f"stats.items={stats.items} but shard had {len(expected_item_ids)} items")
    return {item_id: list(rule_ids) for item_id, rule_ids in fired.items()}
