"""Ongoing quality monitoring (section 2.2, "Ongoing System Requirements").

"Since the incoming data is ever changing, at certain times Chimera's
accuracy may suddenly degrade ... So we need a way to detect such quality
problems quickly." The monitor tracks per-batch precision estimates and
per-type error counts and raises degradation flags the IncidentManager
acts on.

Besides *quality* degradation, a deployed pipeline must survive *component*
failure: a classifier stage whose predict() starts throwing (bad model
artifact, poisoned dictionary, resource exhaustion) must be routed around,
not allowed to take down classification of every item. That is the job of:

* :class:`CircuitBreaker` — a deterministic, call-counted breaker
  (CLOSED → OPEN after ``failure_threshold`` consecutive failures; OPEN
  swallows ``cooldown`` calls, then HALF_OPEN lets one probe through;
  probe success re-closes, probe failure re-opens). No wall-clock time is
  involved, so tests replay transitions exactly;
* :class:`StageHealthMonitor` — per-stage breakers (which count each
  stage's successes and failures) plus routed-around counters and a
  bounded audit trail, with ``on_breaker_open`` callbacks the
  :class:`~repro.chimera.incidents.IncidentManager` subscribes to;
* :class:`GuardedStage` — the wrapper the pipeline threads its stages
  through, a batch at a time: catches stage exceptions, feeds the monitor,
  and answers no-votes while the breaker is open (the voting master simply
  sees an abstaining stage, which is Chimera's standard degrade path).
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.chimera.classifiers import StageAnswer
from repro.observability.tracer import NULL_TRACER

#: How many of the latest entries each audit trail keeps (a breaker's
#: ``transitions``, a monitor's ``faults`` and ``events``): a stage that
#: keeps failing for weeks must not grow them without bound. The counts
#: (``total_*``, ``times_opened``) stay exact.
AUDIT_TRAIL = 256


@dataclass(frozen=True)
class BatchStats:
    """Quality snapshot for one processed batch."""

    batch_id: str
    at: float
    estimated_precision: float
    coverage: float
    n_items: int
    error_types: Tuple[Tuple[str, int], ...] = ()


class PrecisionMonitor:
    """Sliding-window precision watchdog.

    ``history`` is retention-bounded: a never-ending deployment records a
    batch every few minutes for weeks, so an unbounded list is a slow
    leak. When more than ``retention`` batches have been recorded the
    oldest is dropped — after being handed to ``on_evict`` (the rotation
    hook: point it at a JSON-lines spool, a downsampler, whatever the
    deployment archives with). ``retention=None`` restores the unbounded
    behaviour.
    """

    #: Default history bound: generous for tests/benchmarks, finite for
    #: week-long runs (window-based queries never look further back).
    DEFAULT_RETENTION = 4096

    def __init__(
        self,
        floor: float = 0.92,
        window: int = 5,
        retention: Optional[int] = DEFAULT_RETENTION,
        on_evict: Optional[Callable[[BatchStats], None]] = None,
    ):
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {floor}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if retention is not None and retention < window:
            raise ValueError(
                f"retention must be >= window ({window}), got {retention}"
            )
        self.floor = floor
        self.window = window
        self.retention = retention
        self.on_evict = on_evict
        self.history: List[BatchStats] = []
        self.evicted_batches = 0
        self._recent: Deque[BatchStats] = deque(maxlen=window)

    def record(
        self,
        batch_id: str,
        at: float,
        estimated_precision: float,
        coverage: float,
        n_items: int,
        errors_by_type: Optional[Dict[str, int]] = None,
    ) -> BatchStats:
        stats = BatchStats(
            batch_id=batch_id,
            at=at,
            estimated_precision=estimated_precision,
            coverage=coverage,
            n_items=n_items,
            error_types=tuple(sorted((errors_by_type or {}).items())),
        )
        self.history.append(stats)
        self._recent.append(stats)
        if self.retention is not None:
            while len(self.history) > self.retention:
                evicted = self.history.pop(0)
                self.evicted_batches += 1
                if self.on_evict is not None:
                    self.on_evict(evicted)
        return stats

    @property
    def latest(self) -> Optional[BatchStats]:
        return self.history[-1] if self.history else None

    def degraded(self) -> bool:
        """True when the latest batch fell below the floor."""
        latest = self.latest
        return latest is not None and latest.estimated_precision < self.floor

    def persistent_degradation(self, batches: int = 2) -> bool:
        """True when the last ``batches`` batches were all below the floor."""
        if len(self._recent) < batches:
            return False
        tail = list(self._recent)[-batches:]
        return all(stats.estimated_precision < self.floor for stats in tail)

    def suspect_types(self, top: int = 3) -> List[Tuple[str, int]]:
        """Most error-prone predicted types over the window.

        These are the candidates for scale-down: the "bad parts" of the
        currently deployed system.
        """
        counts: Counter = Counter()
        for stats in self._recent:
            for type_name, errors in stats.error_types:
                counts[type_name] += errors
        return counts.most_common(top)

    def precision_series(self) -> List[Tuple[str, float]]:
        return [(s.batch_id, s.estimated_precision) for s in self.history]

    def coverage_series(self) -> List[Tuple[str, float]]:
        return [(s.batch_id, s.coverage) for s in self.history]


class BreakerState(enum.Enum):
    CLOSED = "closed"        # healthy: calls flow through
    OPEN = "open"            # tripped: calls are routed around
    HALF_OPEN = "half-open"  # probing: one call is let through


class CircuitBreaker:
    """A deterministic, call-counted circuit breaker.

    Production breakers usually open for a wall-clock interval; here the
    OPEN state instead swallows a fixed number of ``allow()`` calls
    (``cooldown``) before letting a probe through, which makes every
    transition reproducible in tests and under the simulation clock.
    ``transitions`` keeps the last :data:`AUDIT_TRAIL` state changes.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: int = 8,
        name: str = "",
        on_move: Optional[Callable[[str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.total_failures = 0
        self.total_successes = 0
        self.times_opened = 0
        self._cooldown_remaining = 0
        self.transitions: Deque[Tuple[str, str]] = deque(maxlen=AUDIT_TRAIL)
        # Called with ``name`` after every state change.
        self.on_move = on_move

    def _move(self, state: BreakerState) -> None:
        self.transitions.append((self.state.value, state.value))
        self.state = state
        if self.on_move is not None:
            self.on_move(self.name)

    def allow(self) -> bool:
        """May the next call go through? (OPEN swallows and counts down.)"""
        if self.state is BreakerState.OPEN:
            self._cooldown_remaining -= 1
            if self._cooldown_remaining > 0:
                return False
            self._move(BreakerState.HALF_OPEN)
            return True  # the probe call
        return True

    def record_success(self, calls: int = 1) -> None:
        self.total_successes += calls
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._move(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.total_failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._move(BreakerState.OPEN)
            self._cooldown_remaining = self.cooldown
            self.times_opened += 1

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.name or 'anon'} {self.state.value} "
            f"fails={self.consecutive_failures}/{self.failure_threshold}>"
        )


@dataclass(frozen=True)
class StageFault:
    """One recorded stage failure (the error is stringified for audit)."""

    stage: str
    error: str


class StageHealthMonitor:
    """Per-stage circuit breakers, counters, and an auditable event log.

    Each stage's successes and failures are counted by its breaker;
    ``faults`` and ``events`` keep the last :data:`AUDIT_TRAIL` entries.
    ``on_breaker_open`` callbacks fire exactly once per OPEN transition
    with the stage name — the incident manager uses this to open a
    stage-failure incident automatically.
    """

    #: Gauge encoding of breaker states (``stage_breaker_state{stage=}``).
    BREAKER_STATE_CODES = {
        BreakerState.CLOSED: 0,
        BreakerState.HALF_OPEN: 1,
        BreakerState.OPEN: 2,
    }

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: int = 8,
        metrics=None,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.routed_around: Counter = Counter()
        self.faults: Deque[StageFault] = deque(maxlen=AUDIT_TRAIL)
        self.events: Deque[Tuple[str, str]] = deque(maxlen=AUDIT_TRAIL)  # (stage, event)
        self.on_breaker_open: List[Callable[[str], None]] = []
        # Optional MetricsRegistry; when set, every health event is mirrored
        # as stage_{success,failure,routed_around}_total counters, and the
        # stage_breaker_state gauge (0=closed, 1=half-open, 2=open) is set
        # when a breaker is created and on each of its state changes.
        self.metrics = metrics

    def _publish_state(self, stage_name: str) -> None:
        if self.metrics is not None:
            self.metrics.gauge("stage_breaker_state", stage=stage_name).set(
                self.BREAKER_STATE_CODES[self.breaker(stage_name).state]
            )

    def breaker(self, stage_name: str) -> CircuitBreaker:
        if stage_name not in self._breakers:
            self._breakers[stage_name] = CircuitBreaker(
                self.failure_threshold, self.cooldown, stage_name, self._publish_state
            )
            self._publish_state(stage_name)
        return self._breakers[stage_name]

    def allow(self, stage_name: str) -> bool:
        allowed = self.breaker(stage_name).allow()
        if not allowed:
            self.routed_around[stage_name] += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "stage_routed_around_total", stage=stage_name
                ).inc()
        return allowed

    def record_success(self, stage_name: str, calls: int = 1) -> None:
        """Book ``calls`` allowed-and-returned calls (a batch books its
        items in bulk: two per item, the votes and the constraints)."""
        self.breaker(stage_name).record_success(calls)
        if self.metrics is not None:
            self.metrics.counter("stage_success_total", stage=stage_name).inc(calls)

    def record_failure(self, stage_name: str, error: Exception) -> None:
        self.faults.append(StageFault(stage_name, repr(error)))
        breaker = self.breaker(stage_name)
        was_open = breaker.state is BreakerState.OPEN
        breaker.record_failure()
        if self.metrics is not None:
            self.metrics.counter("stage_failure_total", stage=stage_name).inc()
        if breaker.state is BreakerState.OPEN and not was_open:
            self.events.append((stage_name, "breaker-open"))
            for callback in self.on_breaker_open:
                callback(stage_name)

    def degraded_stages(self) -> List[str]:
        """Stages currently routed around (breaker not CLOSED)."""
        return sorted(
            name
            for name, breaker in self._breakers.items()
            if breaker.state is not BreakerState.CLOSED
        )

    def report(self) -> Dict[str, Dict[str, object]]:
        """Per-stage health summary for dashboards/tests."""
        return {
            name: {
                "state": breaker.state.value,
                "successes": breaker.total_successes,
                "failures": breaker.total_failures,
                "routed_around": self.routed_around[name],
                "times_opened": breaker.times_opened,
            }
            for name, breaker in sorted(self._breakers.items())
        }


class GuardedStage:
    """Guards a :class:`~repro.chimera.classifiers.ClassifierStage` a batch
    at a time, so the pipeline keeps classifying when the stage misbehaves.

    While the stage's breaker is CLOSED the whole batch is one call, booked
    in bulk but item-denominated: two successes per item (its votes and its
    constraints), exactly what answering item by item books. When the
    breaker is not CLOSED, or the batch call raises, the batch is answered
    item by item under the per-call guard instead — an exception costs only
    that item's votes (and feeds the monitor), and an open breaker skips
    the stage until its cooldown, counted in calls, elapses.
    ``name``/``enabled`` delegate to the wrapped stage, so operator actions
    on the underlying object (disabling, retraining) stay visible.
    """

    def __init__(self, stage, health: StageHealthMonitor, tracer=NULL_TRACER):
        self.stage = stage
        self.health = health
        # Each guarded batch is one "stage.<name>" span with items= and
        # outcome= (ok, or per-item when the batch was answered one by one).
        self.tracer = tracer

    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def enabled(self) -> bool:
        return self.stage.enabled

    def answer_batch(self, items: Sequence, traced: bool = False, hits=None) -> List[StageAnswer]:
        """Every item's answer, with provenance traces when ``traced``
        (``hits``: each item's, for the stage)."""
        name = self.stage.name
        with self.tracer.span(f"stage.{name}", items=len(items)) as span:
            if self.health.breaker(name).state is BreakerState.CLOSED:
                try:
                    answers = self.stage.answer_batch(items, traced, hits)
                except Exception as exc:
                    # Not booked here: the per-item guard below finds the
                    # offending items and books each on its own.
                    span.set_attribute("batch_error", type(exc).__name__)
                else:
                    self.health.record_success(name, 2 * len(items))
                    span.set_attribute("outcome", "ok")
                    return answers
            span.set_attribute("outcome", "per-item")
            per_item = repeat(None) if hits is None else hits
            return [self._answer(item, traced, h) for item, h in zip(items, per_item)]

    def _answer(self, item, traced: bool, hits) -> StageAnswer:
        """One item, two guarded calls: its answer, then its constraints
        (which a returned answer already holds)."""
        answer = self._call(lambda: self.stage.answer(item, traced, hits))
        if answer is not None:
            self.health.record_success(self.stage.name)  # the constraints call
            return answer
        allowed = self._call(lambda: self.stage.constraints(item, hits))
        return StageAnswer(self.stage, [], allowed)

    def _call(self, method: Callable):
        """``method()``, or None when routed around or raising."""
        name = self.stage.name
        if not self.health.allow(name):
            return None
        try:
            result = method()
        except Exception as exc:
            self.health.record_failure(name, exc)
            return None
        self.health.record_success(name)
        return result
