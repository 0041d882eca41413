"""The durable streaming daemon.

:class:`StreamService` is the paper's §2.2 "never ending" deployment made
restartable: it follows a :class:`~repro.catalog.batches.BatchStream`
continuously through the Chimera pipeline on the
:class:`~repro.execution.incremental.IncrementalExecutor`. Kill the
process at any instant (SIGKILL, power cut, torn write) and a resumed
instance continues **byte-identical** to an uninterrupted run: same
fired-map digest chain, same health windows, same incident log.

One rule decides where each piece of state lives: **logs hold what
happened; the checkpoint holds only what no log determines, plus the
link that lets resume verify what it re-derives.**

* Logs (append-only, fsync'd): the batch journal (every item), the rule
  repository's change log (every rule change), the provenance spool, the
  metric series. Resume rolls them back to the checkpointed byte offsets
  / change-log seq, so a crashed run's unacknowledged tail is regenerated
  identically instead of duplicated.
* Re-derived on resume: taxonomy, classifiers and training by replaying
  the seeded startup (:func:`repro.world.build_world`, shared with the
  scenario harness; its startup rules are not re-added — the pinned
  repository is the source of truth for rules and enabled flags); the
  executor's match store, a materialized view over journal × change
  log, by streaming the journal back through the engine
  (``restore_items``; its per-item / per-rule generation counters are
  process-local audit counters, not durable state); and the
  :class:`RuleHealthTracker` windows, a pure fold over the provenance
  spool, by streaming the spool through a tracker that is not yet wired
  to metrics or incidents (so the fold re-fires nothing).
* Checkpointed after every batch, O(metric series + incidents) and flat
  in items served: every RNG stream, the simulated clock, incidents,
  metrics, the logs' offsets, the digest-chain head — and the chain value
  before the last batch with that batch's id, from which resume
  recomputes the last link over the rebuilt fired map's fingerprint and
  refuses to start if it is not the checkpointed head.

What a batch costs after classification is O(batch + delta): the chain
link hashes the executor's additive fired-map fingerprint (kept current
row by row), the sample reads its pair count, and the checkpoint holds
nothing that grows with items served or rule pairs seen.

Wall-clock metrics (span latency histograms, per-batch ``wall_ms``) are
operational telemetry and explicitly *outside* the identity contract.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import resource
import struct
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.catalog.batches import Batch
from repro.catalog.types import ProductItem
from repro.chimera.incidents import Incident, IncidentManager
from repro.chimera.pipeline import BatchResult
from repro.core.rule import Rule
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry
from repro.observability.provenance import ProvenanceLog, ProvenanceRecord
from repro.observability.quality import PRECISION_FLOOR, RuleHealthTracker
from repro.repository import RuleRepository, bind_chimera
from repro.service.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.service.series import SeriesStore
from repro.testing.faults import CrashPlan
from repro.world import RunIds, build_world

#: The digest chain's seed value (ordinal 0, before any batch).
GENESIS_DIGEST = hashlib.sha256(b"repro-service-genesis").hexdigest()

_SERVICE_STAGES = ("rule-based", "attr-value", "filter")
#: The stage whose fired map the incremental executor maintains.
_TRACKED_STAGE = "rule-based"


@dataclass(frozen=True)
class ServiceConfig:
    """Deterministic knobs of one service deployment.

    The fingerprint covers every field, so a resume against a root whose
    checkpoint was written under different knobs fails loudly instead of
    silently diverging.
    """

    seed: int = 0
    training: int = 120
    min_examples: int = 2
    rules_per_day: int = 40
    mean_gap_hours: float = 6.0
    quality_window: int = 8
    baseline_batches: int = 3
    precision_floor: float = PRECISION_FLOOR
    provenance_capacity: int = 10_000
    series_window: int = 512

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _chain_link(previous: str, batch_id: str, fingerprint: str) -> str:
    """One digest-chain step: sha256 over the previous value, the batch id
    and the fingerprint of the whole fired map after that batch
    (:meth:`~repro.execution.incremental.IncrementalExecutor.fired_fingerprint`)."""
    return hashlib.sha256(
        (previous + batch_id + fingerprint).encode("utf-8")
    ).hexdigest()


# -- JSON codecs for the checkpoint document --------------------------------------


#: ``random.Random``'s state: Mersenne Twister version 3, 624 words plus
#: the position index, packed little-endian as 32-bit words.
_MT_VERSION = 3
_MT_FORMAT = struct.Struct("<625I")


def _field(state: Dict[str, Any], path: str) -> Any:
    """``state["a"]["b"]`` for ``path`` ``"a.b"``; a missing key raises a
    ``ValueError`` naming the field."""
    value = state
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"checkpoint field {path!r} is missing")
        value = value[key]
    return value


def _rng_dump(rng) -> List[Any]:
    """``[version, base64(packed state), gauss_next]``."""
    version, internal, gauss = rng.getstate()
    packed = base64.b64encode(_MT_FORMAT.pack(*internal)).decode("ascii")
    return [version, packed, gauss]


def _rng_load(rng, state: Dict[str, Any], path: str) -> None:
    """Restore ``rng`` from the :func:`_rng_dump` at ``path`` in the
    checkpoint, refusing (``ValueError`` naming the field) anything that
    is not a version-3 state of exactly 2,500 bytes."""
    encoded = _field(state, path)
    if not isinstance(encoded, list) or len(encoded) != 3:
        raise ValueError(
            f"checkpoint field {path!r} is not [version, state, gauss_next]"
        )
    version, packed, gauss = encoded
    if version != _MT_VERSION:
        raise ValueError(
            f"checkpoint field {path!r} holds Mersenne Twister state version "
            f"{version!r} (expected {_MT_VERSION})"
        )
    try:
        raw = base64.b64decode(packed, validate=True)
    except (TypeError, ValueError):
        raise ValueError(f"checkpoint field {path!r}: state is not base64") from None
    if len(raw) != _MT_FORMAT.size:
        raise ValueError(
            f"checkpoint field {path!r}: state is {len(raw)} bytes "
            f"(expected {_MT_FORMAT.size})"
        )
    if gauss is not None and not isinstance(gauss, float):
        raise ValueError(f"checkpoint field {path!r}: gauss_next is {gauss!r}")
    try:
        rng.setstate((version, _MT_FORMAT.unpack(raw), gauss))
    except ValueError as exc:
        raise ValueError(f"checkpoint field {path!r}: {exc}") from None


def _config_load(state: Dict[str, Any]) -> ServiceConfig:
    """The checkpoint's :class:`ServiceConfig`, refusing (``ValueError``
    naming the field) a missing or unknown key, and a section whose
    fingerprint is not the checkpoint's own — a hand-edited value would
    otherwise resume as a different deployment."""
    section = _field(state, "config")
    known = [spec.name for spec in fields(ServiceConfig)]
    for name in known:
        _field(state, f"config.{name}")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"checkpoint field 'config.{unknown[0]}' is not a config field")
    config = ServiceConfig(**section)
    recorded = _field(state, "fingerprint")
    if config.fingerprint() != recorded:
        raise ValueError(
            f"checkpoint field 'config' fingerprints to {config.fingerprint()}, "
            f"the checkpoint recorded {recorded}"
        )
    return config


def _item_to_dict(item: ProductItem) -> Dict[str, Any]:
    return {
        "item_id": item.item_id,
        "title": item.title,
        "attributes": dict(item.attributes),
        "true_type": item.true_type,
        "vendor": item.vendor,
        "description": item.description,
    }


def _item_from_dict(payload: Dict[str, Any]) -> ProductItem:
    # The generator hands every item the same vendor / type / attribute-key
    # objects; a journal line decodes fresh copies of each. Interning gives
    # a resumed world the live world's sharing back (~0.3 KB an item).
    intern = sys.intern
    return ProductItem(
        item_id=payload["item_id"],
        title=payload["title"],
        attributes={
            intern(key): value for key, value in payload["attributes"].items()
        },
        true_type=intern(payload["true_type"]),
        vendor=intern(payload["vendor"]),
        description=payload.get("description", ""),
    )


def _rss_mb() -> Optional[float]:
    """This process's resident set right now, in MiB (None off Linux)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return None
    return round(pages * os.sysconf("SC_PAGE_SIZE") / 2**20, 1)


def _incident_to_dict(incident: Incident) -> Dict[str, Any]:
    return {
        "incident_id": incident.incident_id,
        "opened_at": incident.opened_at,
        "affected_types": list(incident.affected_types),
        "disabled_rule_ids": {
            stage: list(ids) for stage, ids in sorted(incident.disabled_rule_ids.items())
        },
        "status": incident.status,
        "notes": list(incident.notes),
        "kind": incident.kind,
        "rule_ids": list(incident.rule_ids),
    }


def _incident_from_dict(payload: Dict[str, Any]) -> Incident:
    return Incident(
        incident_id=payload["incident_id"],
        opened_at=payload["opened_at"],
        affected_types=tuple(payload["affected_types"]),
        disabled_rule_ids={
            stage: list(ids) for stage, ids in payload["disabled_rule_ids"].items()
        },
        status=payload["status"],
        notes=list(payload["notes"]),
        kind=payload["kind"],
        rule_ids=tuple(payload["rule_ids"]),
    )


class StreamService:
    """The checkpointed streaming daemon. ``start()`` then ``run(n)``.

    ``crash_plan`` (a :class:`~repro.testing.faults.CrashPlan`) lets
    durability tests SIGKILL the loop at named barriers:
    ``journal-appended``, ``classified``, ``before-checkpoint``,
    ``after-checkpoint``.
    """

    def __init__(
        self,
        root: str,
        config: Optional[ServiceConfig] = None,
        fsync: bool = True,
        crash_plan: Optional[CrashPlan] = None,
    ):
        self.root = root
        self.store = CheckpointStore(root, fsync=fsync)
        self.fsync = fsync
        self.crash_plan = crash_plan if crash_plan is not None else CrashPlan()
        self._config_given = config is not None
        self.config = config if config is not None else ServiceConfig()
        self.ordinal = 0
        self.digest_chain = GENESIS_DIGEST
        self._prev_digest_chain = GENESIS_DIGEST
        self._last_batch_id = ""
        self.totals: Dict[str, int] = {
            "items": 0, "classified": 0, "declined": 0, "rejected": 0,
        }
        self.resumed = False
        self.rolled_back: Dict[str, int] = {}
        self.ids = RunIds("svc")
        self._started = False
        self.series: Optional[SeriesStore] = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "StreamService":
        """Fresh-start or resume, depending on what the root holds."""
        if self._started:
            raise RuntimeError("service already started")
        state = self.store.load()
        if state is None:
            self._fresh()
        else:
            self._resume(state)
        self._started = True
        return self

    def close(self) -> None:
        if not self._started:
            self.store.close()
            return
        self.incremental.detach()
        # start() hung a bound method of this service and the incident
        # wiring on the world's listener lists; left there, service <->
        # world cycles keep the whole closed world alive until a gen-2
        # collection.
        self.obs.tracer.on_span_end.remove(self._on_span_end)
        self._unwatch_quality()
        self.repository.close()
        self.provenance.close()
        if self.series is not None:
            self.series.close()
        self.store.close()
        self._started = False

    def __enter__(self) -> "StreamService":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- world construction -------------------------------------------------------

    def _on_span_end(self, span) -> None:
        self.obs.metrics.histogram("span_seconds", span=span.name).observe(
            span.duration
        )

    def _open_world(self, metrics: Optional[MetricsRegistry] = None) -> List[Rule]:
        """The seeded startup both paths replay; returns the startup rules.

        A fresh start adds them. A resume discards them — the draws only
        keep the analyst's RNG in lockstep with the fresh path; the pinned
        repository is the source of truth for what survives a restart.
        """
        cfg = self.config
        self.obs = Observability()
        if metrics is not None:
            self.obs.metrics = metrics
        self.obs.tracer.on_span_end.append(self._on_span_end)
        world = build_world(
            cfg.seed,
            self.ids,
            training=cfg.training,
            min_examples=cfg.min_examples,
            mean_gap_hours=cfg.mean_gap_hours,
            observability=self.obs,
            rules_per_day=cfg.rules_per_day,
        )
        self.clock = world.clock
        self.taxonomy = world.taxonomy
        self.generator = world.generator
        self.analyst = world.analyst
        self.chimera = world.chimera
        self.stream = world.stream
        self.tracker = RuleHealthTracker(
            window=cfg.quality_window,
            baseline_batches=cfg.baseline_batches,
            precision_floor=cfg.precision_floor,
            metrics=self.obs.metrics,
        )
        return world.startup_rules

    def _finish_wiring(self) -> None:
        """Wiring shared by both startup paths, post rule/repo setup: the
        pipeline records into the service's log and tracker, and every
        alert opens an incident that is scaled down at once."""
        self.chimera.enable_quality_telemetry(self.provenance, self.tracker)
        self._unwatch_quality = self.manager.watch_quality(
            self.tracker, self.clock, scale_down=True
        )

    def _track_fired_map(self) -> None:
        self.incremental = self.chimera.track_fired_map(
            _TRACKED_STAGE, batch_stream=self.stream
        )

    def _fresh(self) -> None:
        cfg = self.config
        startup_rules = self._open_world()
        self.chimera.add_whitelist_rules(startup_rules)
        self.provenance = self._empty_provenance()
        self.repository = RuleRepository.open(
            self.store.repo_root, clock=self.clock, fsync=self.fsync
        )
        self.repository.default_author = "service"
        bind_chimera(self.repository, self.chimera)
        self.manager = IncidentManager(self.chimera, repository=self.repository)
        self._finish_wiring()
        self._track_fired_map()
        self.series = SeriesStore(
            self.store.series_path, window=cfg.series_window, fsync=self.fsync
        )
        self._prev_metrics = self.obs.metrics.snapshot()
        # Ordinal-0 checkpoint: a kill before the first batch resumes too.
        self._checkpoint()

    def _resume(self, state: Dict[str, Any]) -> None:
        cfg_state = _config_load(state)
        if self._config_given and self.config.fingerprint() != cfg_state.fingerprint():
            raise ValueError(
                f"config fingerprint mismatch: checkpoint has "
                f"{cfg_state.fingerprint()}, caller passed {self.config.fingerprint()}"
            )
        self.config = cfg_state
        cfg = self.config

        # 1. Roll the append-only files back to the checkpointed offsets —
        #    before anything opens an appender on them.
        self.rolled_back = self.store.truncate(state["offsets"])

        # 2. Deterministic startup re-execution (rules discarded).
        self._open_world(metrics=MetricsRegistry.load(_field(state, "metrics")))

        # 3. Repository pinned at the checkpointed change-log head; any
        #    entries a crashed run wrote past it are truncated away.
        self.repository = RuleRepository.open(
            self.store.repo_root,
            clock=self.clock,
            fsync=self.fsync,
            pin_seq=int(state["repo_head_seq"]),
        )
        self.repository.default_author = "service"

        # 4. Materialize the repository back into the pipeline's rulesets
        #    (ids, payloads, enabled flags all round-trip), then bind —
        #    the reconcile is silent because the states already agree.
        for stage in _SERVICE_STAGES:
            target = self.chimera._stage_ruleset(stage)
            for rule in self.repository.materialize(f"chimera/{stage}"):
                target.add(rule)
        bind_chimera(self.repository, self.chimera)

        # 5. Clock and every RNG stream, restored verbatim.
        self.clock.now = float(state["clock_now"])
        _rng_load(self.stream.rng, state, "stream.rng")
        self.stream._next_batch = int(state["stream"]["next_batch"])
        _rng_load(self.generator.rng, state, "generator.rng")
        self.generator._next_id = int(state["generator"]["next_id"])
        _rng_load(self.analyst.rng, state, "analyst_rng")
        self.chimera._batch_counter = int(state["batch_counter"])
        self.ids.seq = int(state["rule_seq"])

        # 6. Incident log (the manager numbers new incidents after it).
        self.manager = IncidentManager(self.chimera, repository=self.repository)
        self.manager.incidents = [
            _incident_from_dict(payload) for payload in state["incidents"]
        ]

        # 7. Incremental executor: stream the journalled corpus back
        #    through the engine. The match store is a view over journal ×
        #    rules, so it is rebuilt rather than loaded — and then proved:
        #    the last chain link recomputed from the rebuilt fired map's
        #    fingerprint must equal the checkpointed head.
        self._track_fired_map()
        batch_sizes: Deque[Tuple[str, int]] = deque()
        self.incremental.restore_items(self._journalled_items(batch_sizes))
        self.ordinal = int(state["ordinal"])
        self.digest_chain = str(state["digest_chain"])
        self._prev_digest_chain = str(state["prev_digest_chain"])
        self._last_batch_id = str(state["last_batch_id"])
        if self.ordinal:
            rederived = _chain_link(
                self._prev_digest_chain, self._last_batch_id,
                self.incremental.fired_fingerprint(),
            )
            if rederived != self.digest_chain:
                raise ValueError(
                    f"digest mismatch at ordinal {self.ordinal}: the fired map "
                    f"rebuilt from the journal and change log chains to "
                    f"{rederived}, the checkpoint recorded {self.digest_chain} "
                    f"— the logs and the checkpoint no longer agree"
                )

        # 8. Provenance ring and health windows, from one pass over the
        #    (already truncated) spool. The windows are a fold over the
        #    spool's records and the journal's batch sizes, so they are
        #    re-derived rather than loaded; the tracker is not wired to
        #    metrics or incidents until the fold is over, because the
        #    uninterrupted run counted those alerts once already.
        self._refold_health(batch_sizes)

        # 9. Only now do alerts open incidents and count on metrics.
        self._finish_wiring()

        # 10. Run counters and telemetry stores.
        self.totals = {key: int(value) for key, value in state["totals"].items()}
        self.series = SeriesStore(
            self.store.series_path, window=cfg.series_window, fsync=self.fsync
        )
        self._prev_metrics = self.obs.metrics.snapshot()
        self.resumed = True

    def _empty_provenance(self) -> ProvenanceLog:
        return ProvenanceLog(
            capacity=self.config.provenance_capacity,
            spool=self.store.spool_path,
            fsync=self.fsync,
        )

    def _journalled_items(
        self, batch_sizes: Deque[Tuple[str, int]]
    ) -> Iterator[ProductItem]:
        """Every journalled item, oldest first, one record in memory at a
        time; notes each batch's ``(batch_id, item count)`` on the way."""
        for record in self.store.read_journal():
            batch_sizes.append((record["batch_id"], len(record["items"])))
            for payload in record["items"]:
                yield _item_from_dict(payload)

    def _refold_health(self, batch_sizes: Deque[Tuple[str, int]]) -> None:
        """Rebuild the provenance ring and, in the same pass over the
        spool, the health windows: each record goes to the tracker as it
        did live, and a batch is closed (with its journalled size) when
        the spool moves on to the next one."""
        tracker = self.tracker

        def fold(record: ProvenanceRecord) -> None:
            while batch_sizes and batch_sizes[0][0] != record.batch_id:
                tracker.finish_batch(*batch_sizes.popleft())
            if not batch_sizes:
                raise ValueError(
                    f"provenance record {record.seq} belongs to batch "
                    f"{record.batch_id!r}, which the journal does not hold "
                    f"in that order — the spool and the journal no longer agree"
                )
            tracker.observe_record(record)

        metrics, tracker.metrics = tracker.metrics, None
        if os.path.exists(self.store.spool_path):
            self.provenance = ProvenanceLog.replay(
                self.store.spool_path,
                capacity=self.config.provenance_capacity,
                fsync=self.fsync,
                observe=fold,
            )
        else:
            self.provenance = self._empty_provenance()
        for batch_id, n_items in batch_sizes:
            tracker.finish_batch(batch_id, n_items)
        tracker.metrics = metrics

    # -- the batch loop -----------------------------------------------------------

    def process_batch(self) -> Tuple[Batch, BatchResult]:
        """Ingest → journal → classify → digest → sample → checkpoint."""
        if not self._started:
            raise RuntimeError("service not started; call start() first")
        started = time.perf_counter()
        # next_batch() pushes the items into the incremental executor via
        # its stream subscription before returning.
        batch = self.stream.next_batch()
        self.ordinal += 1
        self.store.append_batch({
            "ordinal": self.ordinal,
            "batch_id": batch.batch_id,
            "vendor": batch.vendor,
            "arrived_at": batch.arrived_at,
            "items": [_item_to_dict(item) for item in batch.items],
        })
        self.crash_plan.reached("journal-appended")
        result = self.chimera.classify_batch(batch.items, batch_id=batch.batch_id)
        self.crash_plan.reached("classified")
        self._prev_digest_chain = self.digest_chain
        self._last_batch_id = batch.batch_id
        self.digest_chain = _chain_link(
            self.digest_chain, batch.batch_id, self.incremental.fired_fingerprint()
        )
        self.totals["items"] += len(batch.items)
        self.totals["classified"] += result.n_classified
        self.totals["declined"] += result.n_declined
        self.totals["rejected"] += len(result.rejected)
        wall_ms = (time.perf_counter() - started) * 1000.0
        self._sample(batch, result, wall_ms)
        self.crash_plan.reached("before-checkpoint")
        self._checkpoint()
        self.crash_plan.reached("after-checkpoint")
        self.obs.tracer.clear()  # bound span memory over the long run
        return batch, result

    def run(self, batches: int) -> None:
        """Process ``batches`` more batches."""
        if batches < 0:
            raise ValueError(f"batches must be non-negative, got {batches}")
        for _ in range(batches):
            self.process_batch()

    def run_to(self, ordinal: int) -> None:
        """Process batches until ``self.ordinal`` reaches ``ordinal``."""
        while self.ordinal < ordinal:
            self.process_batch()

    # -- persistence --------------------------------------------------------------

    def _sample(self, batch: Batch, result: BatchResult, wall_ms: float) -> None:
        snapshot = self.obs.metrics.snapshot()
        delta = self.obs.metrics.delta(self._prev_metrics, snapshot)
        self._prev_metrics = snapshot
        self.series.append({
            "ordinal": self.ordinal,
            "batch_id": batch.batch_id,
            "vendor": batch.vendor,
            "arrived_day": round(batch.arrived_at, 6),
            "items": len(batch.items),
            "classified": result.n_classified,
            "declined": result.n_declined,
            "rejected": len(result.rejected),
            "coverage": round(result.coverage, 6),
            "fired_pairs": self.incremental.fired_pairs,
            "alerts_total": len(self.tracker.alerts),
            "incidents_open": self.open_incidents(),
            "breakers_degraded": len(self.chimera.health.degraded_stages()),
            "wall_ms": round(wall_ms, 3),
            "delta": delta,
        })

    def _checkpoint(self) -> None:
        self.store.save({
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.config.fingerprint(),
            "config": self.config.to_dict(),
            "ordinal": self.ordinal,
            "digest_chain": self.digest_chain,
            # The link resume re-derives to verify its rebuilt view.
            "prev_digest_chain": self._prev_digest_chain,
            "last_batch_id": self._last_batch_id,
            "clock_now": self.clock.now,
            "stream": {
                "rng": _rng_dump(self.stream.rng),
                "next_batch": self.stream._next_batch,
            },
            "generator": {
                "rng": _rng_dump(self.generator.rng),
                "next_id": self.generator._next_id,
            },
            "analyst_rng": _rng_dump(self.analyst.rng),
            "batch_counter": self.chimera._batch_counter,
            "rule_seq": self.ids.seq,
            "offsets": {
                "journal": self.store.journal_offset(),
                "spool": self.provenance.spool_offset(),
                "series": self.series.offset(),
            },
            "repo_head_seq": self._repo_head_seq(),
            "incidents": [
                _incident_to_dict(incident) for incident in self.manager.incidents
            ],
            "metrics": self.obs.metrics.dump(),
            "totals": dict(self.totals),
        })

    def _repo_head_seq(self) -> int:
        entries = self.repository.log.entries
        return entries[-1].seq if entries else 0

    # -- views (identity contract + console) --------------------------------------

    def open_incidents(self) -> int:
        return sum(
            1 for incident in self.manager.incidents if incident.status != "closed"
        )

    def identity(self) -> Dict[str, Any]:
        """The byte-identity surface: everything replay must reproduce.

        Wall-clock telemetry (metrics, tracer spans, ``wall_ms`` series
        values) is deliberately excluded — it measures the host, not the
        computation.
        """
        return {
            "ordinal": self.ordinal,
            "digest_chain": self.digest_chain,
            "clock_now": self.clock.now,
            "batch_counter": self.chimera._batch_counter,
            "tracker": self.tracker.state_dict(),
            "incidents": [
                _incident_to_dict(incident) for incident in self.manager.incidents
            ],
            "provenance_records": self.provenance.total_records,
            "rules": self.chimera.rule_count(),
            "repo_head_seq": self._repo_head_seq(),
            "totals": dict(self.totals),
        }

    def identity_json(self) -> str:
        return json.dumps(self.identity(), sort_keys=True, indent=2) + "\n"

    def status(self) -> Dict[str, Any]:
        """The ``/health`` document."""
        return {
            "status": "ok",
            "ordinal": self.ordinal,
            "resumed": self.resumed,
            "sim_days": round(self.clock.now, 6),
            "clock_day": self.clock.day,
            "totals": dict(self.totals),
            "rules": self.chimera.rule_count(),
            "incidents_total": len(self.manager.incidents),
            "incidents_open": self.open_incidents(),
            "alerts_total": len(self.tracker.alerts),
            "provenance_records": self.provenance.total_records,
            "repo_changes": len(self.repository.log),
            "stages": self.chimera.health.report(),
            "digest_chain": self.digest_chain,
            "resident": self.resident(),
        }

    def resident(self) -> Dict[str, Any]:
        """What the process holds, for "is anything growing without bound":
        lengths and counters only, so a request thread may read it. The
        first two grow with items served (ROADMAP 3d); the provenance
        ring is capped at its capacity."""
        return {
            "items_held": self.incremental.item_count,
            "match_rows": self.incremental.store.row_count,
            "provenance_retained": len(self.provenance),
            "provenance_capacity": self.provenance.capacity,
            "rss_mb": _rss_mb(),
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ),
        }

    def incidents_view(self) -> List[Dict[str, Any]]:
        return [
            _incident_to_dict(incident) for incident in self.manager.incidents
        ]

    def rule_view(self, rule_id: str) -> Optional[Dict[str, Any]]:
        """The ``/rules/<id>`` document: placement, health, fired items.
        Built from reads that write nothing (request threads call it)."""
        stage_name = None
        enabled = None
        for stage in _SERVICE_STAGES:
            ruleset = self.chimera._stage_ruleset(stage)
            if rule_id in ruleset:
                stage_name = stage
                enabled = ruleset.is_enabled(rule_id)
                break
        health = self.tracker.report().get(rule_id)
        if stage_name is None and health is None:
            return None
        # Handler threads call this: read one store column, never
        # fired_map() / fired_fingerprint() / fired_pairs — those patch the
        # executor's view in place and belong to the batch loop's thread.
        fired_items = (
            self.incremental.fired_for_rule(rule_id)
            if enabled and stage_name == _TRACKED_STAGE
            else []
        )
        return {
            "rule_id": rule_id,
            "stage": stage_name,
            "enabled": enabled,
            "health": health,
            "fired_count": len(fired_items),
            "fired_items": fired_items[:100],
        }
