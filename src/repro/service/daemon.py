"""The durable streaming daemon.

:class:`StreamService` is the paper's §2.2 "never ending" deployment made
restartable: it follows a :class:`~repro.catalog.batches.BatchStream`
continuously through the Chimera pipeline on the
:class:`~repro.execution.incremental.IncrementalExecutor`. Kill the
process at any instant (SIGKILL, power cut, torn write) and a resumed
instance continues **byte-identical** to an uninterrupted run: same
fired-map digest chain, same health windows, same incident log.

One rule decides where each piece of state lives (see
:mod:`repro.service.checkpoint`): **logs hold what happened; the
checkpoint holds only what no log determines, plus the link that lets
resume verify what it re-derives.** Resume rolls the four logs (journal,
change log, provenance spool, series) back to their checkpointed byte
offsets, then re-derives: taxonomy, classifiers, training, the analyst's
RNG and the rule-id counter by replaying the seeded startup
(:func:`repro.world.build_world`, shared with the scenario harness; after
it the daemon neither draws from the analyst nor mints a rule id, and its
startup rules are not re-added — the rolled-back repository is the source
of truth for rules and enabled flags); the executor's match store, a view
over journal × change log, by streaming the journal back through the
engine (``restore_items``), which also sets the clock to the last
journalled batch's arrival; the :class:`RuleHealthTracker` windows, a
fold over the spool, through a tracker not yet wired to metrics or
incidents (so the fold re-fires nothing); the stream's and the
pipeline's batch counters from the ordinal; the run totals from the
checkpointed metric counters; and the batch stream's and the item
generator's RNGs from their post-startup states, each moved on by the
number of 32-bit words the checkpoint says it has drawn and checked
against the digest of the state the run held (the generator's id counter
moves on by the journalled item count). The checkpoint also holds the
chain value before the last batch and that batch's id: resume recomputes
the last link over the rebuilt fired map's fingerprint and refuses to
start if it is not the checkpointed head.

What a batch costs after classification is O(batch + delta): the chain
link hashes the executor's additive fired-map fingerprint (kept current
row by row), the sample reads its pair count, and the checkpoint holds
nothing that grows with items served or rule pairs seen.

Wall-clock metrics (span latency histograms, per-batch ``wall_ms``) are
operational telemetry and explicitly *outside* the identity contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import struct
import sys
import time
from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.batches import Batch, check_mean_gap_hours
from repro.catalog.types import ProductItem
from repro.chimera.incidents import Incident, IncidentManager
from repro.chimera.pipeline import BatchResult
from repro.core.durability import AppendLog, read_lines
from repro.core.rule import Rule
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry
from repro.observability.provenance import ProvenanceLog, ProvenanceRecord
from repro.observability.quality import RuleHealthTracker
from repro.repository import RuleRepository, bind_chimera
from repro.service.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.service.series import SeriesStore
from repro.testing.faults import CrashPlan
from repro.world import RunIds, build_world

#: The digest chain's seed value (ordinal 0, before any batch).
GENESIS_DIGEST = hashlib.sha256(b"repro-service-genesis").hexdigest()


def run_totals(metrics: MetricsRegistry) -> Dict[str, int]:
    """Items served, classified, declined and rejected: the pipeline's
    deterministic ``chimera_<key>_total`` counters, read without creating
    a series."""
    return {
        key: sum(c.value for c in metrics.series(f"chimera_{key}_total").values())
        for key in ("items", "classified", "declined", "rejected")
    }


@dataclass(frozen=True)
class ServiceConfig:
    """Deterministic knobs of one service deployment.

    The fingerprint covers every field, so a resume against a root whose
    checkpoint was written under different knobs fails loudly instead of
    silently diverging. What no field names is the default of the class it
    configures: the health tracker's baseline and precision floor, the
    provenance ring's capacity, the series window.
    """

    seed: int = 0
    training: int = 120
    min_examples: int = 2
    rules_per_day: int = 40
    mean_gap_hours: float = 6.0
    quality_window: int = 8

    def __post_init__(self) -> None:
        check_mean_gap_hours(self.mean_gap_hours)

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


def _field(state: Dict[str, Any], path: str) -> Any:
    """``state["a"]["b"]`` for ``path`` ``"a.b"``; a missing key raises a
    ``ValueError`` naming the field."""
    value = state
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"checkpoint field {path!r} is missing")
        value = value[key]
    return value


#: ``random.Random`` is a Mersenne Twister: 624 key words and a position
#: index. Drawing past word 624 refills ("twists") the whole key at once.
_MT_WORDS = 624
_MT_FORMAT = struct.Struct("<625I")
#: Words one ``getrandbits`` call skips on resume (a 256 KiB int).
_SKIP_WORDS = 1 << 16
#: Twists one counted step searches: ~40M words, far past any batch.
_MAX_TWISTS = 1 << 16


def _state_check(packed: bytes) -> str:
    """16 hex digits of blake2b over the packed state words."""
    return hashlib.blake2b(packed, digest_size=8).hexdigest()


class _RngPosition:
    """Where one RNG stands: the words it has drawn since the post-startup
    state. :meth:`dump` counts the words drawn since its last call from two
    ``getstate()`` readings, so nothing wraps the RNG the batch loop draws
    from: twists × 624 + the positions' difference."""

    def __init__(self, rng: random.Random, drawn: int = 0):
        self.rng = rng
        self.drawn = drawn
        internal = rng.getstate()[1]
        # The last reading as its packed words and its position index: the
        # 625-int tuple getstate() returns is ~24 KB of objects.
        self._index, self._packed = internal[-1], _MT_FORMAT.pack(*internal)
        # Scratch twisters: one at the last reading's key, about to twist;
        # one that reads a new key's outputs.
        self._follower, self._probe = random.Random(0), random.Random(0)
        self._follower.setstate((3, internal[:_MT_WORDS] + (_MT_WORDS,), None))

    def dump(self) -> Dict[str, Any]:
        """``{"drawn": words, "check": state digest}``, plus a pending
        ``gauss_next`` when one is set (no word count rebuilds it)."""
        _, internal, gauss = self.rng.getstate()
        packed = _MT_FORMAT.pack(*internal)
        self.drawn += self._words_to(internal, packed)
        self._index, self._packed = internal[-1], packed
        position = {"drawn": self.drawn, "check": _state_check(packed)}
        if gauss is not None:
            position["gauss_next"] = gauss
        return position

    def _words_to(self, internal: Tuple[int, ...], packed: bytes) -> int:
        """Words drawn from the last reading to ``internal``. An unchanged
        key means no twist. Otherwise the follower twists until its 624
        outputs, drawn as one int, equal the new key's (tempering is a
        bijection, so equal outputs are equal keys); it then stands at the
        new key for the next call."""
        moved = internal[-1] - self._index
        if packed[:-4] == self._packed[:-4] and moved >= 0:  # the same key
            return moved
        self._probe.setstate((3, internal[:_MT_WORDS] + (0,), None))
        target = self._probe.getrandbits(32 * _MT_WORDS)
        getrandbits = self._follower.getrandbits
        for twists in range(1, _MAX_TWISTS + 1):
            if getrandbits(32 * _MT_WORDS) == target:
                return twists * _MT_WORDS + moved
        raise RuntimeError(f"the RNG moved more than {_MAX_TWISTS} twists in one step")


def _rng_seek(rng: random.Random, state: Dict[str, Any], path: str) -> _RngPosition:
    """Move ``rng``, at its post-startup state, as far as the position at
    ``path`` says, and prove it: the state reached must digest to the
    position's ``check``. A missing, malformed or unknown field, or a
    digest that differs, is a ``ValueError`` naming the field."""
    position = _field(state, path)
    if not isinstance(position, dict):
        raise ValueError(f"checkpoint field {path!r} is not a {{drawn, check}} position")
    drawn = _field(state, f"{path}.drawn")
    check = _field(state, f"{path}.check")
    gauss = position.get("gauss_next")
    unknown = sorted(set(position) - {"drawn", "check", "gauss_next"})
    if unknown:
        raise ValueError(f"checkpoint field '{path}.{unknown[0]}' is not a position field")
    if type(drawn) is not int or drawn < 0:
        raise ValueError(f"checkpoint field '{path}.drawn' is {drawn!r}; expected a word count")
    if gauss is not None and not isinstance(gauss, float):
        raise ValueError(f"checkpoint field '{path}.gauss_next' is {gauss!r}")
    for left in range(drawn, 0, -_SKIP_WORDS):
        rng.getrandbits(32 * min(left, _SKIP_WORDS))
    version, internal, _ = rng.getstate()
    reached = _state_check(_MT_FORMAT.pack(*internal))
    if reached != check:
        raise ValueError(
            f"checkpoint field '{path}.check' is {check!r}, but {drawn} words "
            f"past the seeded startup the RNG digests to {reached}"
        )
    rng.setstate((version, internal, gauss))
    return _RngPosition(rng, drawn)


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
    # a resumed world the live world's sharing back (~0.3 KB an item), and
    # makes the item id one string with the id the provenance replay reads.
    intern = sys.intern
    return ProductItem(
        item_id=intern(payload["item_id"]),
        title=payload["title"],
        attributes={
            intern(key): value for key, value in payload["attributes"].items()
        },
        true_type=intern(payload["true_type"]),
        vendor=intern(payload["vendor"]),
        description=payload.get("description", ""),
    )


class JournalRecords:
    """The daemon's record source: records stay in the batch journal. A
    batch is one line and takes consecutive rows, so one ``(first row,
    line offset)`` pair per batch — O(batches) — locates every record. The
    daemon names each batch's line (:meth:`next_line`) before admitting it."""

    held = 0

    def __init__(self, journal: AppendLog):
        self._journal = journal
        self._first_rows: List[int] = []
        self._offsets: List[int] = []
        self._line: Optional[int] = None

    def next_line(self, offset: int) -> None:
        """The next rows admitted are the items of the line at ``offset``."""
        self._line = offset

    def admit(self, row: int, record: ProductItem) -> None:
        if self._line is not None:
            self._first_rows.append(row)
            self._offsets.append(self._line)
            self._line = None

    def release(self, row: int) -> None:
        pass

    def records(self, rows: Sequence[int]) -> Iterator[ProductItem]:
        """Records of ascending ``rows``, decoding each batch line once."""
        batch, items = -1, []
        for row in rows:
            at = bisect_right(self._first_rows, row) - 1
            if at != batch:
                batch = at
                stop = self._offsets[at + 1] if at + 1 < len(self._offsets) else None
                items = json.loads(self._journal.read(self._offsets[at], stop))["items"]
            yield _item_from_dict(items[row - self._first_rows[at]])


def _rss_mb() -> Optional[float]:
    """This process's resident set right now, in MiB (None off Linux)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return None
    return round(pages * os.sysconf("SC_PAGE_SIZE") / 2**20, 1)


class StreamService:
    """The checkpointed streaming daemon. ``start()`` then ``run(n)``.

    Each checkpoint counts the words the stream's and the generator's
    RNGs drew since the last one (twists × 624 + the positions'
    difference), and stores the running totals, not the states: resume
    replays the startup and skips that many words, at C speed and linear
    in the words drawn.

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
        self.resumed = False
        self.rolled_back: Dict[str, int] = {}
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "StreamService":
        """Fresh-start or resume, depending on what the root holds."""
        if self._started:
            raise RuntimeError("service already started")
        handle = set(vars(self))
        state = self.store.load()
        try:
            if state is None:
                self._fresh()
            else:
                self._resume(state)
        except Exception:
            # A refused start closes every log it opened (a corrected
            # start() in this process must not be a second writer on one)
            # and keeps none of the world it was building.
            self._release(vars(self).keys() - handle)
            raise
        # Every attribute start() set on top of the handle is the world,
        # which close() releases.
        self._world = vars(self).keys() - handle
        self._started = True
        return self

    def close(self) -> None:
        """Close the logs and release the world.

        A closed handle keeps what it held before ``start()`` — ``root``,
        ``config``, the closed ``store`` and the run's scalars
        (``ordinal``, ``digest_chain``, ``resumed``, ``rolled_back``) —
        and no reference to anything ``start()`` set: pipeline, engine
        and corpus, repository, provenance, tracker, generator, metrics.
        A process that closes a service and starts another on the same
        root holds one world, not two. Every other read of a closed
        handle raises: ``process_batch()`` a ``RuntimeError``, a view an
        ``AttributeError``.
        """
        if not self._started:
            self.store.close()
            return
        self.incremental.detach()
        # start() hung a bound method of this service and the incident
        # wiring on the world's listener lists; left there, they keep the
        # world in cycles only a gen-2 collection frees. Unhooked, the
        # release below frees it at once, by reference count.
        self.obs.tracer.on_span_end.remove(self._on_span_end)
        self._unwatch_quality()
        self._started = False
        self._release(self._world | {"_world"})

    def _release(self, world) -> None:
        """Close every log start() opened and the store, then drop the
        attributes named in ``world``."""
        held = vars(self)
        for name in ("repository", "provenance", "series"):
            if held.get(name) is not None:
                held[name].close()
        self.store.close()
        for name in world:
            del held[name]

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
        keep the analyst's RNG in lockstep with the fresh path; the
        rolled-back repository is the source of truth for what survives a
        restart.
        """
        cfg = self.config
        self.ids = RunIds("svc")
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
            window=cfg.quality_window, metrics=self.obs.metrics
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

    def _use_engine(self) -> None:
        """The pipeline's engine, its records read back from the journal."""
        self._records = JournalRecords(self.store.journal)
        self.incremental = self.chimera.engine
        self.incremental.use_records(self._records)

    def _fresh(self) -> None:
        self.store.open_journal()
        startup_rules = self._open_world()
        self._stream_position = _RngPosition(self.stream.rng)
        self._generator_position = _RngPosition(self.generator.rng)
        self.chimera.add_whitelist_rules(startup_rules)
        self.provenance = ProvenanceLog(spool=self.store.spool_path, fsync=self.fsync)
        self.repository = RuleRepository.open(
            self.store.repo_root, clock=self.clock, fsync=self.fsync
        )
        self.repository.default_author = "service"
        bind_chimera(self.repository, self.chimera)
        self.manager = IncidentManager(self.chimera, repository=self.repository)
        self._finish_wiring()
        self._use_engine()
        self.series = SeriesStore(self.store.series_path, fsync=self.fsync)
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

        # 1. Roll all four logs back to the checkpointed offsets — before
        #    anything opens one.
        self.rolled_back = self.store.truncate(_field(state, "offsets"))
        self.store.open_journal()

        # 2. Deterministic startup re-execution (rules discarded). It
        #    leaves the analyst's RNG and the rule-id counter where the
        #    live daemon holds them: neither moves after startup.
        self._open_world(metrics=MetricsRegistry.load(_field(state, "metrics")))

        # 3. The repository, replayed from its rolled-back change log,
        #    which must end where the checkpoint saw it end.
        self.repository = RuleRepository.open(
            self.store.repo_root, clock=self.clock, fsync=self.fsync
        )
        self.repository.default_author = "service"
        head_seq = _field(state, "repo_head_seq")
        if self._repo_head_seq() != head_seq:
            raise ValueError(
                f"checkpoint field 'repo_head_seq' is {head_seq!r}, the "
                f"change log ends at seq {self._repo_head_seq()}"
            )

        # 4. Bind the pipeline's empty rule sets: each adopts its
        #    namespace's live rules, in order, with their flags.
        bind_chimera(self.repository, self.chimera)

        # 5. The batch stream's and the generator's RNGs, moved from
        #    their post-startup states by the words each had drawn, and
        #    checked against the digests of the states the run held; both
        #    batch counters stand at the ordinal.
        self.ordinal = int(state["ordinal"])
        self._stream_position = _rng_seek(self.stream.rng, state, "stream.rng")
        self._generator_position = _rng_seek(
            self.generator.rng, state, "generator.rng"
        )
        self.stream._next_batch = self.chimera._batch_counter = self.ordinal

        # 6. Incident log (the manager numbers new incidents after it).
        self.manager = IncidentManager(self.chimera, repository=self.repository)
        self.manager.incidents = [
            Incident.from_dict(payload) for payload in state["incidents"]
        ]

        # 7. Incremental executor: stream the journalled corpus back
        #    through the engine (which also sets the clock to the last
        #    batch's arrival). The match store is a view over journal ×
        #    rules, so it is rebuilt rather than loaded — and then proved:
        #    the last chain link recomputed from the rebuilt fired map's
        #    fingerprint must equal the checkpointed head.
        self._use_engine()
        batch_sizes: Deque[Tuple[str, int]] = deque()
        self.incremental.restore_items(self._journalled_items(batch_sizes))
        # Each journalled item took the generator's next id.
        self.generator._next_id += sum(n_items for _, n_items in batch_sizes)
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

        # 10. The series store.
        self.series = SeriesStore(self.store.series_path, fsync=self.fsync)
        self._prev_metrics = self.obs.metrics.snapshot()
        self.resumed = True

    def _journalled_items(
        self, batch_sizes: Deque[Tuple[str, int]]
    ) -> Iterator[ProductItem]:
        """Every journalled item, oldest first, one record in memory at a
        time; notes each batch's ``(batch_id, item count)`` on the way,
        names each batch's line to the record source, and moves the clock
        to each batch's arrival (only the stream moves it after startup)."""
        for offset, line in read_lines(self.store.journal_path):
            record = json.loads(line)
            items = record["items"]
            batch_sizes.append((record["batch_id"], len(items)))
            self.clock.now = record["arrived_at"]
            self._records.next_line(offset)
            for payload in items:
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
        self.provenance = ProvenanceLog.replay(
            self.store.spool_path, fsync=self.fsync, observe=fold
        )
        for batch_id, n_items in batch_sizes:
            tracker.finish_batch(batch_id, n_items)
        tracker.metrics = metrics

    # -- the batch loop -----------------------------------------------------------

    def process_batch(self) -> Tuple[Batch, BatchResult]:
        """Ingest → journal → admit → classify → digest → sample → checkpoint."""
        if not self._started:
            raise RuntimeError("service not started; call start() first")
        started = time.perf_counter()
        batch = self.stream.next_batch()
        self.ordinal += 1
        line = self.store.journal_offset()
        self.store.append_batch({
            "ordinal": self.ordinal,
            "batch_id": batch.batch_id,
            "vendor": batch.vendor,
            "arrived_at": batch.arrived_at,
            "items": [_item_to_dict(item) for item in batch.items],
        })
        self.crash_plan.reached("journal-appended")
        self._records.next_line(line)
        self.incremental.add_items(batch.items)
        result = self.chimera.classify_batch(batch.items, batch_id=batch.batch_id)
        self.crash_plan.reached("classified")
        self._prev_digest_chain = self.digest_chain
        self._last_batch_id = batch.batch_id
        self.digest_chain = _chain_link(
            self.digest_chain, batch.batch_id, self.incremental.fired_fingerprint()
        )
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
            "stream": {"rng": self._stream_position.dump()},
            "generator": {"rng": self._generator_position.dump()},
            "offsets": {
                "journal": self.store.journal_offset(),
                "spool": self.provenance.spool_offset(),
                "series": self.series.offset(),
                "changelog": self.repository.log.offset(),
            },
            "repo_head_seq": self._repo_head_seq(),
            "incidents": self.incidents_view(),
            "metrics": self.obs.metrics.dump(),
        })

    def _repo_head_seq(self) -> int:
        return self.repository.log.next_seq - 1

    # -- views (identity contract + console) --------------------------------------

    def open_incidents(self) -> int:
        return sum(
            1 for incident in self.manager.incidents if incident.status != "closed"
        )

    @property
    def totals(self) -> Dict[str, int]:
        return run_totals(self.obs.metrics)

    def identity(self) -> Dict[str, Any]:
        """The byte-identity surface: everything replay must reproduce.

        ``totals`` reads four deterministic counters of the metrics
        registry. The registry's wall-clock parts (span latency
        histograms), tracer spans and ``wall_ms`` series values stay
        outside it — they measure the host, not the computation.
        """
        return {
            "ordinal": self.ordinal,
            "digest_chain": self.digest_chain,
            "clock_now": self.clock.now,
            "batch_counter": self.chimera._batch_counter,
            "tracker": self.tracker.state_dict(),
            "incidents": self.incidents_view(),
            "provenance_records": self.provenance.total_records,
            "rules": self.chimera.rule_count(),
            "repo_head_seq": self._repo_head_seq(),
            "totals": self.totals,
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
            "totals": self.totals,
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
        first two grow with items served (ROADMAP 3d), not the records,
        which the journal holds (``records_held`` is 0); ``shared_rows``
        counts the distinct match rows those items share, never more than
        ``match_rows``; ``dead_postings`` (index entries of removed items)
        never outnumbers the live entries; the provenance ring is capped at
        its capacity."""
        store = self.incremental.store
        return {
            "items_held": self.incremental.item_count,
            "records_held": self._records.held,
            "match_rows": store.row_count,
            "shared_rows": store.shared_rows,
            "dead_postings": self.incremental.dead_postings,
            "provenance_retained": len(self.provenance),
            "provenance_capacity": self.provenance.capacity,
            "rss_mb": _rss_mb(),
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ),
        }

    def incidents_view(self) -> List[Dict[str, Any]]:
        return [incident.to_dict() for incident in self.manager.incidents]

    def rule_view(self, rule_id: str) -> Optional[Dict[str, Any]]:
        """The ``/rules/<id>`` document: placement, health, fired items.
        Built from reads that write nothing (request threads call it)."""
        stage_name = enabled = None
        for name, ruleset in self.chimera.rule_sets().items():
            if rule_id in ruleset:
                stage_name, enabled = name, ruleset.is_enabled(rule_id)
                break
        health = self.tracker.report().get(rule_id)
        if stage_name is None and health is None:
            return None
        # Handler threads call this: read one store column, never
        # fired_map() / fired_fingerprint() / fired_pairs — those patch the
        # executor's view in place and belong to the batch loop's thread.
        fired_items = self.incremental.fired_for_rule(rule_id) if enabled else []
        return {
            "rule_id": rule_id,
            "stage": stage_name,
            "enabled": enabled,
            "health": health,
            "fired_count": len(fired_items),
            "fired_items": fired_items[:100],
        }
