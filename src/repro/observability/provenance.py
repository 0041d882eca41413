"""Label provenance: which rules produced which labels, and why.

Section 2.2's quality loop starts with attribution: before an analyst can
scale down or repair, "detected quickly" must come with *which rule did
this*. The pipeline already computes everything needed for that answer —
per-stage fired rule ids, per-stage votes, the Voting Master's ranked
output, the Filter's vetoes — but until now it discarded the chain the
moment the label was emitted. This module keeps it:

* :class:`StageTrace` — one stage's contribution to one item (fired rule
  ids, weighted votes, vetoes, constraints), captured *during* the normal
  prediction pass so recording never re-evaluates a rule;
* :class:`ProvenanceRecord` — the full attribution chain for one final
  label out of the Chimera pipeline (gate decision → stage traces →
  voting-master decision → filter outcome);
* :class:`ProvenanceLog` — a bounded ring buffer of records with a
  by-item index and JSON-lines spooling, so a week-long never-ending run
  keeps a complete on-disk trail while the in-memory buffer stays
  fixed-size.

The two query verbs are the ones analysts actually ask:
``why(item_id)`` ("why did this item get this label?") and
``blame(rule_id)`` ("what has this rule been doing?").

Recording is strictly observational: the log is only ever *written* from
values the pipeline computed anyway, so labels and fired maps are
byte-identical with provenance on or off (see
``tests/test_quality_properties.py``).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import (
    IO,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

PathOrHandle = Union[str, IO[str]]

#: One weighted vote as recorded: (label, weight, source). ``source`` is the
#: prediction's provenance string (``"<stage>:<rule_id>"`` for rule votes,
#: ``"<stage>:<model>"`` for learning votes).
VoteTuple = Tuple[str, float, str]


def vote_rule_id(source: str) -> str:
    """The rule id (or model name) at the end of a vote's source chain."""
    return source.rsplit(":", 1)[-1]


@dataclass(slots=True)
class StageTrace:
    """One classifier stage's contribution to one item.

    ``fired`` lists every rule id that matched (whitelists, constraints,
    blacklists); ``votes`` are the surviving weighted predictions the stage
    handed the Voting Master. A stage that was routed around by its
    circuit breaker simply has no trace for that item.

    Slotted and unfrozen: one trace is built per stage per classified
    item, so construction cost is on the 5%-overhead budget
    (``benchmarks/bench_quality_overhead.py``) — frozen dataclasses pay
    ``object.__setattr__`` per field, ~3x slower. Treat instances as
    immutable anyway.
    """

    stage: str
    fired: Tuple[str, ...] = ()
    votes: Tuple[VoteTuple, ...] = ()
    vetoed: Tuple[str, ...] = ()
    constrained_to: Optional[Tuple[str, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "fired": list(self.fired),
            "votes": [list(v) for v in self.votes],
            "vetoed": list(self.vetoed),
            "constrained_to": (
                list(self.constrained_to) if self.constrained_to is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StageTrace":
        constrained = payload.get("constrained_to")
        return cls(
            stage=payload["stage"],
            fired=tuple(payload.get("fired", ())),
            votes=tuple(
                (label, float(weight), source)
                for label, weight, source in payload.get("votes", ())
            ),
            vetoed=tuple(payload.get("vetoed", ())),
            constrained_to=tuple(constrained) if constrained is not None else None,
        )


@dataclass(slots=True)
class ProvenanceRecord:
    """The full attribution chain for one item through the pipeline.

    ``source`` mirrors :class:`~repro.chimera.pipeline.ItemResult.source`
    (``gate`` / ``pipeline`` / ``no-votes`` / ``low-confidence-or-filtered``)
    plus ``gate-reject`` for junk the Gate Keeper refused. ``ranked`` is
    the Voting Master's normalized candidate list; ``final_vote`` is its
    above-threshold pick (None when it declined). ``filter_fired`` /
    ``filter_vetoed`` record the Filter's last word.

    Slotted and unfrozen for the same per-item construction-cost reason
    as :class:`StageTrace`; treat instances as immutable.
    """

    seq: int
    item_id: str
    batch_id: str
    label: Optional[str]
    source: str
    gate_action: str = ""
    gate_reason: str = ""
    stages: Tuple[StageTrace, ...] = ()
    ranked: Tuple[Tuple[str, float], ...] = ()
    final_vote: Optional[Tuple[str, float]] = None
    filter_fired: Tuple[str, ...] = ()
    filter_vetoed: Tuple[str, ...] = ()
    # Memoized fired_rule_ids / winning_rule_ids — computed once, read by
    # both the log's blame scan and the health tracker on the hot path.
    _fired: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _winners: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def fired_rule_ids(self) -> Tuple[str, ...]:
        """Every distinct rule id that fired anywhere in the chain."""
        fired = self._fired
        if fired is None:
            stages = self.stages
            if not self.filter_fired and len(stages) == 1:
                # Fast path: a single stage's verdict visits each rule at
                # most once, so its fired tuple is already distinct.
                fired = stages[0].fired
            else:
                merged: Dict[str, None] = {}
                for trace in stages:
                    for rule_id in trace.fired:
                        merged[rule_id] = None
                for rule_id in self.filter_fired:
                    merged[rule_id] = None
                fired = tuple(merged)
            self._fired = fired
        return fired

    def winning_rule_ids(self) -> Tuple[str, ...]:
        """Rule ids whose stage vote matches the final label."""
        winners = self._winners
        if winners is None:
            if self.label is None:
                winners = ()
            else:
                found: List[str] = []
                for trace in self.stages:
                    for label, _weight, source in trace.votes:
                        if label == self.label:
                            rule_id = vote_rule_id(source)
                            if rule_id in trace.fired and rule_id not in found:
                                found.append(rule_id)
                winners = tuple(found)
            self._winners = winners
        return winners

    def stage_trace(self, stage: str) -> Optional[StageTrace]:
        for trace in self.stages:
            if trace.stage == stage:
                return trace
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "item_id": self.item_id,
            "batch_id": self.batch_id,
            "label": self.label,
            "source": self.source,
            "gate_action": self.gate_action,
            "gate_reason": self.gate_reason,
            "stages": [trace.to_dict() for trace in self.stages],
            "ranked": [list(pair) for pair in self.ranked],
            "final_vote": list(self.final_vote) if self.final_vote else None,
            "filter_fired": list(self.filter_fired),
            "filter_vetoed": list(self.filter_vetoed),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProvenanceRecord":
        final_vote = payload.get("final_vote")
        return cls(
            seq=int(payload["seq"]),
            item_id=payload["item_id"],
            batch_id=payload.get("batch_id", ""),
            label=payload.get("label"),
            source=payload.get("source", ""),
            gate_action=payload.get("gate_action", ""),
            gate_reason=payload.get("gate_reason", ""),
            stages=tuple(
                StageTrace.from_dict(entry) for entry in payload.get("stages", ())
            ),
            ranked=tuple(
                (label, float(weight)) for label, weight in payload.get("ranked", ())
            ),
            final_vote=(
                (final_vote[0], float(final_vote[1])) if final_vote else None
            ),
            filter_fired=tuple(payload.get("filter_fired", ())),
            filter_vetoed=tuple(payload.get("filter_vetoed", ())),
        )


def render_record(record: ProvenanceRecord) -> List[str]:
    """A human-readable account of one record's attribution chain."""
    lines = [
        f"item {record.item_id} (batch {record.batch_id or '-'}, seq {record.seq}): "
        f"{record.label if record.label else 'unclassified'} [{record.source}]"
    ]
    if record.gate_action:
        gate = f"  gate: {record.gate_action}"
        if record.gate_reason:
            gate += f" ({record.gate_reason})"
        lines.append(gate)
    for trace in record.stages:
        fired = ", ".join(trace.fired) if trace.fired else "-"
        lines.append(f"  stage {trace.stage}: fired [{fired}]")
        for label, weight, source in trace.votes:
            lines.append(f"    vote {label} ({weight:.2f}) via {source}")
        if trace.constrained_to is not None:
            lines.append(f"    constrained to {sorted(trace.constrained_to)}")
        if trace.vetoed:
            lines.append(f"    vetoed {sorted(trace.vetoed)}")
    if record.ranked:
        ranked = ", ".join(f"{label} ({weight:.2f})" for label, weight in record.ranked)
        lines.append(f"  voting master: {ranked}")
        if record.final_vote is not None:
            lines.append(
                f"  voting master pick: {record.final_vote[0]} "
                f"({record.final_vote[1]:.2f})"
            )
        else:
            lines.append("  voting master pick: declined (low confidence)")
    if record.filter_fired or record.filter_vetoed:
        lines.append(
            f"  filter: fired [{', '.join(record.filter_fired) or '-'}], "
            f"vetoed {sorted(record.filter_vetoed)}"
        )
    return lines


#: What a ring slot holds: the record, or — in a write-ahead log — the
#: JSON line (newline included) the record was spooled as.
_Entry = Union[ProvenanceRecord, str]


def _encoded(record: ProvenanceRecord) -> str:
    """The one spool / snapshot line of ``record``."""
    return json.dumps(record.to_dict(), sort_keys=True) + "\n"


def _decoded(entry: _Entry) -> ProvenanceRecord:
    """The ring's one decode point: a slot's record, whichever form it holds."""
    if isinstance(entry, str):
        return ProvenanceRecord.from_dict(json.loads(entry))
    return entry


class ProvenanceLog:
    """Bounded ring buffer of :class:`ProvenanceRecord` with query indexes.

    The in-memory buffer holds at most ``capacity`` records; when a new
    record would overflow it, the oldest record is evicted (and appended
    to ``spool`` as one JSON line, when a spool is attached) — the §2.2
    never-ending session keeps a complete trail on disk while memory
    stays fixed. Eviction is FIFO, so the per-item index can drop its
    oldest entry in O(1).

    What the ring holds depends on when the log encodes. A write-ahead
    log (``spool_all=True``) encodes every record at ``record()`` time
    anyway, so it keeps that line — the very string it wrote to the
    spool, ~0.5 KB — and not the record's object graph (~1.3 KB); the
    other two modes keep the record, because encoding there would cost
    ``record()`` an order of magnitude. Every reader goes through one
    decode point (:func:`_decoded`), so ``records`` / ``why`` / ``blame``
    / ``records_for_type`` / ``blame_summary`` / ``write_jsonl`` /
    ``rotate`` / ``on_evict`` answer equal by value in all three modes;
    a line-holding ring pays a decode per record *returned* (and
    ``blame`` / ``records_for_type`` skip, by substring, lines that
    cannot mention the id asked for).

    Only ``why``'s by-item index is maintained eagerly: recording happens
    once per classified item and is on the telemetry layer's 5%-overhead
    budget (``benchmarks/bench_quality_overhead.py``), while ``blame`` /
    ``records_for_type`` are analyst drill-downs, so they scan the
    bounded buffer at query time instead of taxing the hot path.

    ``spool`` may be a path (opened lazily in append mode) or any
    writable text handle; :meth:`rotate` force-flushes the whole buffer.
    ``fsync=False`` makes :meth:`spool_offset` flush without syncing.
    """

    def __init__(
        self,
        capacity: int = 10_000,
        spool: Optional[PathOrHandle] = None,
        on_evict: Optional[Callable[[ProvenanceRecord], None]] = None,
        spool_all: bool = False,
        fsync: bool = True,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if spool_all and spool is None:
            raise ValueError("spool_all=True requires a spool target")
        self.capacity = capacity
        self.spool = spool
        self.on_evict = on_evict
        #: Write-ahead mode: every record is spooled at ``record()`` time
        #: (eviction skips the re-spool), so the spool file is a complete,
        #: replayable trail even for records still in the ring — the
        #: durable-service checkpoint contract (see ``replay``).
        self.spool_all = spool_all
        self.fsync = fsync
        self._records: Deque[_Entry] = deque()
        #: item id of each encoded line in ``_records``, in ring order (a
        #: record entry carries its own); empty unless ``spool_all``.
        self._line_items: Deque[str] = deque()
        self._by_item: Dict[str, List[_Entry]] = {}
        self._seq = 0
        self.total_records = 0
        self.evicted_records = 0
        self._spool_handle: Optional[IO[str]] = None

    # -- recording ---------------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record(self, record: ProvenanceRecord) -> ProvenanceRecord:
        """Append one record; assigns ``record.seq`` when it is 0 (unset)."""
        seq = record.seq
        if seq:
            if seq > self._seq:  # keep next_seq monotonic past explicit seqs
                self._seq = seq
        else:
            self._seq = record.seq = self._seq + 1
        item_id = record.item_id
        entry: _Entry = record
        if self.spool_all:
            entry = _encoded(record)
            self._spool_write(entry)
            self._line_items.append(item_id)
        records = self._records
        records.append(entry)
        self.total_records += 1
        bucket = self._by_item.get(item_id)
        if bucket is None:
            self._by_item[item_id] = [entry]
        else:
            bucket.append(entry)
        while len(records) > self.capacity:
            self._evict()
        return record

    def _evict(self) -> None:
        evicted = self._records.popleft()
        self.evicted_records += 1
        if isinstance(evicted, str):
            item_id = self._line_items.popleft()
        else:
            item_id = evicted.item_id
        by_item = self._by_item
        bucket = by_item.get(item_id)
        if bucket and bucket[0] is evicted:  # FIFO: the oldest entry is ours
            del bucket[0]
            if not bucket:
                del by_item[item_id]
        if self.spool is not None and not self.spool_all:
            self._spool_write(_encoded(evicted))
        if self.on_evict is not None:
            self.on_evict(_decoded(evicted))

    def _spool_write(self, line: str) -> None:
        if self._spool_handle is None:
            if isinstance(self.spool, str):
                self._spool_handle = open(self.spool, "a")
            else:
                self._spool_handle = self.spool
        self._spool_handle.write(line)

    def close(self) -> None:
        """Flush and close an owned spool file (no-op otherwise)."""
        if self._spool_handle is not None and isinstance(self.spool, str):
            self._spool_handle.close()
            self._spool_handle = None

    def spool_offset(self) -> int:
        """Flush + fsync the spool and return its current byte offset.

        The checkpoint durability point: everything before the returned
        offset is on disk; a resume truncates the spool back to the last
        checkpointed offset, discarding any partially-spooled tail.
        """
        if self._spool_handle is None:
            if isinstance(self.spool, str):
                try:
                    return os.path.getsize(self.spool)
                except OSError:
                    return 0
            return 0
        self._spool_handle.flush()
        if self.fsync:
            try:
                os.fsync(self._spool_handle.fileno())
            except (OSError, ValueError):
                pass  # non-file handles (StringIO) have no durable backing
        return self._spool_handle.tell()

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[ProvenanceRecord]:
        return [_decoded(entry) for entry in self._records]

    def _mentioning(self, needle: str) -> Iterator[ProvenanceRecord]:
        """Retained records, oldest first, minus the encoded lines that
        cannot hold ``needle`` as a JSON string (a C-level substring test
        on the encoded needle, so a drill-down decodes its hits and a few
        look-alikes, not the ring). Callers still test the decoded field."""
        encoded = json.dumps(needle)
        for entry in self._records:
            if not isinstance(entry, str):
                yield entry
            elif encoded in entry:
                yield _decoded(entry)

    def why(self, item_id: str) -> List[ProvenanceRecord]:
        """Every retained record for one item, oldest first.

        The last entry is the item's current label and its full vote
        chain; earlier entries show how the label evolved across
        re-classifications.
        """
        return [_decoded(entry) for entry in self._by_item.get(item_id, ())]

    def explain(self, item_id: str) -> str:
        """``why`` rendered for humans (the CLI's drill-down view)."""
        records = self.why(item_id)
        if not records:
            return f"item {item_id}: no provenance retained"
        lines: List[str] = []
        for record in records:
            lines.extend(render_record(record))
        return "\n".join(lines)

    def blame(self, rule_id: str) -> List[ProvenanceRecord]:
        """Every retained record in which ``rule_id`` fired, oldest first.

        Scans the bounded buffer (O(capacity)) — drill-downs are rare,
        recording is per-item, so the index cost lives here.
        """
        return [
            record
            for record in self._mentioning(rule_id)
            if rule_id in record.fired_rule_ids()
        ]

    def records_for_type(self, type_name: str) -> List[ProvenanceRecord]:
        """Every retained record whose final label is ``type_name``."""
        return [
            record
            for record in self._mentioning(type_name)
            if record.label == type_name
        ]

    def blame_summary(self, rule_id: str) -> Dict[str, object]:
        """Aggregate view of one rule's retained activity."""
        records = self.blame(rule_id)
        labels: Dict[str, int] = {}
        wins = 0
        for record in records:
            if record.label is not None:
                labels[record.label] = labels.get(record.label, 0) + 1
            if rule_id in record.winning_rule_ids():
                wins += 1
        return {
            "rule_id": rule_id,
            "records": len(records),
            "wins": wins,
            "labels": dict(sorted(labels.items())),
            "items": sorted({record.item_id for record in records}),
        }

    # -- export ------------------------------------------------------------------

    def write_jsonl(self, target: PathOrHandle) -> int:
        """Write the retained buffer as JSON lines; returns the record count."""
        if isinstance(target, str):
            handle: IO[str] = open(target, "w")
            owned = True
        else:
            handle, owned = target, False
        try:
            for entry in self._records:
                handle.write(entry if isinstance(entry, str) else _encoded(entry))
        finally:
            if owned:
                handle.close()
        return len(self._records)

    def rotate(self) -> int:
        """Spool every retained record and clear the buffer.

        Returns the number of records rotated out. The snapshot/rotation
        primitive for week-long runs: call at batch boundaries to keep
        the full trail on disk without waiting for capacity eviction.
        """
        rotated = len(self._records)
        while self._records:
            self._evict()
        return rotated

    @classmethod
    def replay(
        cls,
        spool: str,
        capacity: int = 10_000,
        on_evict: Optional[Callable[[ProvenanceRecord], None]] = None,
        fsync: bool = True,
        observe: Optional[Callable[[ProvenanceRecord], None]] = None,
    ) -> "ProvenanceLog":
        """Rebuild a ``spool_all`` log from its spool file.

        Reads the spool torn-tolerantly (a partial final line — a crash
        mid-append — is ignored), refills the ring with the last
        ``capacity`` records, and restores the seq/total/evicted counters
        to exactly what a live log that spooled those records would hold.
        The counters come from the line count and (a spool is written in
        seq order) the newest seq. Replayed records are *not* re-spooled.

        ``observe`` is a fold over the whole history riding this one pass:
        it is called with every record, oldest first, each line decoded
        exactly once and dropped again — the ring keeps the raw line, as
        the live log does. Without it only the last ``capacity`` lines are
        decoded (for their item id and seq).
        """
        from repro.core.durability import iter_jsonl_lines, tail_jsonl_lines

        def keyed(line: bytes) -> Tuple[str, str, int]:
            entry = line.decode("utf-8")
            record = _decoded(entry)
            if observe is not None:
                observe(record)
            return entry, record.item_id, record.seq

        if observe is None:
            tail, total = tail_jsonl_lines(spool, capacity)
            kept: Sequence[Tuple[str, str, int]] = [keyed(line) for line in tail]
        else:
            kept = deque(maxlen=capacity)
            total = 0
            for line in iter_jsonl_lines(spool):
                kept.append(keyed(line))
                total += 1
        log = cls(
            capacity=capacity, spool=spool, on_evict=on_evict, spool_all=True,
            fsync=fsync,
        )
        log.total_records = total
        log.evicted_records = total - len(kept)
        log._seq = max((seq for _, _, seq in kept), default=0)
        for entry, item_id, _ in kept:
            log._records.append(entry)
            log._line_items.append(item_id)
            bucket = log._by_item.get(item_id)
            if bucket is None:
                log._by_item[item_id] = [entry]
            else:
                bucket.append(entry)
        return log

    @staticmethod
    def read_jsonl(source: PathOrHandle) -> List[ProvenanceRecord]:
        """Load records back from a spool/snapshot file."""
        if isinstance(source, str):
            handle: IO[str] = open(source, "r")
            owned = True
        else:
            handle, owned = source, False
        try:
            return [_decoded(line) for line in handle if line.strip()]
        finally:
            if owned:
                handle.close()


__all__ = [
    "ProvenanceLog",
    "ProvenanceRecord",
    "StageTrace",
    "render_record",
    "vote_rule_id",
]
