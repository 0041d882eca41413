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
* :class:`ProvenanceLog` — a bounded ring of records, either in memory
  or, with a write-ahead JSON-lines spool, on disk:
  the spool keeps the complete trail of a week-long never-ending run and
  is itself the ring, so memory holds one byte offset per retained line.

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
import sys
from array import array
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
    Tuple,
    Union,
)

from repro.core.durability import AppendLog, read_lines

PathOrHandle = Union[str, IO[str]]

#: One weighted vote as recorded: (label, weight, source). ``source`` is the
#: prediction's provenance string (``"<stage>:<rule_id>"`` for rule votes,
#: ``"<stage>:<model>"`` for learning votes).
VoteTuple = Tuple[str, float, str]


def vote_rule_id(source: str) -> str:
    """The rule id (or model name) at the end of a vote's source chain."""
    return source.rsplit(":", 1)[-1]


#: ``dataclass(slots=True)`` is Python 3.10+; older interpreters build the
#: same classes with an instance ``__dict__``.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTTED)
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


@dataclass(**_SLOTTED)
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


def _encoded(record: ProvenanceRecord) -> str:
    """The one spool / snapshot line of ``record``. ``json.dumps`` escapes
    non-ASCII, so the line is ASCII: its characters are its bytes."""
    return json.dumps(record.to_dict(), sort_keys=True) + "\n"


def _decoded(line: Union[bytes, str]) -> ProvenanceRecord:
    """The one decode point: the record a spooled line holds."""
    return ProvenanceRecord.from_dict(json.loads(line))


class ProvenanceLog:
    """Bounded ring buffer of :class:`ProvenanceRecord` with query indexes.

    The buffer holds at most ``capacity`` records; when a new record
    would overflow it, the oldest is dropped (FIFO).

    A log has one of two modes, decided by ``spool``:

    * **write-ahead** (a path, opened as an
      :class:`~repro.core.durability.AppendLog`; the daemon's): every
      record is encoded and appended to the spool at :meth:`record` time,
      so the spool is a complete, replayable trail —
      the §2.2 never-ending session keeps everything on disk, and the
      durable service checkpoints the spool's offset (see :meth:`replay`).
      The spool *is* the ring: the log keeps only the byte offset at
      which each retained line starts (``_starts[_head:]``, at most
      ``capacity`` offsets in an ``array('q')``), and readers read the
      window — from ``_starts[_head]`` to the spool's end — back from the
      file;
    * **in-memory** (no spool): the log keeps the records in a ring,
      because encoding them would cost ``record()`` an order of magnitude.

    The two modes answer ``records`` / ``why`` / ``blame`` /
    ``records_for_type`` / ``blame_summary`` / ``write_jsonl`` equal by
    value. A write-ahead reader flushes the spool, reads the window in
    one read and decodes (through :func:`_decoded`) only the lines it
    returns: ``why`` / ``blame`` / ``records_for_type`` find them by a
    substring search for the JSON-encoded id, then test the decoded field.
    Readers flush the spool's buffer, so they belong to the thread that
    records (the daemon's batch loop), as ``fired_map()`` does.

    In memory, ``why`` / ``blame`` / ``records_for_type`` are analyst
    drill-downs, so they scan the bounded ring at query time instead of
    taxing the hot path with an index, which is on the telemetry layer's
    5%-overhead budget (``benchmarks/bench_quality_overhead.py``).

    ``evicted_records`` counts the records dropped off the ring;
    :attr:`total_records` (ever recorded) is it plus ``len(log)``.

    The spool is appended per record and synced once per batch, by
    :meth:`spool_offset`; ``fsync=False`` makes that a flush.
    """

    def __init__(
        self,
        capacity: int = 10_000,
        spool: Optional[str] = None,
        fsync: bool = True,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spool = spool
        if spool is None:
            self._records: Deque[ProvenanceRecord] = deque()
        else:
            self._spool = AppendLog(spool, fsync=fsync)
            self._starts = array("q")
            self._head = 0
        self._seq = 0
        self.evicted_records = 0

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
        if self.spool is not None:
            self._keep(self._spool.append(_encoded(record).encode("ascii")))
        else:
            records = self._records
            records.append(record)
            if len(records) > self.capacity:
                records.popleft()
                self.evicted_records += 1
        return record

    def _keep(self, start: int) -> None:
        """Retain the spooled line at ``start``, dropping the oldest past
        ``capacity`` (the dropped head is shed once it is that long)."""
        starts = self._starts
        starts.append(start)
        if len(starts) - self._head > self.capacity:
            self._head += 1
            self.evicted_records += 1
            if self._head == self.capacity:
                del starts[: self._head]
                self._head = 0

    def close(self) -> None:
        """Close the spool (no-op without one)."""
        if self.spool is not None:
            self._spool.close()

    def spool_offset(self) -> int:
        """Sync the spool and return its byte length.

        The checkpoint durability point: everything before the returned
        offset is on disk; a resume truncates the spool back to the last
        checkpointed offset, discarding any partially-spooled tail.
        """
        return self._spool.sync()

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records) if self.spool is None else len(self._starts) - self._head

    @property
    def total_records(self) -> int:
        """Records ever appended: the retained ones plus the evicted."""
        return len(self) + self.evicted_records

    def _window(self) -> bytes:
        """The retained lines of a write-ahead log, read back from the
        spool in one read (after flushing what is still buffered)."""
        return self._spool.read(self._starts[self._head]) if len(self) else b""

    @property
    def records(self) -> List[ProvenanceRecord]:
        if self.spool is None:
            return list(self._records)
        # One ASCII decode of the window spares json.loads a per-line one.
        lines = self._window().decode("ascii").split("\n")
        return [_decoded(line) for line in lines if line]

    def _mentioning(self, needle: str) -> Iterator[ProvenanceRecord]:
        """Retained records, oldest first, minus — in a write-ahead log —
        the lines that cannot hold ``needle`` as a JSON string: a C-level
        byte search for the encoded needle over the window, so a query
        decodes its hits and a few look-alikes, never splitting the
        window into lines. Callers still test the decoded field."""
        if self.spool is None:
            yield from self._records
            return
        window = self._window()
        encoded = json.dumps(needle).encode("ascii")
        find = window.find
        hit = find(encoded)
        while hit >= 0:
            end = find(b"\n", hit) + 1  # every spooled line ends in "\n"
            yield _decoded(window[window.rfind(b"\n", 0, hit) + 1 : end])
            hit = find(encoded, end)

    def why(self, item_id: str) -> List[ProvenanceRecord]:
        """Every retained record for one item, oldest first.

        The last entry is the item's current label and its full vote
        chain; earlier entries show how the label evolved across
        re-classifications.
        """
        return [
            record
            for record in self._mentioning(item_id)
            if record.item_id == item_id
        ]

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
            if self.spool is None:
                handle.writelines(map(_encoded, self._records))
            else:
                handle.write(self._window().decode("ascii"))
        finally:
            if owned:
                handle.close()
        return len(self)

    @classmethod
    def replay(
        cls,
        spool: str,
        capacity: int = 10_000,
        fsync: bool = True,
        observe: Optional[Callable[[ProvenanceRecord], None]] = None,
    ) -> "ProvenanceLog":
        """Rebuild a write-ahead log from its spool file.

        Opening the spool cuts a torn tail (a crash mid-append), so the
        log's next line starts a line of its own. One pass over the
        complete lines notes where each starts, keeps the last
        ``capacity`` offsets as the window, and restores the
        seq and evicted counters to exactly what a live log that spooled
        those records would hold: the counters come from the line count
        and (a spool is written in seq order) the last line's seq.
        Replayed records are *not* re-spooled.

        ``observe`` is a fold over the whole history riding this one pass:
        it is called with every record, oldest first, each line decoded
        exactly once and dropped again. Without it only the last line is
        decoded (for its seq).
        """
        log = cls(capacity=capacity, spool=spool, fsync=fsync)
        last = b""
        for start, last in read_lines(spool):
            if observe is not None:
                observe(_decoded(last))
            log._keep(start)
        log._seq = _decoded(last).seq if last else 0
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
