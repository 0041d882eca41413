"""What a served item leaves in RAM, held to a budget.

The daemon never forgets an item (ROADMAP 3d), so the bytes each one
leaves behind are the slope of the process's memory over a stream that
never ends. This module measures that slope with ``tracemalloc`` — the
live world's over 40 batches, with and without an attribute rule
tracked, and a resumed world's over everything its journal holds — and
pins the decisions that set it: the corpus is flat columns indexed by row
(a list of ids, titles in one UTF-8 buffer, tokens as int32 vocabulary
codes, live flags; attributes only once an attribute rule is tracked)
holding no record (the journal does), no view, and no str, tuple or set
per row besides the id; the
engine builds no fired view; a write-ahead provenance log and the series
store keep their windows in their files and hold only the offset of each
retained line; the corpus index's postings and the match store's rule
columns are arrays of rows, and the store's row sets are shared, one
object per distinct row. The bounded text LRUs are emptied before each
reading: their fill is not slope. A reopened change log is held to a
budget per line the same way: entries, payloads and snapshots stay in
the file behind offsets.

The budgets (``repro.testing.budgets``) are the largest reading over
``PYTHONHASHSEED`` 0, 1 and random at the commit that set them (306 /
437 B per item, 450 with the attribute rule), plus 5%. While each RNG
position held its state tuple they read 319 / 448 / 462. While each row
held a title ``str`` and a token tuple they read 394 / 541 / 538; while
the engine kept a fired view and the change log was held decoded 454 /
654 / 597. While each row was a ``PreparedItem`` and the store was keyed by item id they read 633 / 759;
while corpus rows held their records and the series its lines 1,138 /
1,308 (1,410 / 1,309 with the live world's cache fill counted). While the
ring held the encoded lines and a by-item index they read 1,955 / 1,852;
before tokens were interned, postings were arrays and rows were shared
2,879 / 2,754; with a second id-keyed cache beside the index 3,045 /
2,785; before the ring held lines 4,977 / 5,417. A 40-batch run fills
under half of the 10,000-slot ring, so these are this run's figures, not
the soak's (DESIGN §13 has those).

A closed handle holds none of it: ``close()``, and a ``start()`` that
refuses its root, drop every reference the start made, so the warm
handles below need no ``del`` and a process that restarts a service
holds one world. What a closed handle still reaches is held to
``CLOSED_HANDLE_B`` (~1.5-2.3 MB while it kept its world).
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from array import array
from collections import deque
from contextlib import contextmanager

import pytest

from repro.catalog.types import ProductItem
from repro.core import AttributeRule, SequenceRule, WhitelistRule
from repro.core.prepared import PreparedItem
from repro.core.ruleset import RuleSet
from repro.repository import RuleRepository
from repro.service import ServiceConfig, StreamService
from repro.service.checkpoint import CHECKPOINT_NAME
from repro.testing import budgets
from repro.utils.text import clear_caches

pytestmark = pytest.mark.gates

WARMUP_BATCHES = 3
MEASURED_BATCHES = 40


@contextmanager
def _traced_growth():
    """Yields a list that, after the block, holds the bytes allocated
    inside it and still reachable once the text LRUs are emptied and the
    cycle collector has run: the bounded caches' fill is not slope."""
    grown = []
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        yield grown
        clear_caches()
        gc.collect()
        grown.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()


def _retention_offenders(service: StreamService) -> dict:
    """Objects of the shapes this budget exists to keep out."""
    log = service.provenance
    index = service.incremental._data_index
    store = service.incremental.store
    rows = [row for row in store._by_row if row]
    distinct_rows = len(set(rows))
    columns = {
        name: value for name, value in vars(index).items() if isinstance(value, list)
    }
    per_row = {
        name: column for name, column in columns.items() if len(column) == len(index.ids)
    }
    return {
        "corpus columns holding a record or a view": [
            f"{name}: {type(value).__name__}"
            for name, column in columns.items()
            for value in column
            if isinstance(value, (ProductItem, PreparedItem))
        ],
        "a corpus holding a str or tuple per row besides ids": sorted(
            name
            for name, column in per_row.items()
            if name != "ids" and any(isinstance(value, (str, tuple)) for value in column)
        ),
        "an attributes column": ["attributes"] if index.attributes is not None else [],
        "a series store holding lines": [
            name
            for name, value in vars(service.series).items()
            if isinstance(value, (deque, list))
            and any(type(entry) is not int for entry in value)
        ],
        "corpus columns holding a set per row": [
            name
            for name, column in columns.items()
            if any(isinstance(value, (set, frozenset)) for value in column)
        ],
        "posting lists or store columns that are not arrays": [
            key
            for table in (index._postings, store._by_rule)
            for key, posted in table.items()
            if not isinstance(posted, array)
        ],
        "store rows that are not shared": (
            [f"{len(rows)} row objects for {distinct_rows} distinct rows"]
            if len({id(row) for row in rows}) > distinct_rows
            else []
        ),
        "an engine holding a fired view": (
            ["_view"] if service.incremental._view is not None else []
        ),
        "a write-ahead log holding records, lines or by-item entries": [
            name
            for name, value in vars(log).items()
            if isinstance(value, (deque, dict, list)) and name != "_starts"
        ] + [
            type(start).__name__
            for start in log._starts
            if type(start) is not int
        ],
    }


def _live_world(root, attribute_rule=False):
    """(B/item over the measured batches, offenders, items served)."""
    service = StreamService(
        root, ServiceConfig(seed=7, training=0), fsync=False
    ).start()
    if attribute_rule:
        service.chimera.rule_sets()["attr-value"].add(
            AttributeRule("isbn", "books", rule_id="resident-isbn")
        )
    service.run(WARMUP_BATCHES)
    warm_items = service.totals["items"]
    with _traced_growth() as grown:
        service.run(MEASURED_BATCHES)
    items = service.totals["items"]
    offenders = _retention_offenders(service)
    service.close()
    return grown[0] / (items - warm_items), offenders, items


@pytest.fixture(scope="module")
def readings(tmp_path_factory):
    base = tmp_path_factory.mktemp("resident")
    root = str(base / "run")
    out = {}
    out["live_b_per_item"], out["live_offenders"], items = _live_world(root)
    out["attribute_b_per_item"], out["attribute_offenders"], _ = _live_world(
        str(base / "attribute"), attribute_rule=True
    )

    # One untraced resume warms what is process-global (the interned
    # vocabulary), so the traced one reads the world alone. Its item ids
    # are kept, so the traced world's interned ids resolve to them and the
    # process-wide interned-string table, whose resizes step with
    # everything else the process ever interned, does not grow inside the
    # trace; the bytes of those shared id strings are added back. Closing
    # the warm handle releases its world; nothing has to delete it.
    warm = StreamService(root, fsync=False).start()
    warm_ids = list(warm.incremental._data_index._row_by_id)
    warm.close()
    with _traced_growth() as grown:
        resumed = StreamService(root, fsync=False).start()
    assert resumed.totals["items"] == items
    shared_id_bytes = sum(map(sys.getsizeof, warm_ids))
    out["resumed_b_per_item"] = (grown[0] + shared_id_bytes) / items
    out["resumed_offenders"] = _retention_offenders(resumed)
    resumed.close()
    return out


def test_live_world_bytes_per_item_within_budget(readings):
    assert readings["live_b_per_item"] <= budgets.LIVE_B_PER_ITEM


def test_resumed_world_bytes_per_item_within_budget(readings):
    assert readings["resumed_b_per_item"] <= budgets.RESUMED_B_PER_ITEM


def test_attribute_world_bytes_per_item_within_budget(readings):
    assert readings["attribute_b_per_item"] <= budgets.ATTRIBUTE_B_PER_ITEM


@pytest.mark.parametrize("world", ["live", "resumed", "attribute"])
def test_nothing_retains_probe_sets_deques_or_decoded_records(readings, world):
    """No world holds a record, a view or a set per row, nor a fired view
    (no served read builds one), and store rows are shared; only the world
    tracking an attribute rule holds an attributes column."""
    offenders = readings[f"{world}_offenders"]
    expected = (
        {"an attributes column": ["attributes"]}
        if world == "attribute" else {}
    )
    assert {what: found[:3] for what, found in offenders.items() if found} == expected


def _strings_of(service: StreamService) -> list:
    """The interned strings a world holds (its vocabulary and item ids).
    Kept alive across a traced run of the same seed, the process-wide
    interned-string table gains no entry, so its resizes do not count."""
    index = service.incremental._data_index
    return list(index._vocabulary) + list(index._row_by_id)


def _closed_handle_bytes(root, training):
    """Bytes a handle still reaches once ``close()`` has returned: it is
    started, serves the live world's 43 batches and closes inside the
    trace, and is itself alive at the reading. An untraced twin run
    first warms what is process-global."""
    config = ServiceConfig(seed=7, training=training)
    warm = StreamService(f"{root}-warm", config, fsync=False).start()
    warm.run(WARMUP_BATCHES + MEASURED_BATCHES)
    shared = _strings_of(warm)
    warm.close()
    with _traced_growth() as grown:
        service = StreamService(root, config, fsync=False).start()
        service.run(WARMUP_BATCHES + MEASURED_BATCHES)
        service.close()
    assert service.ordinal == WARMUP_BATCHES + MEASURED_BATCHES and shared
    return grown[0]


def _refused_handle_bytes(root):
    """Bytes a handle reaches after ``start()`` refused ``root``, whose
    checkpointed head was overwritten: resume builds the whole world
    before the digest check turns it down."""
    warm = StreamService(root, fsync=False).start()
    shared = _strings_of(warm)
    warm.close()
    path = f"{root}/{CHECKPOINT_NAME}"
    with open(path) as handle:
        state = json.load(handle)
    state["digest_chain"] = "0" * 64
    with open(path, "w") as handle:
        json.dump(state, handle)
    refused = ""
    with _traced_growth() as grown:
        service = StreamService(root, fsync=False)
        try:
            service.start()
        except ValueError as error:
            refused = str(error)
    assert "digest mismatch" in refused and not service._started and shared
    return grown[0]


@pytest.fixture(scope="module")
def closed_handles(tmp_path_factory):
    base = tmp_path_factory.mktemp("closed")
    out = {
        f"training={training}": _closed_handle_bytes(str(base / f"t{training}"), training)
        for training in (0, 120)
    }
    out["refused"] = _refused_handle_bytes(str(base / "t0"))
    return out


@pytest.mark.parametrize("handle", ["training=0", "training=120", "refused"])
def test_a_closed_handle_holds_no_world(closed_handles, handle):
    """``close()`` (and a refused ``start()``) drops every reference the
    start made: what the handle still reaches is its scalars, not the
    pipeline, engine, corpus, repository, provenance, tracker, generator
    or metrics of the world it ran."""
    assert closed_handles[handle] <= budgets.CLOSED_HANDLE_B


_PATTERNS = ("rings?", "gold bands?", "silver hoops?", "pearl necklaces?")


def _churned_repository(root) -> int:
    """A change log of adds, a snapshot, replaces, disables, removes,
    enables and a second snapshot; returns its line count."""
    with RuleRepository.open(root, fsync=False) as repository:
        rules = RuleSet(name="em")
        repository.bind("em", rules)
        ids = [f"r{n:04d}" for n in range(500)]
        for n, rule_id in enumerate(ids):
            rules.add(WhitelistRule(_PATTERNS[n % 4], "rings", rule_id=rule_id))
        repository.snapshot("first")
        for n in range(0, 500, 2):
            rules.replace(WhitelistRule(_PATTERNS[(n + 1) % 4], "rings", rule_id=ids[n]))
        for n in range(1, 500, 4):
            rules.disable(ids[n])
        for n in range(3, 500, 8):
            rules.remove(ids[n])
        for n in range(1, 500, 8):
            rules.enable(ids[n])
        repository.snapshot("second")
        return len(repository.log)


def test_reopened_repository_bytes_per_change_within_budget(tmp_path):
    """A reopened repository holds its live rules and, per change, an
    offset and the fold's indices: no decoded entry, no payload copy and
    no decoded snapshot (each is read back from its line on demand)."""
    root = str(tmp_path / "repo")
    lines = _churned_repository(root)
    assert lines >= 1_000
    RuleRepository.open(root, fsync=False).close()  # warms what is process-global
    with _traced_growth() as grown:
        repository = RuleRepository.open(root, fsync=False)
    decoded = [
        value
        for value in (
            list(vars(repository.log).values())
            + [start for by_ns in repository._snapshots.values() for start in by_ns.values()]
            + [
                start
                for state in repository._namespaces.values()
                for start in state.payloads.values()
            ]
        )
        if isinstance(value, (list, dict))
    ]
    repository.close()
    assert grown[0] / lines <= budgets.RESUMED_B_PER_CHANGE
    assert decoded == []


_WORDS = ("denim", "jeans", "slim", "oak", "desk", "lamp", "gold", "ring")
_TYPES = ("jeans", "desks", "lamps", "rings", "sofas")


def test_a_reopened_rule_base_shares_its_strings(tmp_path):
    """Rules replayed from the change log share equal strings — tokens,
    target types, authors, provenances — as the induced set that wrote
    them does, instead of a decoded copy of each per rule."""
    root = str(tmp_path / "repo")
    with RuleRepository.open(root, fsync=False) as repository:
        rules = RuleSet(name="induced")
        repository.bind("induced", rules)
        for n in range(200):
            rules.add(SequenceRule(
                (_WORDS[n % 8], _WORDS[(n // 8 + 1) % 8]), _TYPES[n % 5],
                rule_id=f"seq-{n:04d}", author="rulegen", provenance="rulegen",
            ))
    with RuleRepository.open(root, fsync=False) as repository:
        bound = RuleSet(name="induced")
        repository.bind("induced", bound)
    assert len(bound) == 200
    first = {}
    for rule in bound:
        for value in (*rule.token_sequence, rule.target_type, rule.author, rule.provenance):
            assert first.setdefault(value, value) is value
    assert set(first) == {*_WORDS, *_TYPES, "rulegen"}
