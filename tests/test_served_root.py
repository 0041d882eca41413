"""The contracts a served root's files keep, checked on the files.

The root is made in-process: a seed-7 ``training=0`` daemon is killed at
a barrier (a :class:`~repro.testing.faults.CrashPlan`) inside its third
batch, then resumed to completion. An environment variable,
``REPRO_SERVED_ROOT``, names another root to check instead: CI's
serve-smoke job hands in the root it ``kill -9``-ed and resumed through
``repro serve``, so one test holds both.

The checkpoint is flat: it holds no match store and no health windows
(the logs determine both), its top-level key set is exact, so a derivable
field written back (the analyst's RNG, the rule counter, the clock, the
batch counters, the totals, the generator's id counter) fails, and each
RNG is a ``{drawn, check}`` position, never a packed state. After a
clean resume to completion every log ends at its checkpointed offset.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.service import ServiceConfig, StreamService
from repro.service.checkpoint import CHECKPOINT_NAME, CHECKPOINT_VERSION
from repro.testing.faults import CrashPlan, SimulatedCrash

ROOT_ENV = "REPRO_SERVED_ROOT"

KEYS = [
    "config", "digest_chain", "fingerprint", "generator", "incidents",
    "last_batch_id", "metrics", "offsets", "ordinal", "prev_digest_chain",
    "repo_head_seq", "stream", "version",
]
LOGS = {
    "journal": "batches.jsonl",
    "spool": "provenance.jsonl",
    "series": "series.jsonl",
    "changelog": os.path.join("repo", "changelog.jsonl"),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> str:
    given = os.environ.get(ROOT_ENV)
    if given:
        return given
    root = str(tmp_path_factory.mktemp("served") / "root")
    config = ServiceConfig(seed=7, training=0)
    crashed = StreamService(
        root, config, fsync=False,
        crash_plan=CrashPlan(crash_at="classified", on_hit=3),
    ).start()
    with pytest.raises(SimulatedCrash):
        crashed.run_to(5)
    for log in (crashed.store, crashed.series, crashed.provenance,
                crashed.repository.log):
        log.close()
    with StreamService(root, fsync=False) as resumed:
        assert resumed.resumed and resumed.ordinal == 2
        resumed.run_to(5)
    return root


@pytest.fixture(scope="module")
def state(root) -> dict:
    with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
        return json.load(handle)


def test_the_checkpoint_holds_exactly_the_v7_keys(state):
    assert state["version"] == CHECKPOINT_VERSION == 7
    assert sorted(state) == KEYS


@pytest.mark.parametrize("section", ["stream", "generator"])
def test_each_rng_is_a_position(state, section):
    assert sorted(state[section]) == ["rng"]
    position = state[section]["rng"]
    assert isinstance(position, dict) and sorted(position) == ["check", "drawn"], position
    assert type(position["drawn"]) is int and position["drawn"] >= 0
    assert len(position["check"]) == 16 and int(position["check"], 16) >= 0


def test_every_log_ends_at_its_offset(root, state):
    assert sorted(state["offsets"]) == sorted(LOGS)
    for name, log in LOGS.items():
        size = os.path.getsize(os.path.join(root, log))
        assert state["offsets"][name] == size, (name, state["offsets"][name], size)


def test_the_checkpoint_is_flat(root, state):
    """No match store, no health windows, no item id: it does not grow
    with items served."""
    assert not {"executor", "tracker"} & set(state)
    size = os.path.getsize(os.path.join(root, CHECKPOINT_NAME))
    assert size < 256 * 1024, f"checkpoint.json is {size} bytes"
    with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
        assert '"item-' not in handle.read()
