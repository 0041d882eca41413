"""The contracts a served root's files keep, checked on the files.

Two roots are made in-process, one per kind of config ``repro serve``
runs: a seed-7 ``training=0`` daemon and a seed-7 ``training=120`` one
(the default config's learner). Each is killed at a barrier (a
:class:`~repro.testing.faults.CrashPlan`) inside its third batch, then
resumed to completion. An environment variable, ``REPRO_SERVED_ROOT``,
names one root to check instead: CI's serve-smoke job hands in the root
it ``kill -9``-ed and resumed through ``repro serve``, so one test holds
both. Every test checks every root.

The checkpoint is flat: it holds no match store and no health windows
(the logs determine both), its top-level key set is exact, so a derivable
field written back (the analyst's RNG, the rule counter, the clock, the
batch counters, the totals, the generator's id counter) fails, and each
RNG is a ``{drawn, check}`` position, never a packed state. After a
clean resume to completion every log ends at its checkpointed offset.

The logs read back: the provenance window is the spool's tail, the series
tail is the file's last lines, ``repro repo log`` / ``blame`` print the
change log's own lines. A series delta and the checkpoint hold only what
moved. Resuming the root reaches the identity an uninterrupted run of its
config reaches at its ordinal, holding no record in memory.
"""

from __future__ import annotations

import json
import os
from typing import List

import pytest

from repro.cli import main
from repro.observability.provenance import ProvenanceLog, ProvenanceRecord
from repro.service import ServiceConfig, StreamService
from repro.service.checkpoint import CHECKPOINT_NAME, CHECKPOINT_VERSION
from repro.service.harness import identity_equal, uninterrupted_identity
from repro.service.series import SeriesStore
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
#: Counter families nothing moves; the registry no longer holds them.
DROPPED_FAMILIES = {"exec_cache_hits_total", "exec_cache_misses_total", "exec_retries_total"}


def _crashed_and_resumed(root: str, training: int) -> str:
    crashed = StreamService(
        root, ServiceConfig(seed=7, training=training), fsync=False,
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
def roots(tmp_path_factory) -> List[str]:
    given = os.environ.get(ROOT_ENV)
    if given:
        return [given]
    return [
        _crashed_and_resumed(str(tmp_path_factory.mktemp(f"served-{training}") / "root"), training)
        for training in (0, 120)
    ]


def _state(root: str) -> dict:
    with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
        return json.load(handle)


def _lines(root: str, log: str) -> List[bytes]:
    with open(os.path.join(root, LOGS[log]), "rb") as handle:
        return handle.read().splitlines()


def test_the_checkpoint_holds_exactly_the_v7_keys(roots):
    for root in roots:
        state = _state(root)
        assert state["version"] == CHECKPOINT_VERSION == 7, root
        assert sorted(state) == KEYS, root


@pytest.mark.parametrize("section", ["stream", "generator"])
def test_each_rng_is_a_position(roots, section):
    for root in roots:
        state = _state(root)
        assert sorted(state[section]) == ["rng"], root
        position = state[section]["rng"]
        assert isinstance(position, dict) and sorted(position) == ["check", "drawn"], position
        assert type(position["drawn"]) is int and position["drawn"] >= 0
        assert len(position["check"]) == 16 and int(position["check"], 16) >= 0


def test_every_log_ends_at_its_offset(roots):
    for root in roots:
        offsets = _state(root)["offsets"]
        assert sorted(offsets) == sorted(LOGS), root
        for name, log in LOGS.items():
            size = os.path.getsize(os.path.join(root, log))
            assert offsets[name] == size, (root, name, offsets[name], size)


def test_the_checkpoint_is_flat(roots):
    """No match store, no health windows, no item id: it does not grow
    with items served."""
    for root in roots:
        assert not {"executor", "tracker"} & set(_state(root)), root
        size = os.path.getsize(os.path.join(root, CHECKPOINT_NAME))
        assert size < 256 * 1024, f"{root}: checkpoint.json is {size} bytes"
        with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
            assert '"item-' not in handle.read(), root


def test_the_provenance_window_is_the_spools_tail(roots):
    """The write-ahead log keeps only line offsets: its window decodes to
    the spool's own last lines, and ``why`` finds the last record."""
    for root in roots:
        lines = _lines(root, "spool")
        log = ProvenanceLog.replay(os.path.join(root, LOGS["spool"]), fsync=False)
        try:
            window = [ProvenanceRecord.from_dict(json.loads(line))
                      for line in lines[-log.capacity:]]
            assert len(log) == len(window), (root, len(log), len(window))
            assert log.records == window, root
            last = window[-1]
            assert log.why(last.item_id)[-1] == last, (root, last.item_id)
        finally:
            log.close()


def test_the_series_tail_is_the_files_last_lines(roots):
    for root in roots:
        lines = _lines(root, "series")
        with SeriesStore(os.path.join(root, LOGS["series"]), fsync=False) as series:
            assert series.tail(5) == [json.loads(line) for line in lines[-5:]], root


def test_no_delta_holds_an_idle_counter_or_histogram(roots):
    for root in roots:
        for number, line in enumerate(map(json.loads, _lines(root, "series")), 1):
            delta = line["delta"]
            idle = [name for name, value in delta["counters"].items() if value == 0]
            idle += [name for name, hist in delta["histograms"].items() if hist["count"] == 0]
            assert not idle, (root, number, idle)


def test_the_checkpoint_holds_no_family_nothing_moves(roots):
    for root in roots:
        families = {family[0] for family in _state(root)["metrics"]["counters"]}
        assert not families & DROPPED_FAMILIES, (root, sorted(families & DROPPED_FAMILIES))


def test_repo_log_and_blame_print_the_change_log(roots, capsys):
    """The repository keeps only line offsets: ``repro repo log`` and
    ``repro repo blame`` stream the file, so they print its own lines."""

    def repo(*args):
        assert main(["repo", *args, "--root", os.path.join(root, "repo"), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    for root in roots:
        lines = [json.loads(line) for line in _lines(root, "changelog")]
        assert repo("log") == lines, root
        rule_id = next(line["rule_id"] for line in lines if line.get("rule_id"))
        mine = [line for line in lines if line.get("rule_id") == rule_id]
        assert repo("blame", rule_id) == mine[::-1], (root, rule_id)


def test_resuming_equals_an_uninterrupted_run(roots, tmp_path):
    """The root resumes to the identity surface (digest chain, tracker
    state, incidents, totals) an uninterrupted run of its own config
    reaches at its ordinal, and holds no record in memory."""
    for number, root in enumerate(roots):
        state = _state(root)
        with StreamService(root, fsync=False) as resumed:
            identity = resumed.identity()
            assert resumed.resident()["records_held"] == 0, root
        reference = uninterrupted_identity(
            str(tmp_path / f"reference-{number}"), state["ordinal"],
            ServiceConfig(**state["config"]), fsync=False,
        )
        assert identity_equal(identity, reference), f"{root} diverged from an uninterrupted run"
