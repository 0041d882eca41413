"""Durability and rule-state properties for the repository layer.

Covers the bugfix sweep's regression surface: crash-safe atomic writes
and fsync'd appends (:mod:`repro.core.durability`), cross-ruleset rule
aliasing, token-based subscriptions, and the repository's
versioned-identity guarantee under remove/re-add and rollback churn.
"""

import itertools
import json
import os
import random
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RuleSet, WhitelistRule, load_ruleset, save_ruleset
from repro.core.serialize import rule_to_dict
from repro.core.durability import (
    AppendLog,
    atomic_write_json,
    atomic_write_text,
    json_line,
    read_lines,
)
from repro.repository import ChangeEntry, ChangeLog, RuleRepository

_ids = itertools.count(1)


def wl(pattern: str = "rings?", target: str = "rings") -> WhitelistRule:
    return WhitelistRule(pattern, target, rule_id=f"prop-{next(_ids):05d}")


# -- atomic writes ----------------------------------------------------------------


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "doc.json")
        for payload in ({"v": 1}, {"v": 2}, {"v": 3}):
            atomic_write_json(path, payload)
        with open(path) as handle:
            assert json.load(handle) == {"v": 3}
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_unique_temp_names_no_interleaved_corruption(self, tmp_path):
        """Two in-flight writers never share a temp file (the old fixed
        ``f"{path}.tmp"`` name let them corrupt each other)."""
        import tempfile as tempfile_module

        path = str(tmp_path / "doc.json")
        seen = []
        original = tempfile_module.mkstemp

        def spy(*args, **kwargs):
            fd, name = original(*args, **kwargs)
            seen.append(name)
            return fd, name

        tempfile_module.mkstemp, saved = spy, tempfile_module.mkstemp
        try:
            atomic_write_text(path, "a")
            atomic_write_text(path, "b")
        finally:
            tempfile_module.mkstemp = saved
        assert len(seen) == 2 and seen[0] != seen[1]

    def test_failed_write_cleans_temp_and_keeps_old_content(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_text(path, "original")
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        with open(path) as handle:
            assert handle.read() == "original"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_ruleset_save_load_save_byte_identical(self, tmp_path):
        ruleset = RuleSet([wl("rings?"), wl("bands?", "rings")], name="rt")
        ruleset.disable(next(iter(ruleset)).rule_id)
        first = str(tmp_path / "first.json")
        second = str(tmp_path / "second.json")
        save_ruleset(ruleset, first)
        save_ruleset(load_ruleset(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


# -- crash-kill during append -----------------------------------------------------


def _entry(seq: int) -> ChangeEntry:
    return ChangeEntry(seq=seq, at=float(seq), namespace="em", op="add",
                       author="a", rule_id=f"r{seq}", revision=seq,
                       rule={"pad": "x" * seq})


class TestCrashDuringAppend:
    def test_any_byte_truncation_leaves_log_readable(self, tmp_path):
        """Kill the appender at ANY byte offset: every complete record
        before the cut survives, and opening the log cuts exactly the torn
        tail — the store is always readable at the previous durable state."""
        path = str(tmp_path / "log.jsonl")
        with ChangeLog(path) as log:
            for seq in range(1, 6):
                log.append(_entry(seq))
        with open(path, "rb") as handle:
            raw = handle.read()
        boundaries = [i for i, byte in enumerate(raw) if byte == ord("\n")]
        starts = [0] + [b + 1 for b in boundaries]
        for cut in range(len(raw) + 1):
            crashed = str(tmp_path / "crashed.jsonl")
            with open(crashed, "wb") as handle:
                handle.write(raw[:cut])
            lines = list(read_lines(crashed))
            complete = sum(1 for b in boundaries if b < cut)
            kept = starts[complete]
            assert [json.loads(line)["seq"] for _, line in lines] == \
                list(range(1, complete + 1))
            assert [offset for offset, _ in lines] == starts[:complete]
            with AppendLog(crashed, fsync=False) as reopened:
                assert reopened.torn_bytes_repaired == cut - kept
                assert reopened.end == kept == os.path.getsize(crashed)
            assert list(read_lines(crashed)) == lines

    def test_reopen_after_crash_continues_cleanly(self, tmp_path):
        """A ChangeLog reopened over a torn tail truncates it and appends
        on a clean line boundary — no record ever concatenates onto a
        torn fragment."""
        path = str(tmp_path / "log.jsonl")
        with ChangeLog(path) as log:
            log.append(_entry(1))
            log.append(_entry(2))
        size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 3, "at": 3.0, "ns": "em", "op"')
        with ChangeLog(path) as log:
            assert log.torn_bytes_repaired > 0
            assert os.path.getsize(path) == size
            log.append(_entry(3))
        with open(path, "rb") as handle:
            assert handle.read().endswith(b"\n")
        assert [json.loads(line)["seq"] for _, line in read_lines(path)] == [1, 2, 3]

    def test_repository_survives_crash_kill_mid_append(self, tmp_path):
        """End to end: crash-kill the repository between fsync'd appends;
        reopening replays exactly the acknowledged changes."""
        root = str(tmp_path / "store")
        with RuleRepository.open(root) as repo:
            for _ in range(5):
                repo.add("em", wl())
            acked = repo.rule_ids("em")
        log_path = os.path.join(root, "changelog.jsonl")
        with open(log_path, "ab") as handle:
            handle.write(b'{"seq": 6, "at": 9.9, "ns": "em", "op": "add"')
        with RuleRepository.open(root) as repo:
            assert repo.rule_ids("em") == acked
            assert repo.log.torn_bytes_repaired > 0

    def test_iter_jsonl_is_lazy_and_skips_blank_lines(self, tmp_path):
        """``read_lines`` yields each complete, non-empty line with its
        offset, one at a time: a line that does not decode is found only
        when the caller reaches it."""
        path = str(tmp_path / "data.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"i":1}\n\n{"i":2}\nnot json\n{"i":3}\n')
        lines = read_lines(path)
        assert next(lines) == (0, b'{"i":1}\n')
        assert next(lines) == (9, b'{"i":2}\n')
        offset, line = next(lines)
        assert offset == 17
        with pytest.raises(ValueError):
            json.loads(line)
        assert list(lines) == [(26, b'{"i":3}\n')]
        assert list(read_lines(str(tmp_path / "missing.jsonl"))) == []

    def test_appender_offset_counts_acknowledged_bytes(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        with AppendLog(path, fsync=False) as log:
            assert log.end == log.sync() == 0
            assert log.append(json_line({"i": 1})) == 0
            assert log.sync() == os.path.getsize(path) == len(b'{"i":1}\n')
        with AppendLog(path, fsync=False) as log:  # reopen: append at the end
            assert log.append(json_line({"i": 2})) == len(b'{"i":1}\n')
            assert log.sync() == os.path.getsize(path)

    def test_appender_records_are_one_line_each(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        with AppendLog(path) as log:
            for index in range(10):
                log.append(json_line({"i": index, "text": "x\ny"}))
                log.sync()
        records = [json.loads(line) for _, line in read_lines(path)]
        assert [r["i"] for r in records] == list(range(10))
        assert all(r["text"] == "x\ny" for r in records)


# -- rule aliasing regression (satellite 2) ---------------------------------------


class TestRuleAliasing:
    def test_two_rulesets_sharing_a_rule_do_not_alias(self):
        """Regression: two rule sets built from the same Rule object used
        to share its mutable ``enabled`` flag — disabling in one silently
        disabled it in the other."""
        rule = wl("rings?")
        a = RuleSet([rule], name="a")
        b = RuleSet([rule], name="b")
        a.disable(rule.rule_id)
        assert not a.is_enabled(rule.rule_id)
        assert b.is_enabled(rule.rule_id)  # b is unaffected
        assert rule.enabled  # the caller's object is unaffected too
        b_events = []
        b.subscribe(lambda event, r: b_events.append(event))
        a.enable(rule.rule_id)
        assert b_events == []  # a's mutations never leak into b's feed

    def test_registry_deployed_ruleset_does_not_alias_registry_state(self):
        repo = RuleRepository()
        rule = wl("rings?")
        repo.add("chimera", rule)
        deployed = repo.materialize("chimera")
        deployed.disable(rule.rule_id)
        # the repository's own copy of the enabled state is untouched
        assert repo.is_enabled("chimera", rule.rule_id)
        assert repo.materialize("chimera").is_enabled(rule.rule_id)


# -- subscriptions (satellite 4) --------------------------------------------------


class TestSubscriptionTokens:
    def test_double_subscribe_unsubscribes_independently(self):
        ruleset = RuleSet(name="s")
        calls = []

        def listener(event, rule):
            calls.append(event)

        first = ruleset.subscribe(listener)
        second = ruleset.subscribe(listener)
        ruleset.add(wl())
        assert calls == ["added", "added"]
        first()  # removing one registration must not remove the other
        ruleset.add(wl())
        assert calls == ["added", "added", "added"]
        second()
        ruleset.add(wl())
        assert calls == ["added", "added", "added"]
        first()  # idempotent

    def test_unsubscribe_is_stable_under_other_unsubscribes(self):
        ruleset = RuleSet(name="s")
        seen = {"a": 0, "b": 0}
        unsub_a = ruleset.subscribe(lambda e, r: seen.__setitem__("a", seen["a"] + 1))
        ruleset.subscribe(lambda e, r: seen.__setitem__("b", seen["b"] + 1))
        unsub_a()
        ruleset.add(wl())
        assert seen == {"a": 0, "b": 1}


# -- revisions under churn on a bound set -----------------------------------------

_script_op = st.tuples(
    st.sampled_from(
        ["add", "replace", "remove", "enable", "disable", "snapshot", "rollback"]
    ),
    st.integers(min_value=0, max_value=1),  # two ids, so ops collide
)


class TestRepositoryRevisions:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_script_op, min_size=6, max_size=40))
    # Rollbacks that need every op kind: a disable, a replace then an
    # enable, a remove, then a re-add.
    @example([
        ("add", 0), ("disable", 0), ("add", 1), ("snapshot", 0), ("enable", 0),
        ("disable", 1), ("replace", 1), ("rollback", 0), ("remove", 0),
        ("snapshot", 0), ("add", 0), ("rollback", 1), ("rollback", 0),
    ])
    def test_revisions_under_random_scripts(self, script):
        """Property: on a bound set, through add / replace / remove /
        re-add / enable / disable / snapshot / rollback, each id's
        revisions strictly increase (a rollback re-add or replace restores
        the snapshot's recorded revision instead), the live revisions
        cover exactly the live ids, and the bound set equals
        ``materialize`` in ids, order, flags and conditions."""
        ruleset = RuleSet(name="churn")
        repo = RuleRepository()
        repo.bind("em", ruleset)
        highest = {}  # rule_id -> highest revision it was ever given
        snapshots = []
        patterns = ("rings?", "bands?", "hoops?")
        for step, (op, pick) in enumerate(script):
            rule_id = f"churn-{pick}"
            seen = len(repo.log)
            restored = {}
            if op == "add" and rule_id not in ruleset:  # a re-add after remove too
                ruleset.add(WhitelistRule(patterns[step % 3], "rings", rule_id=rule_id))
            elif op == "replace" and rule_id in ruleset:
                ruleset.replace(WhitelistRule(patterns[step % 3], "rings", rule_id=rule_id))
            elif op == "remove" and rule_id in ruleset:
                ruleset.remove(rule_id)
            elif op == "enable" and rule_id in ruleset:
                ruleset.enable(rule_id)
            elif op == "disable" and rule_id in ruleset:
                ruleset.disable(rule_id)
            elif op == "snapshot":
                snapshots.append(f"s{step}")
                repo.snapshot(snapshots[-1])
            elif op == "rollback" and snapshots:
                name = snapshots[pick % len(snapshots)]
                restored = dict(repo.get_snapshot(name)["em"].entries)
                before = repo.diff(None, name).values()
                result = repo.rollback(name)
                assert all(d.empty for d in repo.diff(None, name).values())
                assert (result.removed, result.added, result.replaced, result.flips) == (
                    sum(len(d.removed) for d in before),
                    sum(len(d.added) for d in before),
                    sum(len(d.replaced) for d in before),
                    sum(len(d.enabled) + len(d.disabled) for d in before),
                )
            for entry in map(repo.log.entry, range(seen, len(repo.log))):
                if entry.op not in ("add", "replace"):
                    continue
                if entry.rule_id in restored:
                    assert entry.revision == restored[entry.rule_id][0]
                else:
                    assert entry.revision > highest.get(entry.rule_id, 0), entry
                highest[entry.rule_id] = max(
                    highest.get(entry.rule_id, 0), entry.revision
                )
            live = [rule.rule_id for rule in ruleset]
            assert repo.rule_ids("em") == sorted(live)
            assert all(repo.revision("em", r) <= highest[r] for r in live)
            built = repo.materialize("em")
            assert [rule_to_dict(r) for r in built] == \
                [rule_to_dict(r) for r in ruleset]
            if restored:
                assert repo.diff(name, None)["em"].empty

    def test_bind_empty_set_adopts_a_reopened_root(self, tmp_path):
        """Binding an empty set to a reopened root adopts its live rules in
        order, with their flags, and logs nothing."""
        root = str(tmp_path / "store")
        with RuleRepository.open(root) as repo:
            ruleset = RuleSet(name="em")
            repo.bind("em", ruleset)
            first, second, _ = (ruleset.add(wl()) for _ in range(3))
            ruleset.disable(second.rule_id)
            ruleset.remove(first.rule_id)
            ruleset.add(first)  # re-added: now last
            expected = [(r.rule_id, r.enabled) for r in ruleset]
            changes = len(repo.log)
        with RuleRepository.open(root) as repo:
            adopted = RuleSet(name="em")
            repo.bind("em", adopted)
            assert [(r.rule_id, r.enabled) for r in adopted] == expected
            assert len(repo.log) == changes
            adopted.enable(second.rule_id)  # and the adopted set is bound
            assert repo.log.last.op == "enable"


# -- repository round-trip property ----------------------------------------------


class TestRepositoryRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_histories_replay_exactly(self, tmp_path_factory, seed):
        """Property: any sequence of repository operations replays from
        the change log to the identical namespace state."""
        rng = random.Random(seed)
        root = str(tmp_path_factory.mktemp("repo") / "store")
        with RuleRepository.open(root) as repo:
            live = []
            for step in range(rng.randint(1, 30)):
                roll = rng.random()
                if roll < 0.5 or not live:
                    rule = WhitelistRule(
                        "rings?", "rings", rule_id=f"seeded-{seed}-{step}"
                    )
                    repo.add("em", rule)
                    live.append(rule.rule_id)
                elif roll < 0.7:
                    victim = rng.choice(live)
                    repo.remove("em", victim)
                    live.remove(victim)
                elif roll < 0.85:
                    repo.set_enabled("em", rng.choice(live), rng.random() < 0.5)
                else:
                    victim = rng.choice(live)
                    repo.replace("em", WhitelistRule(
                        "bands?", "rings", rule_id=victim
                    ))
            expected = {
                rule_id: (repo.revision("em", rule_id),
                          repo.is_enabled("em", rule_id),
                          repo.rule_payload("em", rule_id))
                for rule_id in repo.rule_ids("em")
            }
        with RuleRepository.open(root) as repo:
            actual = {
                rule_id: (repo.revision("em", rule_id),
                          repo.is_enabled("em", rule_id),
                          repo.rule_payload("em", rule_id))
                for rule_id in repo.rule_ids("em")
            }
        assert actual == expected


def _query_surface(repo, snapshots):
    """Everything a repository answers about its history, by value."""
    changes = repo.changes()
    ids = sorted({entry.rule_id for entry in changes if entry.rule_id})
    refs = [None] + snapshots
    return {
        "changes": [entry.to_dict() for entry in changes],
        "tail": [entry.to_dict() for entry in repo.changes("em", limit=3)],
        "blame": {rule_id: repo.blame(rule_id) for rule_id in ids},
        "payloads": {
            (entry.rule_id, entry.revision): repo.rule_payload(
                "em", entry.rule_id, entry.revision
            )
            for entry in changes if entry.op in ("add", "replace")
        },
        "snapshots": {name: repo.get_snapshot(name) for name in repo.snapshot_names()},
        "diff": {(a, b): repo.diff(a, b, ["em"]) for a in refs for b in refs},
        "live": [rule_to_dict(rule) for rule in repo.materialize("em")],
    }


class TestReopenedQueries:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_script_op, min_size=4, max_size=30), st.integers(0, 7))
    def test_reopened_root_answers_as_the_live_repository(
        self, tmp_path_factory, script, pick
    ):
        """Property: a reopened root, which reads entries, payloads and
        snapshots back from their lines, answers ``changes()``,
        ``blame()``, ``rule_payload()``, ``get_snapshot()`` and ``diff()``
        equal to the live repository that wrote the log, and a
        ``rollback()`` on each does the same ops and leaves equal state."""
        base = tmp_path_factory.mktemp("repo")
        root, copy = str(base / "live"), str(base / "copy")
        live = RuleRepository.open(root, fsync=False)
        ruleset = RuleSet(name="em")
        live.bind("em", ruleset)
        snapshots = []
        patterns = ("rings?", "bands?", "hoops?")
        for step, (op, pick_id) in enumerate(script):
            rule_id = f"q-{pick_id}"
            if op == "add" and rule_id not in ruleset:
                ruleset.add(WhitelistRule(patterns[step % 3], "rings", rule_id=rule_id))
            elif op == "replace" and rule_id in ruleset:
                ruleset.replace(WhitelistRule(patterns[step % 3], "rings", rule_id=rule_id))
            elif op == "remove" and rule_id in ruleset:
                ruleset.remove(rule_id)
            elif op in ("enable", "disable") and rule_id in ruleset:
                (ruleset.enable if op == "enable" else ruleset.disable)(rule_id)
            elif op == "snapshot":
                snapshots.append(f"s{step}")
                live.snapshot(snapshots[-1])
            elif op == "rollback" and snapshots:
                live.rollback(snapshots[pick_id % len(snapshots)])
        shutil.copytree(root, copy)
        reopened = RuleRepository.open(copy, fsync=False)
        try:
            assert _query_surface(reopened, snapshots) == _query_surface(live, snapshots)
            if snapshots:
                seen = len(live.log)
                name = snapshots[pick % len(snapshots)]
                assert reopened.rollback(name) == live.rollback(name)
                assert reopened.changes()[seen:] == live.changes()[seen:]
                assert _query_surface(reopened, snapshots) == \
                    _query_surface(live, snapshots)
        finally:
            live.close()
            reopened.close()
