"""Durability and rule-state properties for the repository layer.

Covers the bugfix sweep's regression surface: crash-safe atomic writes
and fsync'd appends (:mod:`repro.core.durability`), cross-ruleset rule
aliasing, token-based subscriptions, and the revision-watermark
versioned-identity guarantee under remove/re-add churn.
"""

import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RuleSet, WhitelistRule, load_ruleset, save_ruleset
from repro.core.durability import (
    JsonlAppender,
    atomic_write_json,
    atomic_write_text,
    iter_jsonl,
    read_jsonl,
    scan_jsonl,
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
        before the cut survives, the torn tail is ignored — the store is
        always readable at the previous durable state."""
        path = str(tmp_path / "log.jsonl")
        with ChangeLog(path) as log:
            for seq in range(1, 6):
                log.append(_entry(seq))
        with open(path, "rb") as handle:
            raw = handle.read()
        boundaries = [i for i, byte in enumerate(raw) if byte == ord("\n")]
        for cut in range(len(raw) + 1):
            crashed = str(tmp_path / "crashed.jsonl")
            with open(crashed, "wb") as handle:
                handle.write(raw[:cut])
            records, torn = scan_jsonl(crashed)
            complete = sum(1 for b in boundaries if b < cut)
            assert len(records) == complete
            assert [r["seq"] for r in records] == list(range(1, complete + 1))
            assert torn == cut - (boundaries[complete - 1] + 1 if complete else 0)
            # The line-by-line reader stops at the same torn tail.
            assert list(iter_jsonl(crashed)) == records

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
        records, torn = scan_jsonl(path)
        assert torn == 0
        assert [r["seq"] for r in records] == [1, 2, 3]

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
        path = str(tmp_path / "data.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"i":1}\n\n{"i":2}\nnot json\n{"i":3}\n')
        records = iter_jsonl(path)
        assert [next(records)["i"], next(records)["i"]] == [1, 2]
        with pytest.raises(ValueError):  # decoded only when reached
            next(records)

    def test_appender_offset_counts_acknowledged_bytes(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        with JsonlAppender(path, fsync=False) as appender:
            assert appender.offset() == 0
            appender.append({"i": 1})
            assert appender.offset() == os.path.getsize(path) == len(b'{"i":1}\n')
        with JsonlAppender(path, fsync=False) as appender:  # reopen: append mode
            appender.append({"i": 2})
            assert appender.offset() == os.path.getsize(path)

    def test_appender_records_are_one_line_each(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        with JsonlAppender(path) as appender:
            for index in range(10):
                appender.append({"i": index, "text": "x\ny"})
        records = read_jsonl(path)
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


# -- revision watermark (satellite 3) ---------------------------------------------


class TestRevisionWatermark:
    def test_revisions_monotone_across_remove_readd(self):
        ruleset = RuleSet(name="w")
        rule = wl("rings?")
        ruleset.add(rule)
        r1 = ruleset.revision(rule.rule_id)
        ruleset.replace(rule)
        r2 = ruleset.revision(rule.rule_id)
        ruleset.remove(rule.rule_id)
        ruleset.add(rule)
        r3 = ruleset.revision(rule.rule_id)
        assert r1 < r2 < r3

    def test_revisions_dict_only_holds_live_rules(self):
        ruleset = RuleSet(name="w")
        for _ in range(50):
            rule = wl()
            ruleset.add(rule)
            ruleset.remove(rule.rule_id)
        keeper = wl()
        ruleset.add(keeper)
        assert set(ruleset._revisions) == {keeper.rule_id}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["add", "remove", "replace"]),
                    min_size=1, max_size=60),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_versioned_identity_under_churn(self, script, seed):
        """Property: for every rule id, the sequence of revisions it is
        ever assigned is strictly increasing — across add, replace, AND
        remove/re-add — and ``_revisions`` tracks exactly the live ids."""
        rng = random.Random(seed)
        ruleset = RuleSet(name="churn")
        history = {}  # rule_id -> last revision ever seen
        pool = [f"churn-{i}" for i in range(6)]
        for op in script:
            rule_id = rng.choice(pool)
            rule = WhitelistRule("rings?", "rings", rule_id=rule_id)
            if op == "add" and rule_id not in ruleset:
                ruleset.add(rule)
            elif op == "remove" and rule_id in ruleset:
                ruleset.remove(rule_id)
                continue
            elif op == "replace" and rule_id in ruleset:
                ruleset.replace(rule)
            else:
                continue
            revision = ruleset.revision(rule_id)
            assert revision > history.get(rule_id, 0), \
                f"revision regressed for {rule_id}"
            history[rule_id] = revision
        assert set(ruleset._revisions) == {r.rule_id for r in ruleset}


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
