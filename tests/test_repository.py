"""Tests for the versioned rule repository (changelog, snapshots, rollback)."""

import itertools
import json
import os

import pytest

from repro.chimera import Chimera, IncidentManager
from repro.core import (
    DuplicateRuleError,
    RuleSet,
    UnknownRuleError,
    WhitelistRule,
)
from repro.execution.incremental import IncrementalExecutor
from repro.observability.metrics import MetricsRegistry
from repro.repository import (
    CHANGELOG_NAME,
    ChangeEntry,
    ChangeLog,
    RepositoryError,
    RuleRepository,
    bind_chimera,
)
from repro.utils.clock import SimClock

_ids = itertools.count(1)


def wl(pattern: str, target: str = "rings") -> WhitelistRule:
    return WhitelistRule(pattern, target, rule_id=f"repo-{next(_ids):05d}")


# -- change log -------------------------------------------------------------------


class TestChangeLog:
    def test_append_and_replay(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with ChangeLog(path) as log:
            log.append(ChangeEntry(seq=1, at=0.5, namespace="em", op="add",
                                   author="alice", rule_id="r1", revision=1,
                                   rule={"kind": "whitelist"}))
            log.append(ChangeEntry(seq=2, at=0.75, namespace="em", op="disable",
                                   author="bob", reason="noisy", rule_id="r1"))
        with ChangeLog(path) as log:
            assert len(log) == 2
            assert log.entry(0).rule == {"kind": "whitelist"}
            assert log.entry(1).reason == "noisy"
            assert log.last == log.entry(-1)
            assert log.next_seq == 3

    def test_append_only_seq_enforced(self, tmp_path):
        log = ChangeLog(str(tmp_path / "log.jsonl"))
        log.append(ChangeEntry(seq=1, at=0.0, namespace="em", op="add",
                               author="a", rule_id="r1", revision=1))
        with pytest.raises(ValueError, match="append-only"):
            log.append(ChangeEntry(seq=5, at=0.0, namespace="em", op="remove",
                                   author="a", rule_id="r1"))

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with ChangeLog(path) as log:
            log.append(ChangeEntry(seq=1, at=0.0, namespace="em", op="add",
                                   author="a", rule_id="r1", revision=1))
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "at": 0.1, "ns": "em"')  # crash mid-append
        with ChangeLog(path) as log:
            assert len(log) == 1
            assert log.torn_bytes_repaired > 0
            log.append(ChangeEntry(seq=2, at=0.2, namespace="em", op="remove",
                                   author="a", rule_id="r1"))
        with ChangeLog(path) as log:
            assert [entry.op for entry in log] == ["add", "remove"]

    def test_describe_lines(self):
        entry = ChangeEntry(seq=7, at=1.25, namespace="em", op="disable",
                            author="ops", reason="incident", rule_id="r9")
        text = entry.describe()
        assert "disable r9" in text and "ops" in text and "(incident)" in text


# -- repository core --------------------------------------------------------------


class TestRepository:
    def test_bind_records_existing_rules(self):
        ruleset = RuleSet([wl("rings?"), wl("bands?")], name="em")
        repo = RuleRepository()
        repo.bind("em", ruleset)
        assert repo.rule_ids("em") == sorted(r.rule_id for r in ruleset)
        assert all(entry.op == "add" for entry in repo.changes("em"))

    def test_double_bind_rejected(self):
        repo = RuleRepository()
        ruleset = RuleSet(name="em")
        repo.bind("em", ruleset)
        with pytest.raises(RepositoryError, match="already bound"):
            repo.bind("em", RuleSet(name="other"))

    def test_ruleset_mutations_are_recorded(self):
        ruleset = RuleSet(name="em")
        repo = RuleRepository()
        repo.bind("em", ruleset)
        rule = ruleset.add(wl("rings?"))
        with repo.attribution("alice", "tuning", provenance="ticket-7"):
            ruleset.disable(rule.rule_id)
        ops = [entry.op for entry in repo.changes("em")]
        assert ops == ["add", "disable"]
        disable = repo.changes("em")[-1]
        assert disable.author == "alice"
        assert disable.reason == "tuning"
        assert disable.provenance == "ticket-7"

    def test_attribution_scope_covers_direct_calls(self):
        # Ambient attribution applies to repository-driven mutations too,
        # not just changes arriving through the subscription feed —
        # explicit author/reason arguments still win over the scope.
        repo = RuleRepository()
        rule = wl("rings?")
        with repo.attribution("oncall", "drill", provenance="INC-7"):
            repo.add("em", rule)
            repo.set_enabled("em", rule.rule_id, False)
            repo.set_enabled("em", rule.rule_id, True, author="bob")
            repo.snapshot("mid")
        add, disable, enable, snap = repo.changes("em")
        assert (add.author, add.reason, add.provenance) == (
            "oncall", "drill", "INC-7")
        assert disable.author == "oncall"
        assert enable.author == "bob" and enable.provenance == "INC-7"
        assert snap.author == "oncall"
        # outside any scope, the repository's default author applies
        repo.set_enabled("em", rule.rule_id, False)
        assert repo.changes("em")[-1].author == repo.default_author

    def test_repo_mutations_reach_bound_ruleset_once(self):
        ruleset = RuleSet(name="em")
        repo = RuleRepository()
        repo.bind("em", ruleset)
        rule = wl("rings?")
        repo.add("em", rule, author="alice")
        assert rule.rule_id in ruleset
        repo.set_enabled("em", rule.rule_id, False, author="alice")
        assert not ruleset.is_enabled(rule.rule_id)
        # one log entry per mutation — no echo from the subscription feed
        assert [entry.op for entry in repo.changes("em")] == ["add", "disable"]
        repo.remove("em", rule.rule_id, author="alice")
        assert rule.rule_id not in ruleset

    def test_duplicate_and_unknown_rejected(self):
        repo = RuleRepository()
        rule = wl("rings?")
        repo.add("em", rule)
        with pytest.raises(DuplicateRuleError):
            repo.add("em", rule)
        with pytest.raises(UnknownRuleError):
            repo.remove("em", "nope")
        with pytest.raises(UnknownRuleError):
            repo.set_enabled("em", "nope", True)

    def test_namespaces_are_isolated(self):
        repo = RuleRepository()
        rule = wl("rings?")
        repo.add("em", rule)
        repo.add("ie", wl("rings?"))
        repo.set_enabled("em", rule.rule_id, False)
        assert not repo.is_enabled("em", rule.rule_id)
        assert repo.rule_ids("ie") != repo.rule_ids("em") or \
            repo.is_enabled("ie", repo.rule_ids("ie")[0])

    def test_metrics_recorded_per_namespace_and_op(self):
        metrics = MetricsRegistry()
        repo = RuleRepository(metrics=metrics)
        rule = wl("rings?")
        repo.add("em", rule)
        repo.set_enabled("em", rule.rule_id, False)
        counters = metrics.snapshot()["counters"]
        assert counters["repository_changes_total{ns=em,op=add}"] == 1
        assert counters["repository_changes_total{ns=em,op=disable}"] == 1


class TestWriteAhead:
    def test_raising_append_leaves_everything_unchanged(self, tmp_path, monkeypatch):
        """A bound mutation whose log write raises changes nothing: not
        the log, not history, not the set, not its incremental consumer
        — and a reopen agrees."""
        from repro.catalog.types import ProductItem

        root = str(tmp_path / "store")
        ruleset = RuleSet([wl("rings?")], name="em")
        kept = next(iter(ruleset)).rule_id
        items = [ProductItem(item_id=f"i{n}", title=title)
                 for n, title in enumerate(("gold ring", "steel band", "hoop"))]
        executor = IncrementalExecutor()
        executor.attach_ruleset(ruleset)
        executor.add_items(items)
        repo = RuleRepository.open(root, fsync=False)
        repo.bind("em", ruleset)

        def state():
            return (len(repo.log), repo.rule_ids("em"),
                    [(r.rule_id, r.enabled) for r in ruleset],
                    executor.fired_map())

        before = state()

        def refuse(payload):
            raise OSError("disk full")

        monkeypatch.setattr(repo.log._appender, "append", refuse)
        with pytest.raises(OSError):
            ruleset.add(wl("bands?"))
        with pytest.raises(OSError):
            ruleset.disable(kept)
        assert state() == before
        assert repo.is_enabled("em", kept)
        monkeypatch.undo()
        repo.close()
        with RuleRepository.open(root) as reopened:
            assert reopened.rule_ids("em") == before[1]
            assert reopened.is_enabled("em", kept)


class TestSnapshotsAndRollback:
    def test_snapshot_diff_rollback_roundtrip(self):
        ruleset = RuleSet(name="em")
        repo = RuleRepository()
        repo.bind("em", ruleset)
        kept = ruleset.add(wl("rings?"))
        edited = ruleset.add(wl("bands?"))
        dropped = ruleset.add(wl("hoops?"))
        repo.snapshot("v1", author="alice")

        ruleset.disable(kept.rule_id)
        ruleset.replace(WhitelistRule("bands?|ring sets?", "rings",
                                      rule_id=edited.rule_id))
        ruleset.remove(dropped.rule_id)
        ruleset.add(wl("halos?"))

        diff = repo.diff("v1", None)["em"]
        assert len(diff.added) == 1
        assert diff.removed == (dropped.rule_id,)
        assert diff.replaced == (edited.rule_id,)
        assert diff.disabled == (kept.rule_id,)

        result = repo.rollback("v1", author="bob")
        assert (result.flips, result.replaced, result.added, result.removed) \
            == (1, 1, 1, 1)
        assert repo.diff("v1", None)["em"].empty
        assert ruleset.is_enabled(kept.rule_id)
        assert dropped.rule_id in ruleset
        assert ruleset.get(edited.rule_id).pattern == "bands?"

    def test_rollback_restores_snapshot_revisions(self):
        """Re-added rules come back at their recorded revision, so the
        (rule_id, revision) identity names the byte-identical payload."""
        repo = RuleRepository()
        rule = wl("rings?")
        repo.add("em", rule)
        revision = repo.revision("em", rule.rule_id)
        repo.snapshot("v1")
        repo.remove("em", rule.rule_id)
        repo.rollback("v1")
        assert repo.revision("em", rule.rule_id) == revision
        assert repo.diff("v1", None)["em"].empty

    def test_edit_after_rollback_never_reuses_a_revision(self):
        """A replace after a rollback gets a revision the id never held, so
        a later rollback to a snapshot of the displaced revision restores
        that revision's condition, not the newer edit's."""
        ruleset = RuleSet(name="em")
        repo = RuleRepository()
        repo.bind("em", ruleset)
        rule_id = ruleset.add(wl("rings?")).rule_id
        repo.snapshot("a")
        ruleset.replace(WhitelistRule("bands?", "rings", rule_id=rule_id))
        repo.snapshot("b")
        repo.rollback("a")
        ruleset.replace(WhitelistRule("hoops?", "rings", rule_id=rule_id))
        assert repo.revision("em", rule_id) == 3
        repo.rollback("b")
        assert ruleset.get(rule_id).pattern == "bands?"
        assert repo.diff("b", None)["em"].empty

    def test_structural_sharing_no_payload_copies(self):
        """Snapshots store (rule_id, revision) pairs; N snapshots do not
        multiply stored payloads."""
        repo = RuleRepository()
        for _ in range(20):
            repo.add("em", wl("rings?"))
        payloads_before = len(repo._ns("em").payloads)
        for index in range(10):
            repo.snapshot(f"s{index}")
        assert len(repo._ns("em").payloads) == payloads_before
        for index in range(10):
            assert len(repo.get_snapshot(f"s{index}")["em"].entries) == 20

    def test_snapshot_names_immutable(self):
        repo = RuleRepository()
        repo.add("em", wl("rings?"))
        repo.snapshot("v1")
        with pytest.raises(RepositoryError, match="already exists"):
            repo.snapshot("v1")
        with pytest.raises(RepositoryError, match="unknown snapshot"):
            repo.rollback("v9")

    def test_changes_limit_zero_is_empty_and_negative_refused(self):
        repo = RuleRepository()
        rule = wl("rings?")
        repo.add("em", rule)
        repo.set_enabled("em", rule.rule_id, False)
        assert len(repo.changes()) == 2
        assert repo.changes(limit=0) == []
        assert [entry.op for entry in repo.changes(limit=1)] == ["disable"]
        assert len(repo.changes(limit=5)) == 2
        with pytest.raises(ValueError, match="non-negative"):
            repo.changes(limit=-1)

    def test_blame_newest_first_with_provenance(self):
        repo = RuleRepository()
        rule = wl("rings?")
        repo.add("em", rule, author="alice", reason="seed")
        with repo.attribution("ops", "incident", provenance="incident-0001"):
            repo.set_enabled("em", rule.rule_id, False)
        entries = repo.blame(rule.rule_id)
        assert [entry.op for entry in entries] == ["disable", "add"]
        assert entries[0].provenance == "incident-0001"
        assert entries[1].author == "alice"
        assert repo.blame("never-seen") == []


class TestPersistence:
    def test_reopen_replays_identical_state(self, tmp_path):
        root = str(tmp_path / "store")
        with RuleRepository.open(root) as repo:
            ruleset = RuleSet(name="em")
            repo.bind("em", ruleset)
            a = ruleset.add(wl("rings?"))
            ruleset.add(wl("bands?"))
            repo.snapshot("v1")
            ruleset.disable(a.rule_id)
            state = {
                "ids": repo.rule_ids("em"),
                "revisions": [repo.revision("em", r) for r in repo.rule_ids("em")],
                "enabled": [repo.is_enabled("em", r) for r in repo.rule_ids("em")],
                "changes": len(repo.log),
            }
        with RuleRepository.open(root) as repo:
            assert repo.rule_ids("em") == state["ids"]
            assert [repo.revision("em", r) for r in repo.rule_ids("em")] \
                == state["revisions"]
            assert [repo.is_enabled("em", r) for r in repo.rule_ids("em")] \
                == state["enabled"]
            assert len(repo.log) == state["changes"]
            assert repo.snapshot_names() == ["v1"]
            # and rollback still works from replayed payloads
            repo.rollback("v1")
            assert repo.diff("v1", None)["em"].empty

    def test_rebind_after_reopen_is_idempotent(self, tmp_path):
        root = str(tmp_path / "store")
        rule = wl("rings?")
        with RuleRepository.open(root) as repo:
            ruleset = RuleSet([rule], name="em")
            repo.bind("em", ruleset)
            changes = len(repo.log)
        with RuleRepository.open(root) as repo:
            rebuilt = RuleSet([rule], name="em")
            repo.bind("em", rebuilt)
            # reconciliation found nothing new: no extra entries
            assert len(repo.log) == changes

    def test_import_registry_carries_audit_trail(self, tmp_path):
        """The importer is gone; a log it wrote earlier still replays."""
        root = str(tmp_path / "repo")
        rule = wl("rings?")
        with RuleRepository.open(root) as repo:
            repo.add("em", rule, author="registry-import")
            seq = repo.log.next_seq
        marker = {
            "seq": seq, "at": 0.0, "ns": "em", "op": "audit-import",
            "author": "lead", "reason": "[deployed]", "rule_id": rule.rule_id,
        }
        with open(os.path.join(root, CHANGELOG_NAME), "a") as handle:
            handle.write(json.dumps(marker) + "\n")
        with RuleRepository.open(root) as repo:
            assert repo.rule_ids("em") == [rule.rule_id]
            assert repo.is_enabled("em", rule.rule_id)
            assert [e.op for e in repo.blame(rule.rule_id)] == ["audit-import", "add"]
            # the marker changed no state, and the log stays appendable
            repo.set_enabled("em", rule.rule_id, False)
            assert repo.log.last.seq == seq + 1


# -- acceptance: zero-evaluation rollback at scale --------------------------------


class TestZeroEvaluationRollback:
    def test_1k_rule_rollback_zero_evaluations_byte_identical(self):
        """Rolling a 1000-rule namespace back to a snapshot that only
        differs in enabled flags performs ZERO rule evaluations and
        restores a byte-identical fired map."""
        rules = [
            WhitelistRule(f"tok{i:04d}", "t", rule_id=f"bulk-{i:04d}")
            for i in range(1000)
        ]
        ruleset = RuleSet(rules, name="bulk")
        from repro.catalog.types import ProductItem
        items = [
            ProductItem(item_id=f"item-{i:04d}", title=f"tok{i % 1000:04d} thing")
            for i in range(300)
        ]
        executor = IncrementalExecutor()
        executor.attach_ruleset(ruleset)
        executor.add_items(items)
        repo = RuleRepository()
        repo.bind("bulk", ruleset)
        baseline = json.dumps(executor.fired_map(), sort_keys=True)
        repo.snapshot("good", author="ops")

        for rule in rules[::3]:
            ruleset.disable(rule.rule_id)
        evaluations = executor.stats.rule_evaluations
        store_generation = executor.store.generation

        result = repo.rollback("good", author="ops", reason="bad deploy")
        assert result.flips == len(rules[::3])
        assert result.replaced == result.added == result.removed == 0
        # the incremental engine's zero-evaluation path: condition-truth is
        # untouched, enabled is a view filter
        assert executor.stats.rule_evaluations == evaluations
        assert executor.store.generation == store_generation
        assert json.dumps(executor.fired_map(), sort_keys=True) == baseline

    def test_scale_down_then_rollback_byte_identical(self):
        """The §2.2 sequence: incident scale-down, then repository rollback
        instead of a manual restore — fired map byte-identical, audit log
        blames the incident."""
        chimera = Chimera.build(seed=11)
        rules = [
            WhitelistRule(f"word{i:03d}", "t", rule_id=f"ops-{i:03d}")
            for i in range(40)
        ]
        chimera.add_whitelist_rules(rules)
        from repro.catalog.types import ProductItem
        items = [
            ProductItem(item_id=f"i-{i:03d}", title=f"word{i % 40:03d} object")
            for i in range(120)
        ]
        tracker = chimera.engine
        tracker.add_items(items)
        repo = RuleRepository()
        bind_chimera(repo, chimera)
        manager = IncidentManager(chimera, repository=repo)

        baseline = json.dumps(tracker.fired_map(), sort_keys=True)
        repo.snapshot("pre-incident", author="ops")
        evaluations = tracker.stats.rule_evaluations

        incident = manager.open_rule_incident(
            [rule.rule_id for rule in rules[:15]], reason="precision floor"
        )
        manager.scale_down(incident)
        assert json.dumps(tracker.fired_map(), sort_keys=True) != baseline

        result = repo.rollback("pre-incident", author="ops")
        assert result.flips == 15
        assert result.total_ops == 15
        assert tracker.stats.rule_evaluations == evaluations
        assert json.dumps(tracker.fired_map(), sort_keys=True) == baseline

        # every scale-down disable is blamed on the incident
        blamed = repo.blame(rules[0].rule_id)
        disable = next(entry for entry in blamed if entry.op == "disable")
        assert disable.author == "incident-manager"
        assert disable.provenance == incident.incident_id


# -- the repro repo CLI -----------------------------------------------------------


class TestRepoCli:
    @pytest.fixture()
    def store(self, tmp_path):
        from repro.core import save_ruleset

        root = str(tmp_path / "store")
        rules_path = str(tmp_path / "rules.json")
        save_ruleset(RuleSet([wl("rings?"), wl("bands?")], name="seed"),
                     rules_path)
        return root, rules_path

    def run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_import_snapshot_log_blame(self, store, capsys):
        root, rules_path = store
        assert self.run("repo", "import", "--root", root, "--ns", "em",
                        rules_path, "--author", "alice") == 0
        assert self.run("repo", "snapshot", "--root", root, "v1",
                        "--author", "alice") == 0
        assert self.run("repo", "log", "--root", root) == 0
        out = capsys.readouterr().out
        assert "add" in out and "snapshot 'v1'" in out
        with RuleRepository.open(root) as repo:
            rule_id = repo.rule_ids("em")[0]
        assert self.run("repo", "blame", "--root", root, rule_id) == 0
        assert "alice" in capsys.readouterr().out

    def test_log_limit_zero_prints_nothing_and_negative_is_refused(
        self, store, capsys
    ):
        root, rules_path = store
        self.run("repo", "import", "--root", root, "--ns", "em", rules_path)
        capsys.readouterr()
        assert self.run("repo", "log", "--root", root, "--limit", "0") == 0
        assert capsys.readouterr().out == ""
        assert self.run("repo", "log", "--root", root, "--limit", "1") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        with pytest.raises(SystemExit):
            self.run("repo", "log", "--root", root, "--limit", "-1")
        assert "non-negative" in capsys.readouterr().err

    def test_diff_and_rollback(self, store, capsys):
        root, rules_path = store
        self.run("repo", "import", "--root", root, "--ns", "em", rules_path)
        self.run("repo", "snapshot", "--root", root, "v1")
        with RuleRepository.open(root) as repo:
            repo.set_enabled("em", repo.rule_ids("em")[0], False,
                             author="ops", reason="noisy")
        assert self.run("repo", "diff", "--root", root, "v1", "HEAD") == 0
        assert "disabled" in capsys.readouterr().out
        assert self.run("repo", "rollback", "--root", root, "v1",
                        "--author", "ops") == 0
        assert "1 flips" in capsys.readouterr().out
        self.run("repo", "diff", "--root", root, "v1", "HEAD")
        assert "no differences" in capsys.readouterr().out

    def test_unknown_snapshot_is_an_error(self, store, capsys):
        root, rules_path = store
        self.run("repo", "import", "--root", root, "--ns", "em", rules_path)
        assert self.run("repo", "rollback", "--root", root, "missing") == 1
        assert "unknown snapshot" in capsys.readouterr().err
