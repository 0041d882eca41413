"""Crash-kill-resume durability for the streaming service.

The acceptance bar from the durable-service work: a daemon SIGKILL'd at
*any* batch boundary — or with a torn tail in any of its four logs from
a write the crash interrupted — resumes and finishes with the exact
identity an uninterrupted run reaches (digest chain, tracker windows,
incident log, provenance counts, byte for byte). ``SimulatedCrash`` stands in for the
kill; the harness's cleanup releases OS handles only, never flushes.

Fault model: only bytes past the last *checkpointed* offset may be torn.
The checkpoint records each log's durable length; cutting acknowledged
bytes below that offset is storage corruption, which the resume path
must refuse (see ``test_cut_below_checkpoint_refused``).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WhitelistRule
from repro.repository import CHANGELOG_NAME, RuleRepository
from repro.service.checkpoint import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    REPO_DIR,
    SERIES_NAME,
    SPOOL_NAME,
)
from repro.service.daemon import ServiceConfig, StreamService
from repro.service.harness import (
    crash_resume_identity,
    identity_equal,
    run_service,
    uninterrupted_identity,
)
from repro.testing.faults import CrashPlan, SimulatedCrash, simulated_kill, tear_file

BATCHES = 5
CRASH_POINTS = (
    "journal-appended",
    "classified",
    "before-checkpoint",
    "after-checkpoint",
)


def _read_checkpoint(root: str) -> dict:
    with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> dict:
    """The uninterrupted 5-batch identity every kill scenario must match."""
    root = str(tmp_path_factory.mktemp("service-ref") / "run")
    return uninterrupted_identity(root, BATCHES, fsync=False)


@pytest.fixture(scope="module")
def reference_12(tmp_path_factory) -> dict:
    """A longer run that naturally opens a rule incident."""
    root = str(tmp_path_factory.mktemp("service-ref12") / "run")
    identity = uninterrupted_identity(root, 12, fsync=False)
    assert identity["incidents"], "fixture expects a natural incident"
    return identity


class TestKillAtEveryBarrier:
    @pytest.mark.parametrize("crash_at", CRASH_POINTS)
    def test_mid_run_kill_resumes_identically(
        self, crash_at, reference, tmp_path
    ):
        resumed = crash_resume_identity(
            str(tmp_path / "run"), BATCHES, crash_at,
            crash_on_hit=2, fsync=False,
        )
        assert identity_equal(resumed, reference)

    def test_kill_on_first_batch(self, reference, tmp_path):
        resumed = crash_resume_identity(
            str(tmp_path / "run"), BATCHES, "journal-appended",
            crash_on_hit=1, fsync=False,
        )
        assert identity_equal(resumed, reference)

    def test_kill_on_final_checkpoint(self, reference, tmp_path):
        resumed = crash_resume_identity(
            str(tmp_path / "run"), BATCHES, "after-checkpoint",
            crash_on_hit=BATCHES, fsync=False,
        )
        assert identity_equal(resumed, reference)

    @given(
        crash_at=st.sampled_from(CRASH_POINTS),
        on_hit=st.integers(min_value=1, max_value=BATCHES),
    )
    @settings(max_examples=6, deadline=None)
    def test_property_any_barrier_any_batch(
        self, crash_at, on_hit, reference, tmp_path_factory
    ):
        root = str(
            tmp_path_factory.mktemp("service-kill")
            / f"{crash_at}-{on_hit}"
        )
        resumed = crash_resume_identity(
            root, BATCHES, crash_at, crash_on_hit=on_hit, fsync=False
        )
        assert identity_equal(resumed, reference)

    def test_kill_during_incident_run(self, reference_12, tmp_path):
        """Resume restores open incidents, disabled rules, the change log."""
        resumed = crash_resume_identity(
            str(tmp_path / "run"), 12, "journal-appended",
            crash_on_hit=9, fsync=False,
        )
        assert identity_equal(resumed, reference_12)
        assert resumed["incidents"][0]["incident_id"] == "incident-0001"


#: Every append-only log of a root, by its ``offsets`` key.
LOGS = {
    "journal": JOURNAL_NAME,
    "spool": SPOOL_NAME,
    "series": SERIES_NAME,
    "changelog": os.path.join(REPO_DIR, CHANGELOG_NAME),
}


class TestTornWrites:
    @pytest.mark.parametrize("log", sorted(LOGS))
    def test_torn_tail_past_checkpoint(self, log, reference, tmp_path):
        """Bytes past the checkpointed offset were never acknowledged: a
        tear there (half the crashed batch's bytes plus a fragment) is
        rolled back, and the resumed run is the uninterrupted one."""

        def mangle(root: str) -> None:
            path = os.path.join(root, LOGS[log])
            checkpointed = _read_checkpoint(root)["offsets"][log]
            size = os.path.getsize(path)
            tear_file(
                path,
                keep_bytes=checkpointed + (size - checkpointed) // 2,
                garbage=b'{"torn',
            )

        resumed = crash_resume_identity(
            str(tmp_path / "run"), BATCHES, "before-checkpoint",
            crash_on_hit=3, fsync=False, mangle_after_crash=mangle,
        )
        assert identity_equal(resumed, reference)

    @pytest.mark.parametrize("log", sorted(LOGS))
    def test_cut_below_checkpoint_refused(self, log, tmp_path):
        """Cutting acknowledged bytes is corruption: resume raises, naming
        the file. The last change-log entry here is a rule that never
        fires, so nothing else would notice it gone — a change log pinned
        by seq used to resume with one rule fewer."""
        root = str(tmp_path / "run")
        with StreamService(
            root, ServiceConfig(seed=7, training=0), fsync=False
        ) as service:
            service.run_to(1)
            service.chimera.add_whitelist_rules([WhitelistRule("zzqxv", "rugs")])
            service.run_to(2)
        path = os.path.join(root, LOGS[log])
        assert _read_checkpoint(root)["offsets"][log] == os.path.getsize(path)
        tear_file(path, keep_bytes=os.path.getsize(path) - 10)
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match="ahead of its logs") as refused:
            service.start()
        assert LOGS[log] in str(refused.value)
        service.close()

    def test_changes_past_the_checkpoint_are_dropped(self, tmp_path):
        """A change written to a stopped root's repository is past the
        checkpoint: resume drops it, as it drops a crashed run's tail."""
        root = str(tmp_path / "run")
        with StreamService(
            root, ServiceConfig(seed=7, training=0), fsync=False
        ) as service:
            service.run_to(1)
            rules = service.chimera.rule_count()
        changelog = os.path.join(root, LOGS["changelog"])
        size = os.path.getsize(changelog)
        with RuleRepository.open(os.path.join(root, REPO_DIR)) as repo:
            repo.add("chimera/rule-based", WhitelistRule("zzqxv", "rugs"))
        grown = os.path.getsize(changelog)
        with StreamService(root, fsync=False) as service:
            assert service.rolled_back["changelog"] == grown - size > 0
            assert service.chimera.rule_count() == rules
        assert os.path.getsize(changelog) == size

    def test_change_log_ending_elsewhere_is_refused(self, tmp_path):
        """``repo_head_seq`` stays in the checkpoint as a check on the
        rolled-back change log."""
        root = str(tmp_path / "run")
        run_service(root, 1, ServiceConfig(seed=7, training=0), fsync=False)
        state = _read_checkpoint(root)
        state["repo_head_seq"] -= 1
        with open(os.path.join(root, CHECKPOINT_NAME), "w") as handle:
            json.dump(state, handle)
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match="'repo_head_seq'"):
            service.start()
        service.close()


class TestRuleFlagWrite:
    def test_enabled_write_on_a_served_rule_is_logged_and_resumes(self, tmp_path):
        """``rule.enabled = False`` on a rule the pipeline's set holds is
        that set's ``disable``: logged, so a resume rebuilds the same
        fired map an uninterrupted twin making the same write ends with."""

        def served(root, close_after):
            service = StreamService(
                root, ServiceConfig(seed=7, training=0), fsync=False
            ).start()
            service.run(3)
            fired = service.incremental.fired_map()
            rule_id = min(rule_id for hits in fired.values() for rule_id in hits)
            service.chimera.rule_stage.rules.get(rule_id).enabled = False
            service.run(2)
            if close_after:
                service.close()
                service = StreamService(root, fsync=False).start()
            identity = service.identity_json()
            service.close()
            return rule_id, identity

        root = str(tmp_path / "resumed")
        rule_id, resumed = served(root, close_after=True)
        assert served(str(tmp_path / "twin"), close_after=False) == (rule_id, resumed)
        with open(os.path.join(root, LOGS["changelog"])) as handle:
            ops = [json.loads(line) for line in handle]
        assert [(op["op"], op["rule_id"]) for op in ops if op["op"] == "disable"] == [
            ("disable", rule_id)
        ]


class TestDoubleKill:
    def test_two_sequential_kills(self, reference, tmp_path):
        """A resume that itself dies must still converge on the identity."""
        root = str(tmp_path / "run")

        def _killed_run(plan: CrashPlan) -> None:
            service = StreamService(
                root, fsync=False, crash_plan=plan
            )
            try:
                service.start()
                service.run_to(BATCHES)
            except SimulatedCrash:
                pass
            finally:
                simulated_kill(service)

        _killed_run(CrashPlan(crash_at="before-checkpoint", on_hit=2))
        _killed_run(CrashPlan(crash_at="journal-appended", on_hit=2))
        resumed = run_service(root, BATCHES, fsync=False)
        assert identity_equal(resumed, reference)


class TestCrashPrimitives:
    def test_crash_plan_counts_hits(self):
        plan = CrashPlan(crash_at="here", on_hit=2)
        plan.reached("here")
        plan.reached("elsewhere")
        with pytest.raises(SimulatedCrash) as excinfo:
            plan.reached("here")
        assert excinfo.value.point == "here"
        assert plan.hit == ["here", "elsewhere", "here"]
        # Disarmed after firing: the resumed run sails past the barrier.
        plan.reached("here")

    def test_crash_plan_unarmed_is_inert(self):
        plan = CrashPlan()
        for _ in range(5):
            plan.reached("anywhere")
        assert len(plan.hit) == 5

    def test_crash_plan_rejects_bad_on_hit(self):
        with pytest.raises(ValueError):
            CrashPlan(crash_at="x", on_hit=0)

    def test_tear_file_halves_final_line(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w") as handle:
            handle.write('{"a": 1}\n{"b": 2222222222}\n')
        original = os.path.getsize(path)
        size = tear_file(path)
        assert size < original
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.startswith(b'{"a": 1}\n')
        assert not data.endswith(b"\n")

    def test_tear_file_exact_offset_plus_garbage(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w") as handle:
            handle.write('{"a": 1}\n')
        size = tear_file(path, keep_bytes=4, garbage=b"XX")
        assert size == 6
        with open(path, "rb") as handle:
            assert handle.read() == b'{"a"XX'
