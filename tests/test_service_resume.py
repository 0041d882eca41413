"""Crash-kill-resume durability for the streaming service.

The acceptance bar from the durable-service work: a daemon SIGKILL'd at
*any* batch boundary — or with a torn journal/spool tail from a write
the crash interrupted — resumes and finishes with the exact identity an
uninterrupted run reaches (digest chain, tracker windows, incident log,
provenance counts, byte for byte). ``SimulatedCrash`` stands in for the
kill; the harness's cleanup releases OS handles only, never flushes.

Fault model: only bytes past the last *checkpointed* offset may be torn.
The checkpoint records each append-only file's durable length; tearing
acknowledged bytes below that offset is storage corruption, which the
resume path must refuse (see ``test_torn_acknowledged_bytes_refused``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.checkpoint import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    SPOOL_NAME,
)
from repro.service.daemon import StreamService
from repro.service.harness import (
    crash_resume_identity,
    identity_equal,
    run_service,
    uninterrupted_identity,
)
from repro.testing.faults import CrashPlan, SimulatedCrash, tear_file

BATCHES = 5
CRASH_POINTS = (
    "journal-appended",
    "classified",
    "before-checkpoint",
    "after-checkpoint",
)


def _read_checkpoint(root: str) -> dict:
    import json

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
        """Resume restores open incidents, disabled rules, repo pinning."""
        resumed = crash_resume_identity(
            str(tmp_path / "run"), 12, "journal-appended",
            crash_on_hit=9, fsync=False,
        )
        assert identity_equal(resumed, reference_12)
        assert resumed["incidents"][0]["incident_id"] == "incident-0001"


class TestTornWrites:
    def test_torn_journal_tail(self, reference, tmp_path):
        """A half-written journal line past the checkpoint is discarded."""

        def mangle(root: str) -> None:
            tear_file(
                os.path.join(root, JOURNAL_NAME), garbage=b'{"half":'
            )

        resumed = crash_resume_identity(
            str(tmp_path / "run"), BATCHES, "journal-appended",
            crash_on_hit=3, fsync=False, mangle_after_crash=mangle,
        )
        assert identity_equal(resumed, reference)

    def test_torn_spool_tail(self, reference, tmp_path):
        """Provenance bytes the crash never acknowledged may be torn."""

        def mangle(root: str) -> None:
            spool = os.path.join(root, SPOOL_NAME)
            checkpointed = _read_checkpoint(root)["offsets"]["spool"]
            size = os.path.getsize(spool) if os.path.exists(spool) else 0
            if size > checkpointed:
                tear_file(
                    spool,
                    keep_bytes=checkpointed + (size - checkpointed) // 2,
                    garbage=b'{"torn',
                )

        resumed = crash_resume_identity(
            str(tmp_path / "run"), BATCHES, "classified",
            crash_on_hit=3, fsync=False, mangle_after_crash=mangle,
        )
        assert identity_equal(resumed, reference)

    def test_torn_acknowledged_bytes_refused(self, tmp_path):
        """Tearing *below* the checkpointed offset is corruption: raise."""
        root = str(tmp_path / "run")
        run_service(root, 3, fsync=False)

        offsets = _read_checkpoint(root)["offsets"]
        tear_file(
            os.path.join(root, JOURNAL_NAME),
            keep_bytes=max(0, offsets["journal"] - 10),
        )
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match="ahead of its logs"):
            service.start()
        service.close()


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
                # SIGKILL semantics: drop handles, flush nothing.
                service.store.close()
                if getattr(service, "series", None) is not None:
                    service.series.close()
                if hasattr(service, "provenance"):
                    service.provenance.close()
                if hasattr(service, "repository"):
                    service.repository.log.close()

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
