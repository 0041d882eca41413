"""Programmatic crash-kill-resume scenarios for the streaming service.

Shared by the durability tests and the CI serve-smoke job. The central
claim (ISSUE acceptance bar): a daemon killed at *any* batch boundary —
or mid-checkpoint, or with a torn journal/spool tail — resumes to the
exact identity surface an uninterrupted run reaches: same fired-map
digest chain, same health windows, same incident log, byte for byte.
"""

from __future__ import annotations

import json
import shutil
from typing import Any, Dict, Optional

from repro.service.daemon import ServiceConfig, StreamService
from repro.testing.faults import CrashPlan, SimulatedCrash, simulated_kill


def run_service(
    root: str,
    batches: int,
    config: Optional[ServiceConfig] = None,
    fsync: bool = True,
) -> Dict[str, Any]:
    """Run a service for ``batches`` batches; returns its identity."""
    service = StreamService(root, config=config, fsync=fsync)
    try:
        service.start()
        service.run_to(batches)
        return service.identity()
    finally:
        service.close()


def uninterrupted_identity(
    scratch_root: str,
    batches: int,
    config: Optional[ServiceConfig] = None,
    fsync: bool = True,
) -> Dict[str, Any]:
    """The reference run: same config, no kill, in a scratch root."""
    shutil.rmtree(scratch_root, ignore_errors=True)
    return run_service(scratch_root, batches, config=config, fsync=fsync)


def crash_resume_identity(
    root: str,
    batches: int,
    crash_at: str,
    crash_on_hit: int = 1,
    config: Optional[ServiceConfig] = None,
    fsync: bool = True,
    mangle_after_crash=None,
) -> Dict[str, Any]:
    """Kill a run at a named crash point, resume it, run to ``batches``.

    ``crash_at`` is one of the daemon's barriers (``journal-appended``,
    ``classified``, ``before-checkpoint``, ``after-checkpoint``);
    ``crash_on_hit`` picks which occurrence dies. ``mangle_after_crash``
    (callable taking the root) can tear files between the kill and the
    resume — the torn-write half of the fault model. Returns the resumed
    run's final identity; the caller compares it against
    :func:`uninterrupted_identity` of a scratch root.
    """
    plan = CrashPlan(crash_at=crash_at, on_hit=crash_on_hit)
    crashed = StreamService(root, config=config, fsync=fsync, crash_plan=plan)
    died = False
    try:
        crashed.start()
        crashed.run_to(batches)
    except SimulatedCrash:
        died = True
    finally:
        simulated_kill(crashed)
    if not died:
        # The plan never fired (crash point past the run) — the "crash"
        # run already completed; its identity is the answer.
        return run_service(root, batches, config=config, fsync=fsync)
    if mangle_after_crash is not None:
        mangle_after_crash(root)
    return run_service(root, batches, config=config, fsync=fsync)


def identity_equal(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    """Byte-level comparison of two identity surfaces."""
    canon = lambda payload: json.dumps(payload, sort_keys=True)  # noqa: E731
    return canon(left) == canon(right)
