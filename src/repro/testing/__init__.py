"""Deterministic test harnesses for the durable service.

This package is shipped with the library (not hidden inside ``tests/``)
so downstream users can crash-test their own deployments of the daemon
with the same tooling the repo's own suite uses. Fault injection for the
sharded executor lives beside its loop, in :mod:`repro.execution.parallel`.
"""

from repro.testing.faults import CrashPlan, SimulatedCrash, tear_file

__all__ = ["CrashPlan", "SimulatedCrash", "tear_file"]
