"""Durable streaming service: checkpointed state + operations console.

ROADMAP item 1's "never-ending session" made durable: a long-running
daemon (:class:`StreamService`) follows a
:class:`~repro.catalog.batches.BatchStream` continuously through the
Chimera pipeline on the :class:`~repro.execution.incremental.IncrementalExecutor`,
logging what happened and checkpointing what no log determines after
every batch, so a crash-killed process resumes byte-identical to an
uninterrupted run. On
top sits a metrics time-series layer, a dependency-free HTTP console
(``repro serve``) and a text dashboard (``repro dashboard``). See
DESIGN.md §13.
"""

from repro.service.checkpoint import CheckpointStore
from repro.service.daemon import ServiceConfig, StreamService
from repro.service.dashboard import render_dashboard
from repro.service.harness import crash_resume_identity, run_service
from repro.service.http import ServiceHttpServer, serve
from repro.service.series import SeriesStore

__all__ = [
    "CheckpointStore",
    "SeriesStore",
    "ServiceConfig",
    "ServiceHttpServer",
    "StreamService",
    "crash_resume_identity",
    "render_dashboard",
    "run_service",
    "serve",
]
