"""Versioned rule repository: audit log, snapshots, O(1) rollback.

See :mod:`repro.repository.repository` for the design overview and
``DESIGN.md`` §12 for the rationale.
"""

from repro.repository.changelog import OPS, ChangeEntry, ChangeLog
from repro.repository.repository import (
    CHANGELOG_NAME,
    DEFAULT_NAMESPACES,
    NamespaceDiff,
    RepositoryError,
    RollbackResult,
    RuleRepository,
    Snapshot,
    bind_chimera,
)

__all__ = [
    "CHANGELOG_NAME",
    "ChangeEntry",
    "ChangeLog",
    "DEFAULT_NAMESPACES",
    "NamespaceDiff",
    "OPS",
    "RepositoryError",
    "RollbackResult",
    "RuleRepository",
    "Snapshot",
    "bind_chimera",
]
