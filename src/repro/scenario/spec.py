"""The declarative scenario spec and its validating loader.

A scenario is one YAML document describing an end-to-end simulation over
the ``BatchStream`` → Chimera → executor stack (ROADMAP item 4): the
catalog profile, the traffic shape (vendors, bursts, hot-key skew), the
drift schedule, the fault plan, taxonomy-change events, analyst/crowd
budgets, and the exit conditions the run must satisfy. Every field is
validated here with positioned errors, so a typo in a spec fails at load
time, not three phases into a simulation.

Each section is a frozen dataclass whose fields declare how they are
read: ``min_batch: int = field(default=20, metadata=_int(minimum=1))``.
One reader, :func:`_read`, builds every section from its mapping — it
rejects unknown keys, reads the fields in declaration order (nested
sections and section lists get their indexed paths, ``drift[3]``,
``traffic.vendors[0]``), and then runs the section's cross-field
``_check``. The document's own ``_check`` walks every scheduled event
once. Every number a spec holds is finite.

Batch indices are 0-based: an event with ``at_batch: k`` is applied
*before* the k-th scheduled batch is produced. Everything in a spec is
data — no field names code — and a spec plus a seed fully determines a
run (see :mod:`repro.scenario.runner` for the determinism contract).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.scenario.yamlio import safe_load

#: Fired-map executor kinds the runner knows how to drive.
EXECUTOR_KINDS = ("none", "indexed", "partitioned", "incremental")

#: Drift-schedule operations (mirroring DriftInjector's surface), each
#: with the fields it needs and how its refusal names them.
_DRIFT_NEEDS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "extend_slot": (("type", "slot", "phrases"), "type, slot, and phrases"),
    "replace_slot": (("type", "slot", "phrases"), "type, slot, and phrases"),
    "shift_heads": (("type", "heads"), "type and heads"),
    "shift_distribution": (("weights",), "weights"),
    "surge_department": (("department",), "department"),
}
DRIFT_OPS = tuple(_DRIFT_NEEDS)

#: The path of the document itself. Its scalars are addressed below it
#: (``scenario.name``), its sections from the root (``drift[3]``).
_ROOT = "scenario"


class SpecError(ValueError):
    """A scenario spec failed validation; the message names the path."""


def _err(path: str, message: str) -> SpecError:
    return SpecError(f"{path}: {message}")


def _require_map(value: Any, path: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _err(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _require_list(value: Any, path: str) -> List[Any]:
    if value is None:
        return []
    if not isinstance(value, list):
        raise _err(path, f"expected a list, got {type(value).__name__}")
    return value


def _check_keys(data: Mapping[str, Any], allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise _err(path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _child(path: str, key: str) -> str:
    return key if path == _ROOT else f"{path}.{key}"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value: Any, path: str) -> float:
    """``value`` as a finite float; a bool, a non-number, NaN or ±inf is
    refused at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _err(path, f"must be a finite number, got {value!r}")
    return number


# -- field readers ---------------------------------------------------------------
#
# A reader is ``read(data, key, path, default) -> value``: ``data`` is the
# section's mapping, ``path`` the section's path, and ``default`` the
# field's default (or its ``missing`` stand-in when it has none). The
# factories below return a field's ``metadata``.


def _int(minimum: Optional[int] = None) -> Dict[str, Any]:
    def read(data, key, path, default):
        value = data.get(key, default)
        if not _is_int(value):
            raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
        return value
    return {"read": read}


def _float(minimum: Optional[float] = None,
           maximum: Optional[float] = None) -> Dict[str, Any]:
    def read(data, key, path, default):
        value = _finite(data.get(key, default), f"{path}.{key}")
        if minimum is not None and value < minimum:
            raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise _err(f"{path}.{key}", f"must be <= {maximum}, got {value}")
        return value
    return {"read": read}


def _get_bool(data, key, path, default) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _err(f"{path}.{key}", f"expected true/false, got {value!r}")
    return value


def _str(required: bool = False) -> Dict[str, Any]:
    def read(data, key, path, default):
        value = data.get(key, default)
        if required and not value:
            raise _err(f"{path}.{key}", "is required")
        if not isinstance(value, str):
            raise _err(f"{path}.{key}", f"expected a string, got {value!r}")
        return value
    return {"read": read, "missing": ""} if required else {"read": read}


def _get_strs(data, key, path, default) -> Tuple[str, ...]:
    values = _require_list(data.get(key), f"{path}.{key}")
    for value in values:
        if not isinstance(value, str):
            raise _err(f"{path}.{key}", f"expected strings, got {value!r}")
    return tuple(values)


def _get_rewrites(data, key, path, default) -> Tuple[Tuple[str, str], ...]:
    mapping = _require_map(data.get(key), f"{path}.{key}")
    for k, v in mapping.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise _err(f"{path}.{key}", f"expected string keys/values, got {k!r}: {v!r}")
    return tuple(sorted(mapping.items()))


def _get_weights(data, key, path, default) -> Tuple[Tuple[str, float], ...]:
    mapping = _require_map(data.get(key), f"{path}.{key}")
    out: Dict[str, float] = {}
    for k, v in mapping.items():
        if not isinstance(k, str) or isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _err(f"{path}.{key}", f"expected 'type: weight' entries, got {k!r}: {v!r}")
        weight = _finite(v, f"{path}.{key}.{k}")
        if weight < 0:
            raise _err(f"{path}.{key}", f"weight for {k!r} must be >= 0, got {v}")
        out[k] = weight
    return tuple(sorted(out.items()))


def _get_coordinate(data, key, path, default) -> Optional[int]:
    value = data.get(key)
    if value is not None and (not _is_int(value) or value < 0):
        raise _err(f"{path}.{key}", f"expected a non-negative int, got {value!r}")
    return value


def _get_batches(data, key, path, default) -> Tuple[int, ...]:
    values = _require_list(data.get(key), f"{path}.{key}")
    for value in values:
        if not _is_int(value) or value < 0:
            raise _err(f"{path}.{key}", f"expected batch indices, got {value!r}")
    return tuple(sorted(values))


def _get_into(data, key, path, default) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    into = _require_map(data.get(key), f"{path}.{key}")
    try:
        names = sorted(into)
    except TypeError:  # names of two kinds, as in {1: [a], b: [c]}
        listed = ", ".join(sorted(repr(name) for name in into))
        raise _err(f"{path}.{key}", f"names must be all strings or all numbers, "
                   f"got {listed}") from None
    return tuple((str(name), _get_strs(into, name, f"{path}.{key}", ()))
                 for name in names)


def _get_enabled(data, key, path, default) -> bool:
    # Absent, the repository is on exactly when the document schedules
    # snapshots or rollbacks.
    return _get_bool(data, key, path,
                     bool(data.get("snapshots") or data.get("rollbacks")))


def _get_exit_checks(data, key, path, default) -> Tuple[Tuple[str, Any], ...]:
    _check_keys(data, tuple(_EXIT_CHECKS), path)
    for name in sorted(data):
        value = data[name]
        if name == "expect_budget_exhausted":
            if not isinstance(value, bool):
                raise _err(f"{path}.{name}", f"expected true/false, got {value!r}")
        else:
            _finite(value, f"{path}.{name}")
    return tuple(sorted(data.items()))


_AT_BATCH = {**_int(minimum=0), "missing": -1}
_BOOL = {"read": _get_bool}
_STRS = {"read": _get_strs}


def _section(cls: type) -> Dict[str, Any]:
    def read(data, key, path, default):
        return _read(cls, data.get(key), _child(path, key))
    return {"read": read}


def _sections(cls: type) -> Dict[str, Any]:
    def read(data, key, path, default):
        where = _child(path, key)
        return tuple(_read(cls, entry, f"{where}[{i}]")
                     for i, entry in enumerate(_require_list(data.get(key), where)))
    return {"read": read}


def _read(cls: type, data: Any, path: str) -> Any:
    """Build section ``cls`` from ``data``, refusing anything it does not
    declare, then run its cross-field ``_check``.

    A field's ``key`` defaults to its name; ``"outer.inner"`` reads from a
    nested mapping (``faults.random.rate``), and ``""`` hands the reader
    the whole mapping, which then checks its own keys.
    """
    data = _require_map(data, path)
    specs = fields(cls)
    keys = [spec.metadata.get("key", spec.name) for spec in specs]
    if "" not in keys:
        _check_keys(data, {key.split(".")[0] for key in keys}, path)
    values = {}
    for spec, key in zip(specs, keys):
        source, where = data, path
        if "." in key:
            outer, key = key.split(".")
            where = f"{path}.{outer}"
            source = _require_map(data.get(outer), where)
            _check_keys(source, [k.split(".")[1] for k in keys
                                 if k.startswith(outer + ".")], where)
        default = spec.metadata.get("missing", spec.default)
        values[spec.name] = spec.metadata["read"](source, key, where, default)
    section = cls(**values)
    check = getattr(section, "_check", None)
    if check is not None:
        check(path)
    return section


# -- section dataclasses ---------------------------------------------------------


@dataclass(frozen=True)
class CatalogSpec:
    """The catalog profile: taxonomy size, training volume, seeded rules."""

    extra_types: int = field(default=0, metadata=_int(minimum=0))
    training: int = field(default=0, metadata=_int(minimum=0))
    min_examples: int = field(default=5, metadata=_int(minimum=1))
    obvious_rule_types: Tuple[str, ...] = field(default=(), metadata=_STRS)


@dataclass(frozen=True)
class VendorSpec:
    """One vendor profile (size range, departments, vocabulary rewrites)."""

    name: str = field(metadata=_str(required=True))
    min_batch: int = field(default=20, metadata=_int(minimum=1))
    max_batch: int = field(default=200, metadata=_int(minimum=1))
    departments: Tuple[str, ...] = field(default=(), metadata=_STRS)
    rewrites: Tuple[Tuple[str, str], ...] = field(
        default=(), metadata={"read": _get_rewrites})

    def _check(self, path: str) -> None:
        if self.max_batch < self.min_batch:
            raise _err(path, f"max_batch ({self.max_batch}) < min_batch ({self.min_batch})")


@dataclass(frozen=True)
class BurstSpec:
    """Extra batches from a named vendor injected at one point in the run."""

    at_batch: int = field(metadata=_AT_BATCH)
    vendor: str = field(metadata=_str(required=True))
    batches: int = field(default=1, metadata=_int(minimum=1))


@dataclass(frozen=True)
class HotKeySpec:
    """Type-weight overrides applied at one point (hot-key skew)."""

    at_batch: int = field(metadata=_AT_BATCH)
    weights: Tuple[Tuple[str, float], ...] = field(
        default=(), metadata={"read": _get_weights})

    def _check(self, path: str) -> None:
        if not self.weights:
            raise _err(f"{path}.weights", "needs at least one 'type: weight' entry")


@dataclass(frozen=True)
class TrafficSpec:
    """The traffic shape: scheduled batches, vendors, bursts, hot keys."""

    batches: int = field(default=4, metadata=_int(minimum=1))
    mean_gap_hours: float = field(default=6.0, metadata=_float(minimum=0.001))
    vendors: Tuple[VendorSpec, ...] = field(default=(), metadata=_sections(VendorSpec))
    bursts: Tuple[BurstSpec, ...] = field(default=(), metadata=_sections(BurstSpec))
    hot_keys: Tuple[HotKeySpec, ...] = field(default=(), metadata=_sections(HotKeySpec))

    def _check(self, path: str) -> None:
        names = [vendor.name for vendor in self.vendors]
        if len(set(names)) != len(names):
            raise _err(f"{path}.vendors", f"duplicate vendor names in {names}")
        for i, burst in enumerate(self.bursts):
            if burst.vendor not in names:
                raise _err(f"{path}.bursts[{i}].vendor",
                           f"unknown vendor {burst.vendor!r}; declared: {names}")


@dataclass(frozen=True)
class DriftOp:
    """One scheduled drift operation (see :class:`DriftInjector`)."""

    at_batch: int = field(metadata=_AT_BATCH)
    op: str = field(metadata=_str(required=True))
    type: str = field(default="", metadata=_str())
    slot: str = field(default="", metadata=_str())
    phrases: Tuple[str, ...] = field(default=(), metadata=_STRS)
    heads: Tuple[str, ...] = field(default=(), metadata=_STRS)
    weights: Tuple[Tuple[str, float], ...] = field(
        default=(), metadata={"read": _get_weights})
    department: str = field(default="", metadata=_str())
    factor: float = field(default=1.0, metadata=_float(minimum=0.0))

    def _check(self, path: str) -> None:
        if self.op not in _DRIFT_NEEDS:
            raise _err(f"{path}.op", f"unknown drift op {self.op!r}; one of {list(DRIFT_OPS)}")
        needs, named = _DRIFT_NEEDS[self.op]
        if not all(getattr(self, need) for need in needs):
            raise _err(path, f"{self.op} needs {named}")


@dataclass(frozen=True)
class TaxonomyChange:
    """A scheduled split or merge, with the rule-migration plan applied."""

    at_batch: int = field(metadata=_AT_BATCH)
    op: str = field(metadata=_str(required=True))  # "split" | "merge"
    type: str = field(default="", metadata=_str())
    # split: new type -> phrases
    into: Tuple[Tuple[str, Tuple[str, ...]], ...] = field(
        default=(), metadata={"read": _get_into})
    types: Tuple[str, ...] = field(default=(), metadata=_STRS)  # merge: old types
    merged: str = field(default="", metadata=_str())  # merge: new type name
    sample_items: int = field(default=30, metadata=_int(minimum=1))
    write_rules: bool = field(default=True, metadata=_BOOL)

    def _check(self, path: str) -> None:
        if self.op not in ("split", "merge"):
            raise _err(f"{path}.op", f"unknown taxonomy op {self.op!r}; split or merge")
        if self.op == "split" and (not self.type or len(self.into) < 2):
            raise _err(path, "split needs type and an 'into' map of >= 2 new types")
        if self.op == "merge" and (len(self.types) < 2 or not self.merged):
            raise _err(path, "merge needs >= 2 old types and a merged name")


@dataclass(frozen=True)
class RuleChurn:
    """Mass rule churn: disable a slice of the ruleset, re-enable later."""

    at_batch: int = field(metadata=_AT_BATCH)
    disable_fraction: float = field(default=0.0, metadata=_float(minimum=0.0, maximum=1.0))
    disable_count: int = field(default=0, metadata=_int(minimum=0))
    # 0 = never re-enable
    reenable_after: int = field(default=0, metadata=_int(minimum=0))

    def _check(self, path: str) -> None:
        if not self.disable_fraction and not self.disable_count:
            raise _err(path, "needs disable_fraction or disable_count")


@dataclass(frozen=True)
class ScaleUp:
    """Onboard types fast: the analyst writes their obvious rules."""

    at_batch: int = field(metadata=_AT_BATCH)
    types: Tuple[str, ...] = field(default=(), metadata=_STRS)

    def _check(self, path: str) -> None:
        if not self.types:
            raise _err(path, "needs at least one type")


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled fault for the partitioned executor's fault plan."""

    kind: str = field(metadata=_str(required=True))
    worker: Optional[int] = field(default=None, metadata={"read": _get_coordinate})
    shard: Optional[int] = field(default=None, metadata={"read": _get_coordinate})
    attempt: Optional[int] = field(default=None, metadata={"read": _get_coordinate})
    detail: str = field(default="", metadata=_str())

    def _check(self, path: str) -> None:
        if self.kind not in ("crash", "hang", "corrupt"):
            raise _err(f"{path}.kind", f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class FaultsSpec:
    """The fault plan: explicit entries and/or a seeded random plan."""

    plan: Tuple[FaultEntry, ...] = field(default=(), metadata=_sections(FaultEntry))
    random_rate: float = field(
        default=0.0, metadata={**_float(minimum=0.0, maximum=1.0), "key": "random.rate"})
    random_spare_workers: int = field(
        default=1, metadata={**_int(minimum=0), "key": "random.spare_workers"})

    @property
    def empty(self) -> bool:
        return not self.plan and not self.random_rate


@dataclass(frozen=True)
class CrowdSpec:
    """Crowd evaluation points and the budget that bounds them."""

    budget: float = field(default=0.0, metadata=_float(minimum=0.0))  # 0 = unlimited
    sample_per_rule: int = field(default=3, metadata=_int(minimum=1))
    votes_per_pair: int = field(default=3, metadata=_int(minimum=1))
    at_batches: Tuple[int, ...] = field(default=(), metadata={"read": _get_batches})

    def _check(self, path: str) -> None:
        if self.votes_per_pair % 2 == 0:
            raise _err(f"{path}.votes_per_pair", f"must be odd, got {self.votes_per_pair}")


@dataclass(frozen=True)
class QualitySpec:
    """Rule-quality telemetry wiring (PR 5's provenance + health windows)."""

    enabled: bool = field(default=True, metadata=_BOOL)
    window: int = field(default=8, metadata=_int(minimum=1))
    baseline_batches: int = field(default=2, metadata=_int(minimum=1))
    precision_floor: float = field(default=0.92, metadata=_float(minimum=0.0, maximum=1.0))
    auto_incidents: bool = field(default=True, metadata=_BOOL)
    auto_scale_down: bool = field(default=False, metadata=_BOOL)


@dataclass(frozen=True)
class IncidentPolicy:
    """The §2.2 playbook knobs: detect → scale down → repair → restore."""

    monitor_floor: float = field(default=0.92, metadata=_float(minimum=0.001, maximum=1.0))
    monitor_window: int = field(default=4, metadata=_int(minimum=1))
    auto_scale_down: bool = field(default=False, metadata=_BOOL)
    # batches after scale-down; 0 = never repair
    repair_after: int = field(default=0, metadata=_int(minimum=0))
    max_error_samples: int = field(default=40, metadata=_int(minimum=1))


@dataclass(frozen=True)
class AnalystSpec:
    """The simulated analyst's throughput and accuracy profile."""

    rules_per_day: int = field(default=40, metadata=_int(minimum=1))
    verification_accuracy: float = field(
        default=0.97, metadata=_float(minimum=0.0, maximum=1.0))
    labeling_accuracy: float = field(default=0.98, metadata=_float(minimum=0.0, maximum=1.0))


@dataclass(frozen=True)
class RepoEvent:
    """One scheduled repository action: snapshot or rollback by name."""

    at_batch: int = field(metadata=_AT_BATCH)
    name: str = field(metadata=_str(required=True))


@dataclass(frozen=True)
class RepositorySpec:
    """Rule-repository wiring: audit log, named snapshots, rollbacks.

    When enabled, the runner binds the Chimera's rule sets to an
    in-memory :class:`~repro.repository.RuleRepository`; every rule
    mutation of the run (analyst additions, churn, incident scale-downs)
    lands in the audit log, and the schedule can take named snapshots and
    roll namespaces back to them (delta ops only — §2.2 restore).
    """

    enabled: bool = field(default=False, metadata={"read": _get_enabled})
    snapshots: Tuple[RepoEvent, ...] = field(default=(), metadata=_sections(RepoEvent))
    rollbacks: Tuple[RepoEvent, ...] = field(default=(), metadata=_sections(RepoEvent))

    def _check(self, path: str) -> None:
        if (self.snapshots or self.rollbacks) and not self.enabled:
            raise _err(path, "snapshots/rollbacks need enabled: true")
        names = [event.name for event in self.snapshots]
        if len(set(names)) != len(names):
            raise _err(f"{path}.snapshots", f"duplicate snapshot names in {names}")
        for i, event in enumerate(self.rollbacks):
            if event.name not in names:
                raise _err(f"{path}.rollbacks[{i}].name",
                           f"unknown snapshot {event.name!r}; declared: {names}")


@dataclass(frozen=True)
class ExecutorSpec:
    """The shape of the report's fired-map digest: per batch from the
    engine's rows (``indexed``), per batch from the partitioned fault
    model checked against them (``partitioned``), or the final map
    (``incremental``); ``none`` digests nothing."""

    kind: str = field(default="incremental", metadata=_str())
    n_workers: int = field(default=4, metadata=_int(minimum=1))

    def _check(self, path: str) -> None:
        if self.kind not in EXECUTOR_KINDS:
            raise _err(f"{path}.kind",
                       f"unknown executor {self.kind!r}; one of {list(EXECUTOR_KINDS)}")


#: Exit-condition keys and the direction they compare in.
_EXIT_CHECKS: Dict[str, str] = {
    **dict.fromkeys((
        "min_batches", "min_items", "final_precision_at_least",
        "mean_precision_at_least", "final_coverage_at_least", "min_incidents",
        "min_closed_incidents", "min_alerts", "min_drift_alerts",
        "min_faults_triggered", "min_degraded_runs", "min_rules_disabled",
        "min_taxonomy_changes", "min_repository_changes", "min_snapshots",
        "min_rollbacks"), "ge"),
    "max_open_incidents": "le",
    "max_skipped_items": "le",
    "expect_budget_exhausted": "eq",
    # Wall-clock budgets (ROADMAP item 4: latency/budget exit conditions).
    # These read the host's real clock, so specs using them trade away
    # byte-replay identity of the *report* (the measured milliseconds
    # differ run to run); the golden scenarios stay wall-free.
    "max_batch_latency_ms": "le",
    "max_wall_seconds": "le",
}


@dataclass(frozen=True)
class ExitConditions:
    """Declarative pass/fail checks evaluated over the finished run."""

    checks: Tuple[Tuple[str, Any], ...] = field(
        default=(), metadata={"read": _get_exit_checks, "key": ""})

    def __len__(self) -> int:
        return len(self.checks)


def _events(section: Any, path: str) -> Iterator[Tuple[str, int]]:
    """``(path, at_batch)`` of every scheduled event under ``section``."""
    for spec in fields(section):
        value, where = getattr(section, spec.name), _child(path, spec.name)
        if spec.name == "at_batch":
            yield path, value
        elif spec.name == "at_batches":
            yield from ((f"{where}[{i}]", at_batch) for i, at_batch in enumerate(value))
        elif is_dataclass(value):
            yield from _events(value, where)
        elif isinstance(value, tuple) and value and is_dataclass(value[0]):
            for i, entry in enumerate(value):
                yield from _events(entry, f"{where}[{i}]")


@dataclass(frozen=True)
class ScenarioSpec:
    """The whole scenario document, validated."""

    name: str = field(metadata=_str(required=True))
    description: str = field(default="", metadata=_str())
    seed: int = field(default=0, metadata=_int(minimum=0))
    tags: Tuple[str, ...] = field(default=(), metadata=_STRS)
    catalog: CatalogSpec = field(default_factory=CatalogSpec, metadata=_section(CatalogSpec))
    traffic: TrafficSpec = field(default_factory=TrafficSpec, metadata=_section(TrafficSpec))
    drift: Tuple[DriftOp, ...] = field(default=(), metadata=_sections(DriftOp))
    taxonomy_changes: Tuple[TaxonomyChange, ...] = field(
        default=(), metadata=_sections(TaxonomyChange))
    rule_churn: Tuple[RuleChurn, ...] = field(default=(), metadata=_sections(RuleChurn))
    scale_ups: Tuple[ScaleUp, ...] = field(default=(), metadata=_sections(ScaleUp))
    faults: FaultsSpec = field(default_factory=FaultsSpec, metadata=_section(FaultsSpec))
    crowd: CrowdSpec = field(default_factory=CrowdSpec, metadata=_section(CrowdSpec))
    quality: QualitySpec = field(default_factory=QualitySpec, metadata=_section(QualitySpec))
    incidents: IncidentPolicy = field(
        default_factory=IncidentPolicy, metadata=_section(IncidentPolicy))
    analyst: AnalystSpec = field(default_factory=AnalystSpec, metadata=_section(AnalystSpec))
    executor: ExecutorSpec = field(default_factory=ExecutorSpec, metadata=_section(ExecutorSpec))
    repository: RepositorySpec = field(
        default_factory=RepositorySpec, metadata=_section(RepositorySpec))
    exit: ExitConditions = field(
        default_factory=ExitConditions, metadata=_section(ExitConditions))

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        return _read(cls, data, _ROOT)

    def _check(self, path: str) -> None:
        """Every scheduled event must land inside the scheduled batches,
        and every fault coordinate inside the executor's workers."""
        last = self.traffic.batches - 1
        for where, at_batch in _events(self, path):
            if at_batch > last:
                raise _err(where, f"at_batch {at_batch} is past the last "
                                  f"scheduled batch ({last})")
        if not self.faults.empty and self.executor.kind != "partitioned":
            raise _err("faults", "a fault plan needs executor.kind: partitioned")
        # Workers, shards and attempts all range over [0, n_workers).
        n_workers = self.executor.n_workers
        for i, entry in enumerate(self.faults.plan):
            for key in ("worker", "shard", "attempt"):
                value = getattr(entry, key)
                if value is not None and value >= n_workers:
                    raise _err(f"faults.plan[{i}].{key}",
                               f"{value} is out of range for n_workers={n_workers}")
        if self.faults.random_spare_workers > n_workers:
            raise _err("faults.random.spare_workers",
                       f"{self.faults.random_spare_workers} exceeds "
                       f"n_workers={n_workers}")

    # -- canonical form ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical (JSON-safe, key-sorted) dict form of this spec."""

        def unfreeze(value: Any) -> Any:
            if isinstance(value, tuple):
                return [unfreeze(v) for v in value]
            if is_dataclass(value):
                return {key: unfreeze(getattr(value, key))
                        for key in sorted(value.__dataclass_fields__)}
            return value

        return {key: unfreeze(getattr(self, key)) for key in self.TOP_KEYS}

    def fingerprint(self) -> str:
        """A stable content hash of the scenario's *shape*.

        The default seed is excluded: it is a run input (reports carry the
        effective seed separately), so ``seed: S`` in YAML and ``--seed S``
        on the CLI produce identical reports.
        """
        shape = self.to_dict()
        del shape["seed"]
        canonical = json.dumps(shape, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: The document's top-level keys, in declaration order.
ScenarioSpec.TOP_KEYS = tuple(spec.name for spec in fields(ScenarioSpec))


def loads(text: str) -> ScenarioSpec:
    """Parse and validate one scenario document from YAML text."""
    return ScenarioSpec.from_dict(safe_load(text))


def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate a scenario spec from a YAML file."""
    with open(path) as handle:
        text = handle.read()
    try:
        return loads(text)
    except SpecError as error:
        raise SpecError(f"{os.path.basename(path)}: {error}") from error
