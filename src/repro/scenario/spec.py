"""The declarative scenario spec and its validating loader.

A scenario is one YAML document describing an end-to-end simulation over
the ``BatchStream`` → Chimera → executor stack (ROADMAP item 4): the
catalog profile, the traffic shape (vendors, bursts, hot-key skew), the
drift schedule, the fault plan, taxonomy-change events, analyst/crowd
budgets, and the exit conditions the run must satisfy. Every field is
validated here with positioned errors, so a typo in a spec fails at load
time, not three phases into a simulation.

Batch indices are 0-based: an event with ``at_batch: k`` is applied
*before* the k-th scheduled batch is produced. Everything in a spec is
data — no field names code — and a spec plus a seed fully determines a
run (see :mod:`repro.scenario.runner` for the determinism contract).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.scenario.yamlio import safe_load

#: Fired-map executor kinds the runner knows how to drive.
EXECUTOR_KINDS = ("none", "indexed", "partitioned", "incremental")

#: Drift-schedule operations (mirroring DriftInjector's surface).
DRIFT_OPS = (
    "extend_slot",
    "replace_slot",
    "shift_heads",
    "shift_distribution",
    "surge_department",
)


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


def _get_int(data: Mapping[str, Any], key: str, path: str, default: int,
             minimum: Optional[int] = None) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_float(data: Mapping[str, Any], key: str, path: str, default: float,
               minimum: Optional[float] = None,
               maximum: Optional[float] = None) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(f"{path}.{key}", f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _err(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return value


def _get_bool(data: Mapping[str, Any], key: str, path: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _err(f"{path}.{key}", f"expected true/false, got {value!r}")
    return value


def _get_str(data: Mapping[str, Any], key: str, path: str,
             default: str = "", required: bool = False) -> str:
    value = data.get(key, default)
    if required and not value:
        raise _err(f"{path}.{key}", "is required")
    if not isinstance(value, str):
        raise _err(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


def _get_str_list(data: Mapping[str, Any], key: str, path: str) -> Tuple[str, ...]:
    values = _require_list(data.get(key), f"{path}.{key}")
    for value in values:
        if not isinstance(value, str):
            raise _err(f"{path}.{key}", f"expected strings, got {value!r}")
    return tuple(values)


def _get_str_map(data: Mapping[str, Any], key: str, path: str) -> Dict[str, str]:
    mapping = _require_map(data.get(key), f"{path}.{key}")
    out: Dict[str, str] = {}
    for k, v in mapping.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise _err(f"{path}.{key}", f"expected string keys/values, got {k!r}: {v!r}")
        out[k] = v
    return out


def _get_weight_map(data: Mapping[str, Any], key: str, path: str) -> Dict[str, float]:
    mapping = _require_map(data.get(key), f"{path}.{key}")
    out: Dict[str, float] = {}
    for k, v in mapping.items():
        if not isinstance(k, str) or isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _err(f"{path}.{key}", f"expected 'type: weight' entries, got {k!r}: {v!r}")
        if v < 0:
            raise _err(f"{path}.{key}", f"weight for {k!r} must be >= 0, got {v}")
        out[k] = float(v)
    return out


# -- section dataclasses ---------------------------------------------------------


@dataclass(frozen=True)
class CatalogSpec:
    """The catalog profile: taxonomy size, training volume, seeded rules."""

    extra_types: int = 0
    training: int = 0
    min_examples: int = 5
    obvious_rule_types: Tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str = "catalog") -> "CatalogSpec":
        data = _require_map(data, path)
        _check_keys(data, ("extra_types", "training", "min_examples",
                           "obvious_rule_types"), path)
        return cls(
            extra_types=_get_int(data, "extra_types", path, 0, minimum=0),
            training=_get_int(data, "training", path, 0, minimum=0),
            min_examples=_get_int(data, "min_examples", path, 5, minimum=1),
            obvious_rule_types=_get_str_list(data, "obvious_rule_types", path),
        )


@dataclass(frozen=True)
class VendorSpec:
    """One vendor profile (size range, departments, vocabulary rewrites)."""

    name: str
    min_batch: int = 20
    max_batch: int = 200
    departments: Tuple[str, ...] = ()
    rewrites: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "VendorSpec":
        data = _require_map(data, path)
        _check_keys(data, ("name", "min_batch", "max_batch", "departments",
                           "rewrites"), path)
        min_batch = _get_int(data, "min_batch", path, 20, minimum=1)
        max_batch = _get_int(data, "max_batch", path, 200, minimum=1)
        if max_batch < min_batch:
            raise _err(path, f"max_batch ({max_batch}) < min_batch ({min_batch})")
        return cls(
            name=_get_str(data, "name", path, required=True),
            min_batch=min_batch,
            max_batch=max_batch,
            departments=_get_str_list(data, "departments", path),
            rewrites=tuple(sorted(_get_str_map(data, "rewrites", path).items())),
        )


@dataclass(frozen=True)
class BurstSpec:
    """Extra batches from a named vendor injected at one point in the run."""

    at_batch: int
    vendor: str
    batches: int = 1

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "BurstSpec":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "vendor", "batches"), path)
        return cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            vendor=_get_str(data, "vendor", path, required=True),
            batches=_get_int(data, "batches", path, 1, minimum=1),
        )


@dataclass(frozen=True)
class HotKeySpec:
    """Type-weight overrides applied at one point (hot-key skew)."""

    at_batch: int
    weights: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "HotKeySpec":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "weights"), path)
        weights = _get_weight_map(data, "weights", path)
        if not weights:
            raise _err(f"{path}.weights", "needs at least one 'type: weight' entry")
        return cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            weights=tuple(sorted(weights.items())),
        )


@dataclass(frozen=True)
class TrafficSpec:
    """The traffic shape: scheduled batches, vendors, bursts, hot keys."""

    batches: int = 4
    mean_gap_hours: float = 6.0
    vendors: Tuple[VendorSpec, ...] = ()
    bursts: Tuple[BurstSpec, ...] = ()
    hot_keys: Tuple[HotKeySpec, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str = "traffic") -> "TrafficSpec":
        data = _require_map(data, path)
        _check_keys(data, ("batches", "mean_gap_hours", "vendors", "bursts",
                           "hot_keys"), path)
        vendors = tuple(
            VendorSpec.from_dict(entry, f"{path}.vendors[{i}]")
            for i, entry in enumerate(_require_list(data.get("vendors"), f"{path}.vendors"))
        )
        names = [vendor.name for vendor in vendors]
        if len(set(names)) != len(names):
            raise _err(f"{path}.vendors", f"duplicate vendor names in {names}")
        bursts = tuple(
            BurstSpec.from_dict(entry, f"{path}.bursts[{i}]")
            for i, entry in enumerate(_require_list(data.get("bursts"), f"{path}.bursts"))
        )
        for i, burst in enumerate(bursts):
            if burst.vendor not in names:
                raise _err(f"{path}.bursts[{i}].vendor",
                           f"unknown vendor {burst.vendor!r}; declared: {names}")
        return cls(
            batches=_get_int(data, "batches", path, 4, minimum=1),
            mean_gap_hours=_get_float(data, "mean_gap_hours", path, 6.0, minimum=0.001),
            vendors=vendors,
            bursts=bursts,
            hot_keys=tuple(
                HotKeySpec.from_dict(entry, f"{path}.hot_keys[{i}]")
                for i, entry in enumerate(
                    _require_list(data.get("hot_keys"), f"{path}.hot_keys"))
            ),
        )


@dataclass(frozen=True)
class DriftOp:
    """One scheduled drift operation (see :class:`DriftInjector`)."""

    at_batch: int
    op: str
    type: str = ""
    slot: str = ""
    phrases: Tuple[str, ...] = ()
    heads: Tuple[str, ...] = ()
    weights: Tuple[Tuple[str, float], ...] = ()
    department: str = ""
    factor: float = 1.0

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "DriftOp":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "op", "type", "slot", "phrases", "heads",
                           "weights", "department", "factor"), path)
        op = _get_str(data, "op", path, required=True)
        if op not in DRIFT_OPS:
            raise _err(f"{path}.op", f"unknown drift op {op!r}; one of {list(DRIFT_OPS)}")
        spec = cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            op=op,
            type=_get_str(data, "type", path),
            slot=_get_str(data, "slot", path),
            phrases=_get_str_list(data, "phrases", path),
            heads=_get_str_list(data, "heads", path),
            weights=tuple(sorted(_get_weight_map(data, "weights", path).items())),
            department=_get_str(data, "department", path),
            factor=_get_float(data, "factor", path, 1.0, minimum=0.0),
        )
        if op in ("extend_slot", "replace_slot"):
            if not spec.type or not spec.slot or not spec.phrases:
                raise _err(path, f"{op} needs type, slot, and phrases")
        elif op == "shift_heads":
            if not spec.type or not spec.heads:
                raise _err(path, "shift_heads needs type and heads")
        elif op == "shift_distribution":
            if not spec.weights:
                raise _err(path, "shift_distribution needs weights")
        elif op == "surge_department":
            if not spec.department:
                raise _err(path, "surge_department needs department")
        return spec


@dataclass(frozen=True)
class TaxonomyChange:
    """A scheduled split or merge, with the rule-migration plan applied."""

    at_batch: int
    op: str  # "split" | "merge"
    type: str = ""
    into: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()  # split: new type -> phrases
    types: Tuple[str, ...] = ()  # merge: old types
    merged: str = ""  # merge: new type name
    sample_items: int = 30
    write_rules: bool = True

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "TaxonomyChange":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "op", "type", "into", "types", "merged",
                           "sample_items", "write_rules"), path)
        op = _get_str(data, "op", path, required=True)
        if op not in ("split", "merge"):
            raise _err(f"{path}.op", f"unknown taxonomy op {op!r}; split or merge")
        into_map = _require_map(data.get("into"), f"{path}.into")
        into: List[Tuple[str, Tuple[str, ...]]] = []
        for name, phrases in sorted(into_map.items()):
            phrase_list = _require_list(phrases, f"{path}.into.{name}")
            for phrase in phrase_list:
                if not isinstance(phrase, str):
                    raise _err(f"{path}.into.{name}", f"expected strings, got {phrase!r}")
            into.append((str(name), tuple(phrase_list)))
        spec = cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            op=op,
            type=_get_str(data, "type", path),
            into=tuple(into),
            types=_get_str_list(data, "types", path),
            merged=_get_str(data, "merged", path),
            sample_items=_get_int(data, "sample_items", path, 30, minimum=1),
            write_rules=_get_bool(data, "write_rules", path, True),
        )
        if op == "split" and (not spec.type or len(spec.into) < 2):
            raise _err(path, "split needs type and an 'into' map of >= 2 new types")
        if op == "merge" and (len(spec.types) < 2 or not spec.merged):
            raise _err(path, "merge needs >= 2 old types and a merged name")
        return spec


@dataclass(frozen=True)
class RuleChurn:
    """Mass rule churn: disable a slice of the ruleset, re-enable later."""

    at_batch: int
    disable_fraction: float = 0.0
    disable_count: int = 0
    reenable_after: int = 0  # 0 = never re-enable

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "RuleChurn":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "disable_fraction", "disable_count",
                           "reenable_after"), path)
        spec = cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            disable_fraction=_get_float(data, "disable_fraction", path, 0.0,
                                        minimum=0.0, maximum=1.0),
            disable_count=_get_int(data, "disable_count", path, 0, minimum=0),
            reenable_after=_get_int(data, "reenable_after", path, 0, minimum=0),
        )
        if not spec.disable_fraction and not spec.disable_count:
            raise _err(path, "needs disable_fraction or disable_count")
        return spec


@dataclass(frozen=True)
class ScaleUp:
    """Onboard types fast: the analyst writes their obvious rules."""

    at_batch: int
    types: Tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "ScaleUp":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "types"), path)
        spec = cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            types=_get_str_list(data, "types", path),
        )
        if not spec.types:
            raise _err(path, "needs at least one type")
        return spec


@dataclass(frozen=True)
class FaultEntry:
    """One scheduled fault for the partitioned executor's fault plan."""

    kind: str
    worker: Optional[int] = None
    shard: Optional[int] = None
    attempt: Optional[int] = None
    detail: str = ""

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "FaultEntry":
        data = _require_map(data, path)
        _check_keys(data, ("kind", "worker", "shard", "attempt", "detail"), path)
        kind = _get_str(data, "kind", path, required=True)
        if kind not in ("crash", "hang", "corrupt"):
            raise _err(f"{path}.kind", f"unknown fault kind {kind!r}")

        def coord(key: str) -> Optional[int]:
            value = data.get(key)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise _err(f"{path}.{key}", f"expected a non-negative int, got {value!r}")
            return value

        return cls(
            kind=kind,
            worker=coord("worker"),
            shard=coord("shard"),
            attempt=coord("attempt"),
            detail=_get_str(data, "detail", path),
        )


@dataclass(frozen=True)
class FaultsSpec:
    """The fault plan: explicit entries and/or a seeded random plan."""

    plan: Tuple[FaultEntry, ...] = ()
    random_rate: float = 0.0
    random_spare_workers: int = 1

    @classmethod
    def from_dict(cls, data: Any, path: str = "faults") -> "FaultsSpec":
        data = _require_map(data, path)
        _check_keys(data, ("plan", "random"), path)
        plan = tuple(
            FaultEntry.from_dict(entry, f"{path}.plan[{i}]")
            for i, entry in enumerate(_require_list(data.get("plan"), f"{path}.plan"))
        )
        random_cfg = _require_map(data.get("random"), f"{path}.random")
        _check_keys(random_cfg, ("rate", "spare_workers"), f"{path}.random")
        return cls(
            plan=plan,
            random_rate=_get_float(random_cfg, "rate", f"{path}.random", 0.0,
                                   minimum=0.0, maximum=1.0),
            random_spare_workers=_get_int(random_cfg, "spare_workers",
                                          f"{path}.random", 1, minimum=0),
        )

    @property
    def empty(self) -> bool:
        return not self.plan and not self.random_rate


@dataclass(frozen=True)
class CrowdSpec:
    """Crowd evaluation points and the budget that bounds them."""

    budget: float = 0.0  # 0 = unlimited
    sample_per_rule: int = 3
    votes_per_pair: int = 3
    at_batches: Tuple[int, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str = "crowd") -> "CrowdSpec":
        data = _require_map(data, path)
        _check_keys(data, ("budget", "sample_per_rule", "votes_per_pair",
                           "at_batches"), path)
        at_batches = _require_list(data.get("at_batches"), f"{path}.at_batches")
        for value in at_batches:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise _err(f"{path}.at_batches", f"expected batch indices, got {value!r}")
        votes = _get_int(data, "votes_per_pair", path, 3, minimum=1)
        if votes % 2 == 0:
            raise _err(f"{path}.votes_per_pair", f"must be odd, got {votes}")
        return cls(
            budget=_get_float(data, "budget", path, 0.0, minimum=0.0),
            sample_per_rule=_get_int(data, "sample_per_rule", path, 3, minimum=1),
            votes_per_pair=votes,
            at_batches=tuple(sorted(at_batches)),
        )


@dataclass(frozen=True)
class QualitySpec:
    """Rule-quality telemetry wiring (PR 5's provenance + health windows)."""

    enabled: bool = True
    window: int = 8
    baseline_batches: int = 2
    precision_floor: float = 0.92
    auto_incidents: bool = True
    auto_scale_down: bool = False

    @classmethod
    def from_dict(cls, data: Any, path: str = "quality") -> "QualitySpec":
        data = _require_map(data, path)
        _check_keys(data, ("enabled", "window", "baseline_batches",
                           "precision_floor", "auto_incidents",
                           "auto_scale_down"), path)
        return cls(
            enabled=_get_bool(data, "enabled", path, True),
            window=_get_int(data, "window", path, 8, minimum=1),
            baseline_batches=_get_int(data, "baseline_batches", path, 2, minimum=1),
            precision_floor=_get_float(data, "precision_floor", path, 0.92,
                                       minimum=0.0, maximum=1.0),
            auto_incidents=_get_bool(data, "auto_incidents", path, True),
            auto_scale_down=_get_bool(data, "auto_scale_down", path, False),
        )


@dataclass(frozen=True)
class IncidentPolicy:
    """The §2.2 playbook knobs: detect → scale down → repair → restore."""

    monitor_floor: float = 0.92
    monitor_window: int = 4
    auto_scale_down: bool = False
    repair_after: int = 0  # batches after scale-down; 0 = never repair
    max_error_samples: int = 40

    @classmethod
    def from_dict(cls, data: Any, path: str = "incidents") -> "IncidentPolicy":
        data = _require_map(data, path)
        _check_keys(data, ("monitor_floor", "monitor_window", "auto_scale_down",
                           "repair_after", "max_error_samples"), path)
        return cls(
            monitor_floor=_get_float(data, "monitor_floor", path, 0.92,
                                     minimum=0.001, maximum=1.0),
            monitor_window=_get_int(data, "monitor_window", path, 4, minimum=1),
            auto_scale_down=_get_bool(data, "auto_scale_down", path, False),
            repair_after=_get_int(data, "repair_after", path, 0, minimum=0),
            max_error_samples=_get_int(data, "max_error_samples", path, 40, minimum=1),
        )


@dataclass(frozen=True)
class AnalystSpec:
    """The simulated analyst's throughput and accuracy profile."""

    rules_per_day: int = 40
    verification_accuracy: float = 0.97
    labeling_accuracy: float = 0.98

    @classmethod
    def from_dict(cls, data: Any, path: str = "analyst") -> "AnalystSpec":
        data = _require_map(data, path)
        _check_keys(data, ("rules_per_day", "verification_accuracy",
                           "labeling_accuracy"), path)
        return cls(
            rules_per_day=_get_int(data, "rules_per_day", path, 40, minimum=1),
            verification_accuracy=_get_float(data, "verification_accuracy", path,
                                             0.97, minimum=0.0, maximum=1.0),
            labeling_accuracy=_get_float(data, "labeling_accuracy", path,
                                         0.98, minimum=0.0, maximum=1.0),
        )


@dataclass(frozen=True)
class RepoEvent:
    """One scheduled repository action: snapshot or rollback by name."""

    at_batch: int
    name: str

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "RepoEvent":
        data = _require_map(data, path)
        _check_keys(data, ("at_batch", "name"), path)
        return cls(
            at_batch=_get_int(data, "at_batch", path, -1, minimum=0),
            name=_get_str(data, "name", path, required=True),
        )


@dataclass(frozen=True)
class RepositorySpec:
    """Rule-repository wiring: audit log, named snapshots, rollbacks.

    When enabled, the runner binds the Chimera's rule sets to an
    in-memory :class:`~repro.repository.RuleRepository`; every rule
    mutation of the run (analyst additions, churn, incident scale-downs)
    lands in the audit log, and the schedule can take named snapshots and
    roll namespaces back to them (delta ops only — §2.2 restore).
    """

    enabled: bool = False
    snapshots: Tuple[RepoEvent, ...] = ()
    rollbacks: Tuple[RepoEvent, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str = "repository") -> "RepositorySpec":
        data = _require_map(data, path)
        _check_keys(data, ("enabled", "snapshots", "rollbacks"), path)
        snapshots = tuple(
            RepoEvent.from_dict(entry, f"{path}.snapshots[{i}]")
            for i, entry in enumerate(
                _require_list(data.get("snapshots"), f"{path}.snapshots"))
        )
        rollbacks = tuple(
            RepoEvent.from_dict(entry, f"{path}.rollbacks[{i}]")
            for i, entry in enumerate(
                _require_list(data.get("rollbacks"), f"{path}.rollbacks"))
        )
        spec = cls(
            enabled=_get_bool(data, "enabled", path,
                              bool(snapshots or rollbacks)),
            snapshots=snapshots,
            rollbacks=rollbacks,
        )
        if (snapshots or rollbacks) and not spec.enabled:
            raise _err(path, "snapshots/rollbacks need enabled: true")
        names = [event.name for event in snapshots]
        if len(set(names)) != len(names):
            raise _err(f"{path}.snapshots", f"duplicate snapshot names in {names}")
        for i, event in enumerate(rollbacks):
            if event.name not in names:
                raise _err(f"{path}.rollbacks[{i}].name",
                           f"unknown snapshot {event.name!r}; declared: {names}")
        return spec


@dataclass(frozen=True)
class ExecutorSpec:
    """The shape of the report's fired-map digest: per batch from the
    engine's rows (``indexed``), per batch from the partitioned fault
    model checked against them (``partitioned``), or the final map
    (``incremental``); ``none`` digests nothing."""

    kind: str = "incremental"
    n_workers: int = 4

    @classmethod
    def from_dict(cls, data: Any, path: str = "executor") -> "ExecutorSpec":
        data = _require_map(data, path)
        _check_keys(data, ("kind", "n_workers"), path)
        kind = _get_str(data, "kind", path, default="incremental")
        if kind not in EXECUTOR_KINDS:
            raise _err(f"{path}.kind", f"unknown executor {kind!r}; one of {list(EXECUTOR_KINDS)}")
        return cls(
            kind=kind,
            n_workers=_get_int(data, "n_workers", path, 4, minimum=1),
        )


#: Exit-condition keys and the direction they compare in.
_EXIT_CHECKS: Dict[str, str] = {
    "min_batches": "ge",
    "min_items": "ge",
    "final_precision_at_least": "ge",
    "mean_precision_at_least": "ge",
    "final_coverage_at_least": "ge",
    "max_open_incidents": "le",
    "min_incidents": "ge",
    "min_closed_incidents": "ge",
    "min_alerts": "ge",
    "min_drift_alerts": "ge",
    "max_skipped_items": "le",
    "min_faults_triggered": "ge",
    "min_degraded_runs": "ge",
    "expect_budget_exhausted": "eq",
    "min_rules_disabled": "ge",
    "min_taxonomy_changes": "ge",
    "min_repository_changes": "ge",
    "min_snapshots": "ge",
    "min_rollbacks": "ge",
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

    checks: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_dict(cls, data: Any, path: str = "exit") -> "ExitConditions":
        data = _require_map(data, path)
        _check_keys(data, tuple(_EXIT_CHECKS), path)
        checks: List[Tuple[str, Any]] = []
        for key in sorted(data):
            value = data[key]
            if key == "expect_budget_exhausted":
                if not isinstance(value, bool):
                    raise _err(f"{path}.{key}", f"expected true/false, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _err(f"{path}.{key}", f"expected a number, got {value!r}")
            checks.append((key, value))
        return cls(checks=tuple(checks))

    def __len__(self) -> int:
        return len(self.checks)


@dataclass(frozen=True)
class ScenarioSpec:
    """The whole scenario document, validated."""

    name: str
    description: str = ""
    seed: int = 0
    tags: Tuple[str, ...] = ()
    catalog: CatalogSpec = field(default_factory=CatalogSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    drift: Tuple[DriftOp, ...] = ()
    taxonomy_changes: Tuple[TaxonomyChange, ...] = ()
    rule_churn: Tuple[RuleChurn, ...] = ()
    scale_ups: Tuple[ScaleUp, ...] = ()
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    crowd: CrowdSpec = field(default_factory=CrowdSpec)
    quality: QualitySpec = field(default_factory=QualitySpec)
    incidents: IncidentPolicy = field(default_factory=IncidentPolicy)
    analyst: AnalystSpec = field(default_factory=AnalystSpec)
    executor: ExecutorSpec = field(default_factory=ExecutorSpec)
    repository: RepositorySpec = field(default_factory=RepositorySpec)
    exit: ExitConditions = field(default_factory=ExitConditions)

    TOP_KEYS = ("name", "description", "seed", "tags", "catalog", "traffic",
                "drift", "taxonomy_changes", "rule_churn", "scale_ups",
                "faults", "crowd", "quality", "incidents", "analyst",
                "executor", "repository", "exit")

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        data = _require_map(data, "scenario")
        _check_keys(data, cls.TOP_KEYS, "scenario")
        spec = cls(
            name=_get_str(data, "name", "scenario", required=True),
            description=_get_str(data, "description", "scenario"),
            seed=_get_int(data, "seed", "scenario", 0, minimum=0),
            tags=_get_str_list(data, "tags", "scenario"),
            catalog=CatalogSpec.from_dict(data.get("catalog")),
            traffic=TrafficSpec.from_dict(data.get("traffic")),
            drift=tuple(
                DriftOp.from_dict(entry, f"drift[{i}]")
                for i, entry in enumerate(_require_list(data.get("drift"), "drift"))
            ),
            taxonomy_changes=tuple(
                TaxonomyChange.from_dict(entry, f"taxonomy_changes[{i}]")
                for i, entry in enumerate(
                    _require_list(data.get("taxonomy_changes"), "taxonomy_changes"))
            ),
            rule_churn=tuple(
                RuleChurn.from_dict(entry, f"rule_churn[{i}]")
                for i, entry in enumerate(
                    _require_list(data.get("rule_churn"), "rule_churn"))
            ),
            scale_ups=tuple(
                ScaleUp.from_dict(entry, f"scale_ups[{i}]")
                for i, entry in enumerate(
                    _require_list(data.get("scale_ups"), "scale_ups"))
            ),
            faults=FaultsSpec.from_dict(data.get("faults")),
            crowd=CrowdSpec.from_dict(data.get("crowd")),
            quality=QualitySpec.from_dict(data.get("quality")),
            incidents=IncidentPolicy.from_dict(data.get("incidents")),
            analyst=AnalystSpec.from_dict(data.get("analyst")),
            executor=ExecutorSpec.from_dict(data.get("executor")),
            repository=RepositorySpec.from_dict(data.get("repository")),
            exit=ExitConditions.from_dict(data.get("exit")),
        )
        spec._validate_schedule()
        return spec

    def _validate_schedule(self) -> None:
        """Every scheduled event must land inside the scheduled batches,
        and every fault coordinate inside the executor's workers."""
        last = self.traffic.batches - 1

        def check(at_batch: int, label: str) -> None:
            if at_batch > last:
                raise _err(label, f"at_batch {at_batch} is past the last "
                                  f"scheduled batch ({last})")

        for i, op in enumerate(self.drift):
            check(op.at_batch, f"drift[{i}]")
        for i, change in enumerate(self.taxonomy_changes):
            check(change.at_batch, f"taxonomy_changes[{i}]")
        for i, churn in enumerate(self.rule_churn):
            check(churn.at_batch, f"rule_churn[{i}]")
        for i, scale in enumerate(self.scale_ups):
            check(scale.at_batch, f"scale_ups[{i}]")
        for i, burst in enumerate(self.traffic.bursts):
            check(burst.at_batch, f"traffic.bursts[{i}]")
        for i, hot in enumerate(self.traffic.hot_keys):
            check(hot.at_batch, f"traffic.hot_keys[{i}]")
        for i, at_batch in enumerate(self.crowd.at_batches):
            check(at_batch, f"crowd.at_batches[{i}]")
        for i, event in enumerate(self.repository.snapshots):
            check(event.at_batch, f"repository.snapshots[{i}]")
        for i, event in enumerate(self.repository.rollbacks):
            check(event.at_batch, f"repository.rollbacks[{i}]")
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
            if hasattr(value, "__dataclass_fields__"):
                return {
                    key: unfreeze(getattr(value, key))
                    for key in sorted(value.__dataclass_fields__)
                }
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
