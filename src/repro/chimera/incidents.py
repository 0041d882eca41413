"""Incident response: scale down, repair, restore, scale up (section 2.2).

"Once detected, we need a way to quickly 'scale down' the system, e.g.,
disabling the 'bad parts' of the currently deployed system ... After
'scaling down' the system, we need a way to debug, repair, then restore the
system to the previous state quickly."
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analyst.analyst import SimulatedAnalyst
from repro.catalog.types import ProductItem
from repro.chimera.pipeline import Chimera

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.repository import RuleRepository


@dataclass
class Incident:
    """One incident and everything done to contain it.

    ``kind`` distinguishes *quality* incidents (a type's precision burned;
    the scale-down / repair / restore playbook applies) from
    *stage-failure* incidents (a classifier stage started throwing and its
    circuit breaker opened; containment is automatic, the incident exists
    for visibility and postmortem) and *rule-quality* incidents (the
    telemetry layer caught specific rules below the precision floor or
    drifting; scale-down disables exactly those rules).
    """

    incident_id: str
    opened_at: float
    affected_types: Tuple[str, ...]
    disabled_rule_ids: Dict[str, List[str]] = field(default_factory=dict)
    status: str = "open"  # open -> scaled-down -> repaired -> closed
    notes: List[str] = field(default_factory=list)
    kind: str = "quality"  # "quality" | "stage-failure" | "rule-quality"
    # rule-quality incidents name the offending rules, not types.
    rule_ids: Tuple[str, ...] = ()


class IncidentManager:
    """Executes the scale-down / repair / restore playbook on a Chimera.

    When given a :class:`~repro.repository.RuleRepository` whose namespaces
    are bound to the Chimera's rule sets (:func:`repro.repository.bind_chimera`),
    every rule the playbook disables or re-enables lands in the repository's
    audit log attributed to the incident — ``blame`` on a rule answers "why
    is this off?" with the incident id as provenance.
    """

    def __init__(self, chimera: Chimera, repository: Optional["RuleRepository"] = None):
        self.chimera = chimera
        self.repository = repository
        self.incidents: List[Incident] = []

    def _next_id(self) -> str:
        """Incidents are numbered per manager, so ids replay with the log."""
        return f"incident-{len(self.incidents) + 1:04d}"

    def _attributed(self, incident: Incident, action: str):
        """Attribution scope recording playbook mutations against the incident."""
        if self.repository is None:
            return nullcontext()
        return self.repository.attribution(
            author="incident-manager",
            reason=f"{action} {incident.incident_id}",
            provenance=incident.incident_id,
        )

    def open_incident(self, affected_types: Sequence[str], at: float = 0.0) -> Incident:
        if not affected_types:
            raise ValueError("an incident needs at least one affected type")
        incident = Incident(
            incident_id=self._next_id(),
            opened_at=at,
            affected_types=tuple(sorted(affected_types)),
        )
        self.incidents.append(incident)
        return incident

    def open_stage_incident(self, stage_name: str, at: float = 0.0) -> Incident:
        """Record that a classifier stage's circuit breaker opened.

        The breaker already routed traffic around the stage, so there is
        nothing to scale down; the incident gives operators the §2.2
        detect → debug → restore trail for component failures.
        """
        incident = Incident(
            incident_id=self._next_id(),
            opened_at=at,
            affected_types=(stage_name,),
            kind="stage-failure",
        )
        incident.notes.append(
            f"circuit breaker opened for stage {stage_name!r}; "
            "stage is being routed around"
        )
        self.incidents.append(incident)
        return incident

    def open_rule_incident(
        self, rule_ids: Sequence[str], reason: str = "", at: float = 0.0
    ) -> Incident:
        """Open a rule-quality incident naming the offending rules.

        Fired by :meth:`watch_quality` when the telemetry layer catches a
        precision-floor breach or a fire-rate drift; :meth:`scale_down`
        then disables exactly those rules (compositional containment —
        the rest of the ruleset keeps working, §2.2).
        """
        if not rule_ids:
            raise ValueError("a rule incident needs at least one rule id")
        incident = Incident(
            incident_id=self._next_id(),
            opened_at=at,
            affected_types=(),
            kind="rule-quality",
            rule_ids=tuple(sorted(set(rule_ids))),
        )
        if reason:
            incident.notes.append(reason)
        self.incidents.append(incident)
        return incident

    def watch_quality(self, tracker, clock=None) -> None:
        """Auto-open a rule incident for every rule-quality alert.

        Subscribes to a
        :class:`~repro.observability.quality.RuleHealthTracker` (or a
        :class:`~repro.observability.quality.QualityTelemetry` facade):
        each precision-floor / drift alert becomes an open incident
        carrying the offending rule ids, ready for :meth:`scale_down`.
        """
        def on_alert(alert) -> None:
            at = clock.now if clock is not None else 0.0
            self.open_rule_incident(
                alert.rule_ids,
                reason=f"[{alert.kind}] batch {alert.batch_id}: {alert.detail}",
                at=at,
            )

        tracker.on_alert.append(on_alert)

    def watch_health(self, clock=None) -> None:
        """Auto-open a stage incident whenever a breaker trips.

        Subscribes to the Chimera's :class:`StageHealthMonitor`; ``clock``
        (a :class:`~repro.utils.clock.SimClock`), when given, timestamps
        the incident with simulation time.
        """
        def on_open(stage_name: str) -> None:
            at = clock.now if clock is not None else 0.0
            self.open_stage_incident(stage_name, at=at)

        self.chimera.health.on_breaker_open.append(on_open)

    def close_stage_incident(self, incident: Incident) -> None:
        """Close a stage-failure incident once the stage is healthy again."""
        if incident.kind != "stage-failure":
            raise ValueError(f"not a stage-failure incident: {incident.kind!r}")
        incident.status = "closed"
        incident.notes.append("stage recovered")

    def scale_down(self, incident: Incident) -> None:
        """Disable the bad parts: suppress the affected types everywhere.

        Rule modules: disable each affected type's rules (compositional —
        minimal impact on the rest). Learning: suppress predictions for the
        types at the Voting Master (a learning module cannot be partially
        retrained in minutes, so suppression is the fast control).
        """
        if incident.kind == "stage-failure":
            raise ValueError(
                "stage-failure incidents are contained by the circuit breaker; "
                "there is nothing to scale down"
            )
        if incident.status != "open":
            raise ValueError(f"cannot scale down incident in state {incident.status!r}")
        if incident.kind == "rule-quality":
            self._scale_down_rules(incident)
            return
        with self._attributed(incident, "scale down"):
            for type_name in incident.affected_types:
                disabled = self.chimera.rule_stage.rules.disable_type(type_name)
                attr_disabled = self.chimera.attr_stage.rules.disable_type(type_name)
                incident.disabled_rule_ids[type_name] = disabled + attr_disabled
                self.chimera.voting.suppressed_types.add(type_name)
                self.chimera.learning_stage.suppressed_types.add(type_name)
        incident.status = "scaled-down"
        incident.notes.append(
            f"suppressed {len(incident.affected_types)} types, "
            f"disabled {sum(len(v) for v in incident.disabled_rule_ids.values())} rules"
        )

    def _rule_stages(self):
        """(stage name, ruleset) pairs a rule incident may touch."""
        return (
            ("rule-based", self.chimera.rule_stage.rules),
            ("attr-value", self.chimera.attr_stage.rules),
            ("filter", self.chimera.filter.rules),
        )

    def _scale_down_rules(self, incident: Incident) -> None:
        """Disable exactly the incident's named rules, wherever they live."""
        missing: List[str] = []
        with self._attributed(incident, "scale down"):
            for rule_id in incident.rule_ids:
                found = False
                for stage_name, rules in self._rule_stages():
                    if rule_id in rules:
                        found = True
                        if rules.is_enabled(rule_id):
                            rules.disable(rule_id)
                            incident.disabled_rule_ids.setdefault(
                                stage_name, []
                            ).append(rule_id)
                        break
                if not found:
                    missing.append(rule_id)
        incident.status = "scaled-down"
        disabled = sum(len(v) for v in incident.disabled_rule_ids.values())
        incident.notes.append(
            f"disabled {disabled} of {len(incident.rule_ids)} flagged rules"
            + (f" (not found: {', '.join(missing)})" if missing else "")
        )

    def repair(
        self,
        incident: Incident,
        analyst: SimulatedAnalyst,
        error_samples: Sequence[Tuple[ProductItem, str]],
    ) -> int:
        """Analysts patch the affected types from sampled errors.

        Returns the number of rules added. Also refreshes the affected
        types' obvious rules so the repaired vocabulary is covered.
        """
        if incident.status != "scaled-down":
            raise ValueError(f"cannot repair incident in state {incident.status!r}")
        whitelists, blacklists = analyst.patch_rules_for_errors(error_samples)
        self.chimera.add_whitelist_rules(whitelists)
        self.chimera.add_blacklist_rules(blacklists)
        added = len(whitelists) + len(blacklists)
        for type_name in incident.affected_types:
            if type_name in analyst.taxonomy:
                refreshed = analyst.obvious_rules(type_name)
                self.chimera.add_whitelist_rules(refreshed)
                added += len(refreshed)
        incident.status = "repaired"
        incident.notes.append(f"added {added} repair rules")
        return added

    def restore(self, incident: Incident) -> None:
        """Re-enable what scale-down disabled and lift the suppressions."""
        if incident.status not in ("scaled-down", "repaired"):
            raise ValueError(f"cannot restore incident in state {incident.status!r}")
        with self._attributed(incident, "restore"):
            for type_name, rule_ids in incident.disabled_rule_ids.items():
                for rule_id in rule_ids:
                    if rule_id in self.chimera.rule_stage.rules:
                        self.chimera.rule_stage.rules.enable(rule_id)
                    elif rule_id in self.chimera.attr_stage.rules:
                        self.chimera.attr_stage.rules.enable(rule_id)
                    elif rule_id in self.chimera.filter.rules:
                        self.chimera.filter.rules.enable(rule_id)
            for type_name in incident.affected_types:
                self.chimera.voting.suppressed_types.discard(type_name)
                self.chimera.learning_stage.suppressed_types.discard(type_name)
        incident.status = "closed"
        incident.notes.append("restored")

    def scale_up(
        self,
        analyst: SimulatedAnalyst,
        new_type_names: Sequence[str],
    ) -> int:
        """Onboard unfamiliar types fast by writing their obvious rules.

        Section 2.2's scale-up: "we need a way to extend Chimera to classify
        these new items as soon as possible" (e.g. a new vendor contract).
        Returns the number of rules added.
        """
        added = 0
        for type_name in new_type_names:
            rules = analyst.obvious_rules(type_name)
            self.chimera.add_whitelist_rules(rules)
            added += len(rules)
        return added
