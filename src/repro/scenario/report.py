"""Per-scenario health reports: JSON + rendered text.

A :class:`ScenarioReport` is the runner's single deliverable: throughput,
the label-precision trajectory, incidents opened/resolved, rule-health
alerts, crowd spend, fault/degradation accounting, and the evaluated exit
conditions — everything the paper's §2.2 "ongoing system requirements"
ask an operator to watch, for one simulated deployment.

Determinism contract: a report is a pure function of (spec, seed). No
wall-clock time appears anywhere — throughput is items per *simulated*
hour, timestamps are :class:`~repro.utils.clock.SimClock` days, floats
are rounded to six digits, and JSON is serialized with sorted keys — so
two runs of the same spec and seed produce byte-identical files
(``tests/test_scenario_determinism.py`` holds the runner to this).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List


def round6(value: float) -> float:
    """The report-wide float policy: 6 digits, negative zero normalized."""
    rounded = round(float(value), 6)
    return 0.0 if rounded == 0 else rounded


@dataclass
class ExitCheck:
    """One evaluated exit condition."""

    name: str
    expected: Any
    actual: Any
    passed: bool

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, in JSON-safe form.

    The runner fills the dict fields with already-rounded, already-sorted
    primitives; this class only assembles, serializes, and renders.
    """

    scenario: str
    seed: int
    fingerprint: str
    executor: str
    passed: bool = True
    totals: Dict[str, Any] = field(default_factory=dict)
    batches: List[Dict[str, Any]] = field(default_factory=list)
    precision_trajectory: List[float] = field(default_factory=list)
    incidents: List[Dict[str, Any]] = field(default_factory=list)
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    drift_events: List[Dict[str, Any]] = field(default_factory=list)
    taxonomy_changes: List[Dict[str, Any]] = field(default_factory=list)
    crowd: Dict[str, Any] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)
    rules: Dict[str, Any] = field(default_factory=dict)
    repository: Dict[str, Any] = field(default_factory=dict)
    fired_digest: str = ""
    exit_checks: List[ExitCheck] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioReport":
        """Rebuild a report from its :meth:`to_dict` form (for re-rendering).

        A key the form lacks takes its field's default (``""`` for the
        fingerprint and the executor).
        """
        values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        values["exit_checks"] = [
            ExitCheck(**{f.name: entry[f.name] for f in fields(ExitCheck)})
            for entry in data.get("exit_checks", [])
        ]
        return cls(**{"fingerprint": "", "executor": "", **values})

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    # -- rendering ---------------------------------------------------------------

    def render_text(self) -> str:
        """The operator-facing text view of the same report."""
        lines: List[str] = []
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"scenario {self.scenario}  [{verdict}]")
        lines.append(
            f"  seed {self.seed} · spec {self.fingerprint} · "
            f"executor {self.executor}"
        )
        totals = self.totals
        lines.append(
            f"  {totals.get('batches', 0)} batches · "
            f"{totals.get('items', 0)} items · "
            f"{totals.get('classified', 0)} classified · "
            f"{totals.get('rejected', 0)} rejected"
        )
        lines.append(
            f"  throughput {totals.get('items_per_sim_hour', 0.0):g} items/sim-hour "
            f"over {totals.get('sim_hours', 0.0):g} simulated hours"
        )
        lines.append(
            f"  precision mean {totals.get('mean_precision', 0.0):.4f} "
            f"final {totals.get('final_precision', 0.0):.4f} · "
            f"coverage final {totals.get('final_coverage', 0.0):.4f}"
        )
        if self.precision_trajectory:
            spark = " ".join(f"{p:.3f}" for p in self.precision_trajectory)
            lines.append(f"  trajectory: {spark}")
        if self.drift_events:
            lines.append(f"  drift events ({len(self.drift_events)}):")
            for event in self.drift_events:
                lines.append(
                    f"    batch {event['at_batch']}: {event['kind']} "
                    f"{event['type']} {event['detail']}"
                )
        if self.taxonomy_changes:
            lines.append(f"  taxonomy changes ({len(self.taxonomy_changes)}):")
            for change in self.taxonomy_changes:
                lines.append(
                    f"    batch {change['at_batch']}: {change['op']} "
                    f"{change['detail']} (invalidated {change['invalidated']}, "
                    f"retargeted {change['retargeted']}, "
                    f"disabled {change['disabled']})"
                )
        if self.incidents:
            lines.append(f"  incidents ({len(self.incidents)}):")
            for incident in self.incidents:
                scope = incident["affected_types"] or incident["rule_ids"]
                lines.append(
                    f"    #{incident['ordinal']} [{incident['kind']}] "
                    f"{incident['status']} @ day {incident['opened_at']:g}: "
                    f"{', '.join(scope) if scope else '(none)'}"
                )
        else:
            lines.append("  incidents: none")
        if self.alerts:
            lines.append(f"  rule-health alerts ({len(self.alerts)}):")
            for alert in self.alerts:
                lines.append(
                    f"    [{alert['kind']}] batch {alert['batch_id']}: "
                    f"{alert['n_rules']} rule(s)"
                )
        if self.crowd:
            exhausted = " (budget exhausted)" if self.crowd.get("exhausted") else ""
            lines.append(
                f"  crowd: {self.crowd.get('evaluations', 0)} evaluation(s), "
                f"{self.crowd.get('answers', 0)} answers, "
                f"spent {self.crowd.get('spent', 0.0):g}{exhausted}"
            )
        if self.faults:
            lines.append(
                f"  faults: {self.faults.get('triggered', 0)} triggered · "
                f"{self.faults.get('degraded_runs', 0)} degraded run(s) · "
                f"{self.faults.get('skipped_items', 0)} item(s) skipped"
            )
        if self.rules:
            lines.append(
                f"  rules: {self.rules.get('final_total', 0)} total · "
                f"{self.rules.get('added', 0)} added · "
                f"{self.rules.get('disabled', 0)} disabled during run"
            )
        if self.repository:
            lines.append(
                f"  repository: {self.repository.get('changes', 0)} logged "
                f"change(s) · {self.repository.get('snapshots', 0)} snapshot(s) · "
                f"{self.repository.get('rollbacks', 0)} rollback(s)"
            )
            for event in self.repository.get("rollback_events", []):
                lines.append(
                    f"    batch {event['at_batch']}: rollback -> "
                    f"{event['name']!r} ({event['flips']} flips, "
                    f"{event['replaced']} replaced, {event['added']} re-added, "
                    f"{event['removed']} removed)"
                )
        lines.append(f"  fired digest: {self.fired_digest}")
        if self.exit_checks:
            lines.append("  exit conditions:")
            for check in self.exit_checks:
                mark = "ok " if check.passed else "FAIL"
                lines.append(
                    f"    [{mark}] {check.name}: expected {check.expected}, "
                    f"got {check.actual}"
                )
        else:
            lines.append("  exit conditions: (none declared)")
        return "\n".join(lines) + "\n"
