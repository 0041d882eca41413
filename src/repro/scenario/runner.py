"""The scenario runner: executes any spec deterministically from its seed.

This is ROADMAP item 4's engine. One :class:`ScenarioRunner` drives the
whole existing stack — ``BatchStream`` → the pipeline's engine, which
admits each batch before Chimera classifies it — through the spec's event
schedule: drift operations, taxonomy splits/merges, mass rule churn,
vendor bursts, hot-key skew, fault plans, the §2.2 incident playbook
(detect → scale down → repair → restore), and crowd evaluation under a
budget. The output is a
:class:`~repro.scenario.report.ScenarioReport`.

Determinism contract (property-tested in
``tests/test_scenario_determinism.py``):

* every random draw comes from a ``random.Random`` sub-seeded from
  ``(seed, subsystem-tag)`` via CRC-32, so subsystems cannot perturb each
  other's streams when a spec toggles one of them;
* simulated time only — the wall clock is never read (the partitioned
  executor gets a :class:`~repro.utils.clock.TickClock`);
* the world is :func:`repro.world.build_world` — the startup the daemon
  runs — and every rule the simulated analyst writes gets a run-local
  ``scn-*`` id from one :class:`~repro.world.RunIds`.

Together: same spec + same seed ⇒ byte-identical report JSON, fired-map
digest, and incident log, no matter how many runs share the process.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.catalog.batches import VendorProfile
from repro.catalog.drift import DriftInjector
from repro.catalog.types import ProductType, parse_template
from repro.chimera.incidents import IncidentManager
from repro.chimera.monitoring import PrecisionMonitor
from repro.core.rule import Rule
from repro.crowd.budget import BudgetExhausted, CrowdBudget
from repro.crowd.tasks import VerificationTask
from repro.crowd.worker import WorkerPool
from repro.evaluation.per_rule import PerRuleCrowdEvaluator
from repro.execution.parallel import FaultPlan, PartitionedExecutor
from repro.maintenance.taxonomy_change import (
    apply_plan,
    plan_for_merge,
    plan_for_split,
)
from repro.observability.quality import RuleHealthTracker
from repro.repository import RuleRepository, bind_chimera
from repro.scenario.report import ExitCheck, ScenarioReport, round6
from repro.scenario.spec import _EXIT_CHECKS, ScenarioSpec, TaxonomyChange
from repro.utils.clock import TickClock
from repro.world import RunIds, World, build_world, sub_seed


class ScenarioError(RuntimeError):
    """A spec references the world incorrectly (unknown type, vendor...)."""


def _digest_update(digest, batch_id: str, fired: Dict[str, Sequence[str]]) -> None:
    payload = json.dumps(
        {item: list(rules) for item, rules in fired.items()},
        sort_keys=True, separators=(",", ":"),
    )
    digest.update(batch_id.encode("utf-8"))
    digest.update(payload.encode("utf-8"))


def _engine_fired(engine, items, skipped=()) -> Dict[str, List[str]]:
    """The engine's non-empty fired rows for ``items`` not in ``skipped``:
    the fired map a batch pass over them returns."""
    rows = {item.item_id: engine.fired_for_item(item.item_id) for item in items}
    return {item_id: row for item_id, row in rows.items() if row and item_id not in skipped}


def _check_fault_model(engine, batch, run) -> None:
    """A partitioned run must equal the engine's rows for the items it did
    not skip: a distributed result is the sequential one."""
    expected = _engine_fired(engine, batch.items, set(run.stats.skipped_item_ids))
    for item in batch.items:
        if run.fired.get(item.item_id, []) != expected.get(item.item_id, []):
            raise ScenarioError(
                f"batch {batch.batch_id}: the partitioned run differs from the "
                f"engine at item {item.item_id!r}"
            )


def _safe_templates(product_type: ProductType) -> Tuple[str, ...]:
    """Drop templates whose ``{mod:slot}`` names no longer exist.

    ``DriftInjector.split_type`` copies the old type's templates but gives
    the new types a single ``style`` slot — a template referencing a lost
    slot would crash generation mid-run.
    """
    kept = []
    slots = set(product_type.modifier_slots)
    for template in product_type.templates:
        placeholders, _tail, _unknown = parse_template(template)
        if all(slot is None or slot in slots for _literal, _kind, slot in placeholders):
            kept.append(template)
    if not kept:
        kept = ["{mod} {head}", "{mod} {head} {detail}"]
    return tuple(kept)


class ScenarioRunner:
    """Runs one :class:`ScenarioSpec` end to end, deterministically."""

    def __init__(self, spec: ScenarioSpec, seed: Optional[int] = None):
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
        self.ids = RunIds("scn")

    # -- helpers -----------------------------------------------------------------

    def open_world(self) -> World:
        """The spec's seeded world (startup rules returned, not yet added)."""
        spec = self.spec
        try:
            return build_world(
                self.seed,
                self.ids,
                training=spec.catalog.training,
                min_examples=spec.catalog.min_examples,
                mean_gap_hours=spec.traffic.mean_gap_hours,
                extra_types=spec.catalog.extra_types,
                obvious_rule_types=spec.catalog.obvious_rule_types,
                vendors=[
                    VendorProfile(
                        name=v.name,
                        min_batch=v.min_batch,
                        max_batch=v.max_batch,
                        departments=v.departments,
                        rewrites=dict(v.rewrites),
                    )
                    for v in spec.traffic.vendors
                ],
                rules_per_day=spec.analyst.rules_per_day,
                verification_accuracy=spec.analyst.verification_accuracy,
                labeling_accuracy=spec.analyst.labeling_accuracy,
            )
        except KeyError as error:
            raise ScenarioError(
                f"catalog.obvious_rule_types: {error.args[0]}"
            ) from error
        except ValueError as error:  # a vendor's departments
            raise ScenarioError(f"traffic.vendors: {error}") from error

    def _build_fault_plan(self) -> Optional[FaultPlan]:
        faults = self.spec.faults
        if faults.empty:
            return None
        plan = FaultPlan()
        for entry in faults.plan:
            if entry.kind == "crash":
                plan.crash(worker=entry.worker, shard=entry.shard,
                           attempt=entry.attempt)
            elif entry.kind == "hang":
                plan.hang(worker=entry.worker, shard=entry.shard,
                          attempt=entry.attempt)
            else:
                plan.corrupt(worker=entry.worker, shard=entry.shard,
                             attempt=entry.attempt, detail=entry.detail)
        if faults.random_rate:
            seeded = FaultPlan.random_plan(
                sub_seed(self.seed, "faults"),
                n_workers=self.spec.executor.n_workers,
                rate=faults.random_rate,
                spare_workers=faults.random_spare_workers,
            )
            for spec_entry in seeded.specs:
                plan.add(spec_entry)
        return plan

    # -- the run -----------------------------------------------------------------

    def run(self) -> ScenarioReport:
        spec = self.spec
        seed = self.seed

        def sub(tag: str) -> int:
            return sub_seed(seed, tag)

        world = self.open_world()
        clock, taxonomy, generator = world.clock, world.taxonomy, world.generator
        analyst, chimera, stream = world.analyst, world.chimera, world.stream
        chimera.add_whitelist_rules(world.startup_rules)
        vendor_by_name = {profile.name: profile for profile in stream.vendors}
        drift = DriftInjector(generator, seed=sub("drift"))
        monitor = PrecisionMonitor(
            floor=spec.incidents.monitor_floor,
            window=spec.incidents.monitor_window,
        )

        tracker: Optional[RuleHealthTracker] = None
        if spec.quality.enabled:
            tracker = RuleHealthTracker(
                window=spec.quality.window,
                baseline_batches=spec.quality.baseline_batches,
                precision_floor=spec.quality.precision_floor,
            )
            chimera.enable_quality_telemetry(rule_health=tracker)

        repository: Optional[RuleRepository] = None
        if spec.repository.enabled:
            # In-memory repository bound to all three rule stages: every
            # mutation of the run lands in its audit log (attributed to the
            # scenario unless a tighter scope — e.g. the incident manager's
            # playbook — is open), and the schedule below can snapshot and
            # roll back by name.
            repository = RuleRepository(clock=clock)
            repository.default_author = "scenario"
            bind_chimera(repository, chimera)
        manager = IncidentManager(chimera, repository=repository)
        if tracker is not None and spec.quality.auto_incidents:
            manager.watch_quality(
                tracker, clock, scale_down=spec.quality.auto_scale_down
            )

        # -- run state -----------------------------------------------------------
        rules_added = 0
        rules_disabled = 0
        degraded_runs = 0
        skipped_items = 0
        crowd_evals = 0
        crowd_answers = 0
        crowd_exhausted = False
        batch_rows: List[Dict[str, Any]] = []
        precision_trajectory: List[float] = []
        drift_rows: List[Dict[str, Any]] = []
        taxonomy_rows: List[Dict[str, Any]] = []
        error_samples = deque(maxlen=spec.incidents.max_error_samples)
        repair_due: List[List[Any]] = []  # [due_step, incident]
        reenable_at: Dict[int, List[str]] = {}

        # -- executor ------------------------------------------------------------
        # Every kind feeds the pipeline's one engine; the kind picks only
        # the digest's shape and whether the fault model runs beside it.
        executor_kind = spec.executor.kind
        engine = chimera.engine
        digest = hashlib.sha256()
        fault_plan = self._build_fault_plan()

        # -- crowd ---------------------------------------------------------------
        evaluator: Optional[PerRuleCrowdEvaluator] = None
        crowd_budget: Optional[CrowdBudget] = None
        if spec.crowd.at_batches:
            crowd_budget = (
                CrowdBudget(spec.crowd.budget) if spec.crowd.budget else None
            )
            task = VerificationTask(
                WorkerPool(seed=sub("workers")),
                budget=crowd_budget,
                votes_per_pair=spec.crowd.votes_per_pair,
                seed=sub("crowd"),
            )
            evaluator = PerRuleCrowdEvaluator(
                task, sample_per_rule=spec.crowd.sample_per_rule
            )

        # -- schedules -----------------------------------------------------------
        def by_step(entries):
            index: Dict[int, list] = {}
            for entry in entries:
                index.setdefault(entry.at_batch, []).append(entry)
            return index

        drift_at = by_step(spec.drift)
        snap_at = by_step(spec.repository.snapshots)
        rollback_at = by_step(spec.repository.rollbacks)
        snapshots_taken = 0
        rollback_rows: List[Dict[str, Any]] = []
        tax_at = by_step(spec.taxonomy_changes)
        churn_at = by_step(spec.rule_churn)
        scale_at = by_step(spec.scale_ups)
        bursts_at = by_step(spec.traffic.bursts)
        hot_at = by_step(spec.traffic.hot_keys)
        crowd_steps = set(spec.crowd.at_batches)
        churn_rng = random.Random(sub("churn"))

        # -- wall-clock budget (ROADMAP item 4) ----------------------------------
        # The only place the runner reads the host's real clock. Specs
        # that declare these checks trade report-byte replayability for a
        # latency SLO; wall-free specs are untouched (the measurements
        # never enter the report body, only the declared exit checks).
        run_started = time.perf_counter()
        batch_latencies: List[float] = []
        wall_budget: Optional[float] = None
        for check_name, check_expected in spec.exit.checks:
            if check_name == "max_wall_seconds":
                wall_budget = float(check_expected)

        # -- the event loop ------------------------------------------------------
        for step in range(spec.traffic.batches):
            if (
                wall_budget is not None
                and time.perf_counter() - run_started >= wall_budget
            ):
                # Budget exhausted: stop scheduling batches. Whatever
                # already ran is reported; the max_wall_seconds check
                # passes iff no single batch blew through the budget.
                break
            opened = len(manager.incidents)

            # repository schedule: snapshots capture the state as this step
            # begins; rollbacks restore a named snapshot via delta ops only
            if repository is not None:
                for event in snap_at.get(step, []):
                    repository.snapshot(
                        event.name, author="scenario",
                        reason=f"scheduled at batch {step}",
                    )
                    snapshots_taken += 1
                for event in rollback_at.get(step, []):
                    result = repository.rollback(
                        event.name, author="scenario",
                        reason=f"scheduled at batch {step}",
                    )
                    rollback_rows.append({
                        "at_batch": step,
                        "name": event.name,
                        "flips": result.flips,
                        "replaced": result.replaced,
                        "added": result.added,
                        "removed": result.removed,
                    })

            # scheduled re-enables from earlier churn
            for rule_id in reenable_at.pop(step, []):
                for ruleset in chimera.rule_sets().values():
                    if rule_id in ruleset:
                        ruleset.enable(rule_id)
                        break

            # due incident repairs (scheduled at scale-down time)
            for entry in list(repair_due):
                due_step, incident = entry
                if due_step <= step and incident.status == "scaled-down":
                    rules_added += manager.repair(
                        incident, analyst, list(error_samples), ids=self.ids
                    )
                    manager.restore(incident)
                    repair_due.remove(entry)

            # hot-key skew
            for hot in hot_at.get(step, []):
                weights = dict(hot.weights)
                for type_name in weights:
                    if type_name not in taxonomy:
                        raise ScenarioError(
                            f"traffic.hot_keys at batch {step}: "
                            f"unknown type {type_name!r}"
                        )
                event = drift.shift_distribution(weights)
                drift_rows.append({
                    "at_batch": step, "kind": "hot-keys",
                    "type": event.type_name, "detail": event.detail,
                })

            # drift schedule
            for op in drift_at.get(step, []):
                try:
                    if op.op == "extend_slot":
                        event = drift.extend_slot(op.type, op.slot, list(op.phrases))
                    elif op.op == "replace_slot":
                        event = drift.replace_slot(op.type, op.slot, list(op.phrases))
                    elif op.op == "shift_heads":
                        event = drift.shift_head_vocabulary(op.type, list(op.heads))
                    elif op.op == "shift_distribution":
                        event = drift.shift_distribution(dict(op.weights))
                    else:  # surge_department
                        event = drift.surge_department(op.department, op.factor)
                except KeyError as error:
                    raise ScenarioError(
                        f"drift at batch {step}: {error}"
                    ) from error
                drift_rows.append({
                    "at_batch": step, "kind": event.kind,
                    "type": event.type_name, "detail": event.detail,
                })

            # taxonomy changes
            for change in tax_at.get(step, []):
                row = self._apply_taxonomy_change(
                    change, step, drift, generator, taxonomy, chimera, analyst
                )
                rules_disabled += row["disabled"]
                rules_added += row.pop("new_rules")
                taxonomy_rows.append(row)

            # mass rule churn
            for churn in churn_at.get(step, []):
                active = sorted(
                    rule.rule_id
                    for rule in chimera.rule_stage.rules.active_rules()
                )
                count = churn.disable_count or int(
                    round(churn.disable_fraction * len(active))
                )
                count = min(count, len(active))
                chosen = sorted(churn_rng.sample(active, count)) if count else []
                for rule_id in chosen:
                    chimera.rule_stage.rules.disable(rule_id)
                rules_disabled += len(chosen)
                if churn.reenable_after and chosen:
                    reenable_at.setdefault(
                        step + churn.reenable_after, []
                    ).extend(chosen)

            # scale-ups: onboard new types with their obvious rules
            for scale in scale_at.get(step, []):
                new_rules: List[Rule] = []
                for type_name in scale.types:
                    if type_name not in taxonomy:
                        raise ScenarioError(
                            f"scale_ups at batch {step}: "
                            f"unknown type {type_name!r}"
                        )
                    new_rules.extend(analyst.obvious_rules(type_name))
                chimera.add_whitelist_rules(self.ids.assign(new_rules, "wl"))
                rules_added += len(new_rules)

            # produce this step's batches: one scheduled + any bursts
            produced = [stream.next_batch()]
            for burst in bursts_at.get(step, []):
                profile = vendor_by_name[burst.vendor]
                for _ in range(burst.batches):
                    produced.append(stream.next_batch(vendor=profile))

            # admit + classify + monitor + digest
            for position, batch in enumerate(produced):
                batch_started = time.perf_counter()
                engine.add_items(batch.items)
                result = chimera.classify_batch(batch.items, batch_id=batch.batch_id)
                precision = result.true_precision()
                coverage = result.coverage
                errors: Dict[str, int] = {}
                for item, label in result.classified_pairs:
                    if item.true_type != label:
                        errors[label] = errors.get(label, 0) + 1
                        error_samples.append((item, label))
                monitor.record(
                    batch.batch_id,
                    clock.now,
                    precision,
                    coverage,
                    len(batch.items),
                    errors_by_type=errors,
                )
                classified = len(result.classified_pairs)
                batch_rows.append({
                    "step": step,
                    "batch_id": batch.batch_id,
                    "vendor": batch.vendor,
                    "burst": position > 0,
                    "arrived_day": round6(batch.arrived_at),
                    "items": len(batch.items),
                    "classified": classified,
                    "declined": len(result.declined),
                    "rejected": len(result.rejected),
                    "coverage": round6(coverage),
                    "precision": round6(precision),
                })
                precision_trajectory.append(round6(precision))

                if executor_kind == "indexed":
                    _digest_update(
                        digest, batch.batch_id, _engine_fired(engine, batch.items)
                    )
                elif executor_kind == "partitioned":
                    run = PartitionedExecutor(
                        chimera.rule_stage.rules.active_rules(),
                        n_workers=spec.executor.n_workers,
                        fault_plan=fault_plan,
                        clock=TickClock(),
                    ).run(batch.items)
                    _check_fault_model(engine, batch, run)
                    if run.degraded:
                        degraded_runs += 1
                    skipped_items += run.stats.skipped_items
                    _digest_update(digest, batch.batch_id, run.fired)
                batch_latencies.append(
                    (time.perf_counter() - batch_started) * 1000.0
                )

            # §2.2 detect → scale down (one open quality incident at a time)
            if spec.incidents.auto_scale_down and monitor.degraded():
                open_quality = [
                    incident
                    for incident in manager.incidents
                    if incident.kind == "quality" and incident.status != "closed"
                ]
                if not open_quality:
                    suspects = [
                        name
                        for name, count in monitor.suspect_types(top=2)
                        if count > 0
                    ]
                    if suspects:
                        incident = manager.open_incident(suspects, at=clock.now)
                        manager.scale_down(incident)

            # crowd evaluation over this step's traffic
            if step in crowd_steps and evaluator is not None:
                rules = chimera.rule_stage.rules.active_rules()
                step_items = [
                    item for batch in produced for item in batch.items
                ]
                try:
                    crowd_report = evaluator.evaluate(rules, step_items)
                except BudgetExhausted:
                    crowd_exhausted = True
                else:
                    crowd_evals += 1
                    crowd_answers += crowd_report.crowd_answers
                    if tracker is not None:
                        tracker.ingest_precision(
                            crowd_report, batch_id=produced[-1].batch_id
                        )

            # book what this step scaled down — whether the monitor or an
            # alert opened the incident — and schedule its repair
            for incident in manager.incidents[opened:]:
                if incident.status == "scaled-down":
                    rules_disabled += sum(
                        len(ids) for ids in incident.disabled_rule_ids.values()
                    )
                    if spec.incidents.repair_after:
                        repair_due.append(
                            [step + spec.incidents.repair_after, incident]
                        )

        # -- wrap up -------------------------------------------------------------
        if executor_kind == "incremental":
            _digest_update(digest, "final", engine.fired_map())

        total_items = sum(row["items"] for row in batch_rows)
        total_classified = sum(row["classified"] for row in batch_rows)
        total_rejected = sum(row["rejected"] for row in batch_rows)
        sim_hours = clock.now * 24.0
        report = ScenarioReport(
            scenario=spec.name,
            seed=seed,
            fingerprint=spec.fingerprint(),
            executor=executor_kind,
        )
        report.batches = batch_rows
        report.precision_trajectory = precision_trajectory
        report.drift_events = drift_rows
        report.taxonomy_changes = taxonomy_rows
        report.totals = {
            "batches": len(batch_rows),
            "items": total_items,
            "classified": total_classified,
            "declined": sum(row["declined"] for row in batch_rows),
            "rejected": total_rejected,
            "sim_days": round6(clock.now),
            "sim_hours": round6(sim_hours),
            "items_per_sim_hour": round6(
                total_items / sim_hours if sim_hours else 0.0
            ),
            "final_precision": precision_trajectory[-1] if precision_trajectory else 1.0,
            "mean_precision": round6(
                sum(precision_trajectory) / len(precision_trajectory)
            ) if precision_trajectory else 1.0,
            "final_coverage": batch_rows[-1]["coverage"] if batch_rows else 0.0,
        }
        report.incidents = [
            {
                "ordinal": ordinal,
                "kind": incident.kind,
                "status": incident.status,
                "opened_at": round6(incident.opened_at),
                "affected_types": sorted(incident.affected_types),
                "rule_ids": sorted(incident.rule_ids),
            }
            for ordinal, incident in enumerate(manager.incidents, start=1)
        ]
        report.alerts = [
            {
                "kind": alert.kind,
                "batch_id": alert.batch_id,
                "n_rules": len(alert.rule_ids),
            }
            for alert in (tracker.alerts if tracker is not None else [])
        ]
        if evaluator is not None:
            report.crowd = {
                "evaluations": crowd_evals,
                "answers": crowd_answers,
                "spent": round6(crowd_budget.spent) if crowd_budget else float(crowd_answers),
                "budget": round6(spec.crowd.budget),
                "exhausted": crowd_exhausted,
            }
        report.faults = {
            "triggered": len(fault_plan.triggered) if fault_plan is not None else 0,
            "degraded_runs": degraded_runs,
            "skipped_items": skipped_items,
        }
        rule_counts = chimera.rule_count()
        report.rules = {
            "per_stage": rule_counts,
            "final_total": sum(rule_counts.values()),
            "added": rules_added,
            "disabled": rules_disabled,
        }
        if repository is not None:
            report.repository = {
                "changes": len(repository.log),
                "namespaces": repository.namespaces(),
                "snapshots": snapshots_taken,
                "rollbacks": len(rollback_rows),
                "rollback_events": rollback_rows,
            }
            repository.close()
        report.fired_digest = digest.hexdigest()[:16]
        report.exit_checks = self._evaluate_exit(
            report, manager, tracker, crowd_exhausted,
            wall_seconds=time.perf_counter() - run_started,
            batch_latencies=batch_latencies,
        )
        report.passed = all(check.passed for check in report.exit_checks)
        return report

    # -- taxonomy changes --------------------------------------------------------

    def _apply_taxonomy_change(
        self, change: TaxonomyChange, step: int, drift, generator,
        taxonomy, chimera, analyst,
    ) -> Dict[str, Any]:
        rulesets = (chimera.rule_stage.rules, chimera.attr_stage.rules)
        all_rules = [rule for ruleset in rulesets for rule in ruleset]
        new_rules = 0
        if change.op == "split":
            if change.type not in taxonomy:
                raise ScenarioError(
                    f"taxonomy_changes at batch {step}: "
                    f"unknown type {change.type!r}"
                )
            _event, replacements = drift.split_type(
                change.type,
                {name: list(phrases) for name, phrases in change.into},
            )
            for product_type in replacements:
                product_type.templates = _safe_templates(product_type)
            samples = []
            for product_type in replacements:
                for _ in range(change.sample_items):
                    samples.append(
                        generator.generate_item(type_name=product_type.name)
                    )
            plan = plan_for_split(
                all_rules,
                change.type,
                [product_type.name for product_type in replacements],
                samples,
            )
            disabled = apply_plan(rulesets, plan)
            detail = (
                f"{change.type} -> "
                f"{', '.join(t.name for t in replacements)}"
            )
            if change.write_rules:
                fresh: List[Rule] = []
                for product_type in replacements:
                    fresh.extend(analyst.obvious_rules(product_type.name))
                chimera.add_whitelist_rules(self.ids.assign(fresh, "wl"))
                new_rules = len(fresh)
        else:  # merge
            for type_name in change.types:
                if type_name not in taxonomy:
                    raise ScenarioError(
                        f"taxonomy_changes at batch {step}: "
                        f"unknown type {type_name!r}"
                    )
            parts = [taxonomy.get(name) for name in change.types]
            merged_slots: Dict[str, List[str]] = {}
            for part in parts:
                for slot in sorted(part.modifier_slots):
                    bucket = merged_slots.setdefault(slot, [])
                    for phrase in part.modifier_slots[slot]:
                        if phrase not in bucket:
                            bucket.append(phrase)
            merged = ProductType(
                name=change.merged,
                department=parts[0].department,
                heads=tuple(dict.fromkeys(
                    head for part in parts for head in part.heads
                )),
                modifier_slots={
                    slot: tuple(phrases)
                    for slot, phrases in merged_slots.items()
                },
                brands=tuple(dict.fromkeys(
                    brand for part in parts for brand in part.brands
                )),
                attribute_kinds=dict(parts[0].attribute_kinds),
                templates=parts[0].templates,
                weight=sum(part.weight for part in parts),
            )
            merged.templates = _safe_templates(merged)
            taxonomy.merge_types(list(change.types), merged)
            plan = plan_for_merge(all_rules, change.types, change.merged)
            disabled = apply_plan(rulesets, plan)
            detail = f"{' + '.join(change.types)} -> {change.merged}"
            if change.write_rules:
                fresh = analyst.obvious_rules(change.merged)
                chimera.add_whitelist_rules(self.ids.assign(fresh, "wl"))
                new_rules = len(fresh)
        return {
            "at_batch": step,
            "op": change.op,
            "detail": detail,
            "invalidated": len(plan.invalidated),
            "retargeted": len(plan.retargets),
            "disabled": len(disabled),
            "new_rules": new_rules,
        }

    # -- exit conditions ---------------------------------------------------------

    def _evaluate_exit(
        self,
        report: ScenarioReport,
        manager,
        tracker,
        crowd_exhausted: bool,
        wall_seconds: float = 0.0,
        batch_latencies: Sequence[float] = (),
    ) -> List[ExitCheck]:
        totals = report.totals
        alerts = report.alerts
        actuals: Dict[str, Any] = {
            "min_batches": totals["batches"],
            "min_items": totals["items"],
            "final_precision_at_least": totals["final_precision"],
            "mean_precision_at_least": totals["mean_precision"],
            "final_coverage_at_least": totals["final_coverage"],
            "max_open_incidents": sum(
                1 for incident in manager.incidents
                if incident.status != "closed"
            ),
            "min_incidents": len(manager.incidents),
            "min_closed_incidents": sum(
                1 for incident in manager.incidents
                if incident.status == "closed"
            ),
            "min_alerts": len(alerts),
            "min_drift_alerts": sum(
                1 for alert in alerts if alert["kind"] == "fire-rate-drift"
            ),
            "max_skipped_items": report.faults["skipped_items"],
            "min_faults_triggered": report.faults["triggered"],
            "min_degraded_runs": report.faults["degraded_runs"],
            "expect_budget_exhausted": crowd_exhausted,
            "min_rules_disabled": report.rules["disabled"],
            "min_taxonomy_changes": len(report.taxonomy_changes),
            "min_repository_changes": report.repository.get("changes", 0),
            "min_snapshots": report.repository.get("snapshots", 0),
            "min_rollbacks": report.repository.get("rollbacks", 0),
            "max_batch_latency_ms": round(
                max(batch_latencies) if batch_latencies else 0.0, 3
            ),
            "max_wall_seconds": round(wall_seconds, 3),
        }
        checks: List[ExitCheck] = []
        for name, expected in self.spec.exit.checks:
            actual = actuals[name]
            direction = _EXIT_CHECKS[name]
            if direction == "ge":
                passed = actual >= expected
            elif direction == "le":
                passed = actual <= expected
            else:  # eq
                passed = actual == expected
            checks.append(ExitCheck(
                name=name, expected=expected, actual=actual, passed=passed,
            ))
        return checks


def run_scenario(spec: ScenarioSpec, seed: Optional[int] = None) -> ScenarioReport:
    """Convenience: run ``spec`` (optionally overriding its seed)."""
    return ScenarioRunner(spec, seed=seed).run()
