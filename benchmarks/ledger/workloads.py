"""The four served-path workloads and the one loop that runs them.

Every workload drives the product path —
``StreamService(root, ServiceConfig(seed=..., training=...), fsync=False)
.start()`` then ``process_batch()`` — closed loop, one client, single
thread: the daemon pulls its own batches from its in-process
``BatchStream`` and has no ingress queue, so throughput plus per-batch
latency is the honest shape.

The work is fixed, not the time: batch and edit counts are constants, so
the same seed replays the same digest chain on any host and on any later
commit. All times are plain wall-clock readings of the calls named.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from spans import SpanRecorder, per_span_cost
from stats import percentile, supported_percentile

#: ``--seconds`` the sizes below are tuned for; a larger value scales them up.
RUN_SECONDS = 20

#: The issue sized the workloads for 30-45 s of timed work each (100 / 100
#: / 180 timed batches; 2 400 edits, 120 batches and 40 preload batches
#: for ``churn``). The driver's cap — 92 runs in 3 420 s, set-up, resumes
#: and checks included — does not admit that, so every batch and edit
#: count is the issue's times this one factor: the largest that keeps the
#: issue's floor of 60 timed batches. ``churn`` also halves the issue's
#: 20 edits per batch: the issue budgeted 5.5 ms an edit, and edit-to-visible
#: measures 16 ms (mean) at this state size.
SIZE_FACTOR = 0.6
MIN_TIMED_BATCHES = 60
#: The one tail percentile every workload reports: the highest with ten
#: samples beyond it at the smallest timed sample.
TAIL = supported_percentile(MIN_TIMED_BATCHES)

WARMUP_BATCHES = 3
#: Resumes after the timed run; ``resume_s`` is their median.
RESUMES = 5
ORACLE_SAMPLE = 500

EDIT_OPS = ("add", "replace", "disable", "enable", "remove")

#: Rule patterns whose matches the rule index is known to lose at this
#: commit: ``RegexRule.anchor_literals()`` anchors ``tvs?`` on ``tv``
#: alone and ``singular_form("tvs")`` is not ``tv``, so the indexed
#: engines never offer that rule for a title that says "tvs". The oracle
#: excuses exactly this — the reference fires such a rule, the engine does
#: not — and fails on every other difference. Delete the entry with the
#: defect.
KNOWN_INDEX_MISSES = frozenset({"tvs?"})


@dataclass(frozen=True)
class Workload:
    """One workload's inputs (see ``README.md`` for why each exists)."""

    name: str
    why: str
    training: int
    batches: int
    corpus: int = 0
    min_support: float = 0.0
    deploy_share: float = 1.0
    preload: int = 0
    #: ``churn`` only: rule edits before each timed batch, and how many
    #: edits lie between one snapshot-and-rollback and the next.
    edits_per_batch: int = 0
    edits_per_rollback: int = 0

    @property
    def edits(self) -> int:
        return self.batches * self.edits_per_batch


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_learned",
            why="default config (training=120, ~135 startup rules): what `repro "
                "serve` runs today; the learning stage does most of the work",
            training=120, batches=60,
        ),
        Workload(
            name="serve_rules",
            why="no learner, ~1.4k rules induced from 50k titles: the paper's "
                "regime; RuleSet.apply and the incremental add_items dominate",
            training=0, batches=60, corpus=50_000, min_support=0.002,
        ),
        Workload(
            name="serve_soak",
            why="no learner, startup rules only, longest run: cheap classification "
                "so checkpoint, digest and fired-map growth dominate by the end",
            training=0, batches=108,
        ),
        Workload(
            name="churn",
            why="writes beside reads: 10 add/replace/disable/enable/remove rule edits, "
                "each followed by a fired_map() read, before every batch; rollbacks",
            training=0, batches=72, corpus=20_000, min_support=0.01,
            deploy_share=0.5, preload=24, edits_per_batch=10, edits_per_rollback=180,
        ),
    )
}

SMOKE_SIZES = {
    "serve_learned": {"batches": 8},
    "serve_rules": {"batches": 8, "corpus": 4000, "min_support": 0.01},
    "serve_soak": {"batches": 8},
    "churn": {"batches": 4, "corpus": 4000, "preload": 4,
              "edits_per_batch": 10, "edits_per_rollback": 20},
}


def sized_workload(name: str, seconds: float, smoke: bool) -> Workload:
    """The workload at ``--seconds``: never smaller than defined, because
    two of the four already sit on the floor of 60 timed batches."""
    workload = WORKLOADS[name]
    if smoke:
        return replace(workload, **SMOKE_SIZES[name])
    factor = max(1.0, seconds / RUN_SECONDS)
    return replace(workload, batches=int(round(workload.batches * factor)))


# -- what the traced run wraps ------------------------------------------------------

#: (span name, dotted path from the started service).
SERVICE_WRAPS: Tuple[Tuple[str, str], ...] = (
    ("service.process_batch", "process_batch"),
    ("service.journal_append", "store.append_batch"),
    ("service.checkpoint_save", "store.save"),
    ("service.series_append", "series.append"),
    ("catalog.next_batch", "stream.next_batch"),
    ("chimera.classify", "chimera.classify_batch"),
    ("chimera.classify", "chimera.classify_item"),
    ("chimera.gate", "chimera.gatekeeper.process"),
    ("chimera.vote", "chimera.voting.combine"),
    ("chimera.rule_stage", "chimera.rule_stage.predict"),
    ("chimera.rule_stage", "chimera.rule_stage.constraints"),
    ("chimera.attr_stage", "chimera.attr_stage.predict"),
    ("chimera.attr_stage", "chimera.attr_stage.constraints"),
    ("chimera.learning_stage", "chimera.learning_stage.predict"),
    ("chimera.learning_stage", "chimera.learning_stage.constraints"),
    ("chimera.filter", "chimera.filter.select"),
    ("learning.nb", "chimera.learning_stage.ensemble.members.0.predict_batch"),
    ("learning.knn", "chimera.learning_stage.ensemble.members.1.predict_batch"),
    ("learning.svm", "chimera.learning_stage.ensemble.members.2.predict_batch"),
    ("core.ruleset_apply", "chimera.rule_stage.rules.apply"),
    # Not in the issue's list: without the mutators an edit's RuleSet and
    # listener-dispatch time has no span and lands in ledger.unattributed_s.
    ("core.ruleset_edit", "chimera.rule_stage.rules.add"),
    ("core.ruleset_edit", "chimera.rule_stage.rules.replace"),
    ("core.ruleset_edit", "chimera.rule_stage.rules.remove"),
    ("core.ruleset_edit", "chimera.rule_stage.rules.enable"),
    ("core.ruleset_edit", "chimera.rule_stage.rules.disable"),
    ("execution.add_items", "incremental.add_items"),
    ("execution.fired_map", "incremental.fired_map"),
    ("execution.export_state", "incremental.export_state"),
    ("execution.rule_delta", "incremental.add_rules"),
    ("execution.rule_delta", "incremental.update_rule"),
    ("execution.rule_delta", "incremental.remove_rules"),
    ("observability.provenance", "provenance.record"),
    ("observability.health_fold", "tracker.observe_record"),
    ("observability.health_fold", "tracker.finish_batch"),
    ("observability.health_fold", "tracker.state_dict"),
    ("observability.metrics_sample", "obs.metrics.snapshot"),
    ("observability.metrics_sample", "obs.metrics.delta"),
    ("observability.metrics_sample", "obs.metrics.dump"),
    ("repository.append", "repository.log.append"),
    ("repository.snapshot", "repository.snapshot"),
    ("repository.rollback", "repository.rollback"),
)

#: Spans whose calls return an ``ExecutionStats``: its counts are summed.
COUNTED_SPANS = ("execution.add_items", "execution.rule_delta")


def _exec_counts(span: str):
    def count(stats: Any) -> Dict[str, float]:
        return {f"{span}_evals": stats.rule_evaluations, f"{span}_matches": stats.matches}
    return count


#: Called inside ``start()`` of a *resumed* service, so wrapped on the class
#: of the first service's live objects.
RESUME_WRAPS = (
    ("execution.restore", "incremental.restore_items"),
    ("execution.restore", "incremental.restore_state"),
)

#: Called inside the first ``start()``, before any instance exists.
IMPORT_WRAPS = (("learning.train", "repro.chimera.pipeline:Chimera.retrain"),)

#: per-layer metric -> (span name, section); value = summed self seconds.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "catalog.next_batch_s": ("catalog.next_batch", "timed"),
    "chimera.classify_self_s": ("chimera.classify", "timed"),
    "chimera.gate_s": ("chimera.gate", "timed"),
    "chimera.rule_stage_s": ("chimera.rule_stage", "timed"),
    "chimera.attr_stage_s": ("chimera.attr_stage", "timed"),
    "chimera.learning_stage_s": ("chimera.learning_stage", "timed"),
    "chimera.vote_s": ("chimera.vote", "timed"),
    "chimera.filter_s": ("chimera.filter", "timed"),
    "learning.nb_s": ("learning.nb", "timed"),
    "learning.knn_s": ("learning.knn", "timed"),
    "learning.svm_s": ("learning.svm", "timed"),
    "learning.train_s": ("learning.train", "setup"),
    "core.ruleset_apply_s": ("core.ruleset_apply", "timed"),
    "core.ruleset_edit_s": ("core.ruleset_edit", "timed"),
    "execution.add_items_s": ("execution.add_items", "timed"),
    "execution.fired_map_s": ("execution.fired_map", "timed"),
    "execution.export_state_s": ("execution.export_state", "timed"),
    "execution.rule_delta_s": ("execution.rule_delta", "timed"),
    "execution.restore_s": ("execution.restore", "resume"),
    "observability.provenance_s": ("observability.provenance", "timed"),
    "observability.health_fold_s": ("observability.health_fold", "timed"),
    "observability.metrics_sample_s": ("observability.metrics_sample", "timed"),
    "repository.append_s": ("repository.append", "timed"),
    "repository.snapshot_s": ("repository.snapshot", "timed"),
    "repository.rollback_s": ("repository.rollback", "timed"),
    "service.journal_append_s": ("service.journal_append", "timed"),
    "service.checkpoint_save_s": ("service.checkpoint_save", "timed"),
    "service.series_append_s": ("service.series_append", "timed"),
    "service.process_batch_self_s": ("service.process_batch", "timed"),
    "service.start_s": ("service.start", "setup"),
    "service.resume_self_s": ("service.resume", "resume"),
    "rulegen.induce_s": ("rulegen.induce", "setup"),
}

#: The layers whose end-of-run share the soak acceptance check reads.
LAYERS = (
    "catalog", "chimera", "learning", "core", "execution",
    "observability", "repository", "service",
)

#: The bounded metrics (bounds in ``BENCHMARK.json``): measured on every
#: workload with tracing off, and steady across seeds on this host.
END_TO_END = ("setup_s", "checkpoint_b_per_item", "peak_rss_mb")

#: The issue's other end-to-end metrics: ``name -> (unit, better, the
#: issue's bound)``. They are measured and printed the same way, and
#: ``compare.py`` judges them at these bounds between runs of one seed,
#: but the driver's contract cannot hold them: it wants every end-to-end
#: metric on every workload (the serve workloads edit no rule) and steady
#: within its bound over ten *different* seeds, and wall times on this
#: host are not — the README gives each one's measured spread. No bound is
#: widened; each is reported per layer, as ``e2e.<name>``.
DEMOTED: Dict[str, Tuple[str, str, float]] = {
    "items_per_s": ("items/s", "higher", 0.10),
    "batch_ms_p50": ("ms", "lower", 0.10),
    f"batch_ms_p{TAIL}": ("ms", "lower", 0.15),
    "edits_per_s": ("edits/s", "higher", 0.10),
    "edit_ms_p50": ("ms", "lower", 0.10),
    f"edit_ms_p{TAIL}": ("ms", "lower", 0.15),
    "resume_s": ("s", "lower", 0.15),
    "checkpoint_kb": ("KiB", "lower", 0.01),
}

PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "s" for name in SPAN_METRICS},
    "catalog.items": "count",
    "chimera.items_classified": "count",
    "chimera.items_declined": "count",
    "learning.predict_calls": "count",
    "core.ruleset_apply_calls": "count",
    "core.rules_active": "count",
    "execution.rule_evals": "count",
    "execution.match_ratio": "ratio",
    "execution.fired_pairs": "count",
    "execution.rule_delta_evals": "count",
    "observability.spool_bytes": "B",
    "repository.changes": "count",
    "service.journal_bytes": "B",
    "service.checkpoint_bytes_per_batch": "B",
    "service.per_item_growth": "ratio",
    "rulegen.candidates_mined": "count",
    "rulegen.rules_selected": "count",
    **{f"e2e.{name}": unit for name, (unit, _, _) in DEMOTED.items()},
    "ledger.unattributed_s": "s",
    "ledger.trace_overhead_share": "ratio",
}


# -- the run ---------------------------------------------------------------------------

def host_probe_ms() -> float:
    """Median wall time of a fixed stdlib computation: how fast the host is
    now. This host shifts between states 1.2-1.5x apart that last for
    minutes under a flat load average, so the reading is recorded before
    and after the timed section, beside the results; it is never applied
    to them."""
    payload = {f"item-{i:06d}": [i % 7, i % 11] for i in range(20_000)}
    readings = []
    for _ in range(5):
        started = time.perf_counter()
        hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        readings.append((time.perf_counter() - started) * 1e3)
    return statistics.median(readings)


class RuleEditor:
    """Cycles add / replace / disable / enable / remove on a live rule set.

    Cycle ``c`` adds a clone of donor ``c+1`` under a fresh ``bench-`` id,
    gives victim ``c`` donor ``c``'s condition, flips the victim off and
    on, and removes the added rule. The replaces accumulate, for the
    rollbacks to undo.
    """

    def __init__(self, rules: Any, donors: List[Any], victims: List[str], next_id: int):
        self.rules = rules
        self.donors = donors
        self.victims = victims
        self.next_id = next_id
        self.steps = 0
        self._added = ""

    @staticmethod
    def clone(donor: Any, rule_id: str, enabled: bool = True) -> Any:
        rule = copy.copy(donor)
        rule.rule_id = rule_id
        rule.enabled = enabled
        return rule

    def step(self) -> None:
        cycle, op = divmod(self.steps, len(EDIT_OPS))
        self.steps += 1
        rules = self.rules
        victim = self.victims[cycle % len(self.victims)]
        if op == 0:
            self._added = f"bench-{self.next_id:05d}"
            self.next_id += 1
            rules.add(self.clone(self.donors[(cycle + 1) % len(self.donors)], self._added))
        elif op == 1:
            donor = self.donors[cycle % len(self.donors)]
            rules.replace(self.clone(donor, victim, rules.is_enabled(victim)))
        elif op == 2:
            rules.disable(victim)
        elif op == 3:
            rules.enable(victim)
        else:
            rules.remove(self._added)


class WorkloadRun:
    """One workload, one process: set-up, warm-up, timed section, checks, resumes."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        work_dir: str,
        trace: bool = False,
        started: Optional[float] = None,
    ):
        self.workload = workload
        self.seed = seed
        self.root = os.path.join(work_dir, f"{workload.name}-root")
        self.recorder: Optional[SpanRecorder] = SpanRecorder() if trace else None
        self.started = started if started is not None else time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.items_seen: Dict[str, Any] = {}
        self.batch_samples: List[Dict[str, float]] = []
        self.edit_samples: List[Dict[str, Any]] = []
        self.context: Dict[str, float] = {
            "rulegen.candidates_mined": 0.0, "rulegen.rules_selected": 0.0,
        }
        #: span name -> some wrap took; the benchmark's own spans always do.
        self.resolved: Dict[str, bool] = dict.fromkeys(
            ("rulegen.induce", "service.start", "service.resume"), True
        )
        self._ordinal = 0

    # -- helpers ------------------------------------------------------------------

    def _fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)
        print(f"FAILED {self.workload.name}: {what}", file=sys.stderr)

    def _section(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.section = name

    def _span(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def _op_span(self, name: str):
        """Root span of one timed operation; bumps the shared ordinal."""
        self._ordinal += 1
        if self.recorder is not None:
            self.recorder.ordinal = self._ordinal
        return self._span(name)

    def _wrap(self, base: Any, path: str, name: str, count: Any = None, **kw: Any) -> None:
        ok = self.recorder.wrap_path(base, path, name, count, **kw)
        self.resolved[name] = self.resolved.get(name, False) or ok

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        from repro.service import ServiceConfig, StreamService

        workload = self.workload
        self._section("setup")
        if self.recorder is not None:
            for name, path in IMPORT_WRAPS:
                self._wrap(None, path, name)
        induced = self._induce() if workload.corpus else []
        config = ServiceConfig(seed=self.seed, training=workload.training)
        with self._span("service.start"):
            self.service = StreamService(self.root, config, fsync=False).start()
        service = self.service
        if self.recorder is not None:
            for name, path in SERVICE_WRAPS:
                count = _exec_counts(name) if name in COUNTED_SPANS else None
                self._wrap(service, path, name, count)
            for name, path in RESUME_WRAPS:
                self._wrap(service, path, name, on_class=True)

        deployed = induced[: int(len(induced) * workload.deploy_share)]
        service.chimera.add_whitelist_rules(deployed)
        if workload.edits_per_batch:
            self.editor = RuleEditor(
                service.chimera.rule_stage.rules,
                donors=induced[len(deployed):],
                victims=[rule.rule_id for rule in deployed],
                next_id=len(induced) + 1,
            )
        for _ in range(workload.preload + WARMUP_BATCHES):
            self._batch(timed=False)
        self.setup_s = time.perf_counter() - self.started

    def _induce(self) -> List[Any]:
        from repro.catalog import CatalogGenerator, build_seed_taxonomy
        from repro.rulegen.parallel import ShardedRuleGenerator

        workload = self.workload
        generator = CatalogGenerator(build_seed_taxonomy(), seed=self.seed + 104729)
        labeled = generator.generate_labeled(workload.corpus)
        miner = ShardedRuleGenerator(
            min_support=workload.min_support, n_workers=1, seed=self.seed
        )
        with self._span("rulegen.induce"):
            result = miner.generate(labeled)
        self.context["rulegen.candidates_mined"] = result.n_mined
        self.context["rulegen.rules_selected"] = result.n_selected
        induced = list(result.rules)
        for number, rule in enumerate(induced, start=1):
            rule.rule_id = f"bench-{number:05d}"
        return induced

    # -- timed operations ---------------------------------------------------------

    def _batch(self, timed: bool = True) -> None:
        service = self.service
        self.attempted += 1
        with self._op_span("ledger.batch"):
            wall = time.perf_counter()
            try:
                batch, result = service.process_batch()
            except Exception:
                self._fail("process_batch raised:\n" + traceback.format_exc())
                return
            wall = time.perf_counter() - wall
        items = len(batch.items)
        self.attempted += items
        lost = items - len(result.results) - len(result.rejected)
        if lost:
            self._fail(f"{batch.batch_id}: {lost} items without a result", lost)
        for item in batch.items:
            self.items_seen[item.item_id] = item
        if timed:
            sample = {
                "ordinal": self._ordinal, "items": items, "wall_ms": wall * 1e3,
                "classified": len(result.classified_pairs),
                "declined": len(result.declined),
            }
            if self.recorder is not None:
                sample["checkpoint_bytes"] = os.path.getsize(
                    os.path.join(self.root, "checkpoint.json")
                )
            self.batch_samples.append(sample)

    def _edit(self) -> None:
        """One rule mutation, timed until ``fired_map()`` returns: edit-to-visible."""
        self.attempted += 1
        op = EDIT_OPS[self.editor.steps % len(EDIT_OPS)]
        with self._op_span("ledger.edit"):
            wall = time.perf_counter()
            try:
                self.editor.step()
                self.service.incremental.fired_map()
            except Exception:
                self._fail(f"edit {op} raised:\n" + traceback.format_exc())
                return
            wall = time.perf_counter() - wall
        self.edit_samples.append({"ordinal": self._ordinal, "op": op, "wall_ms": wall * 1e3})

    def _rollback(self, number: int) -> None:
        """Roll back to the previous boundary's snapshot, then take a new one."""
        repository = self.service.repository
        self.attempted += 1
        with self._op_span("ledger.rollback"):
            try:
                if number:
                    repository.rollback(f"bench-{number - 1:03d}")
                repository.snapshot(f"bench-{number:03d}")
            except Exception:
                self._fail(f"rollback {number} raised:\n" + traceback.format_exc())

    def timed(self) -> None:
        """``batches`` x (``edits_per_batch`` edits, then one batch). The run
        ends on a batch, so its checkpoint covers every edit."""
        workload = self.workload
        self._section("timed")
        before = self._sizes()
        if workload.edits_per_rollback:
            self._rollback(0)
        edits = 0
        for _ in range(workload.batches):
            for _ in range(workload.edits_per_batch):
                self._edit()
                edits += 1
                if workload.edits_per_rollback and edits % workload.edits_per_rollback == 0:
                    self._rollback(edits // workload.edits_per_rollback)
            self._batch()
        self._section("close")
        self.context.update(
            {key: value - before[key] for key, value in self._sizes().items()}
        )

    def _sizes(self) -> Dict[str, int]:
        """What the timed section grows: two spool files and the change log."""
        out = {"repository.changes": len(self.service.repository.log)}
        for key, name in (
            ("service.journal_bytes", "batches.jsonl"),
            ("observability.spool_bytes", "provenance.jsonl"),
        ):
            path = os.path.join(self.root, name)
            out[key] = os.path.getsize(path) if os.path.exists(path) else 0
        return out

    # -- untimed checks -----------------------------------------------------------

    def oracle(self) -> None:
        """The delta-maintained fired map against a from-scratch
        ``NaiveExecutor`` run of the final rule set, on a seeded sample of
        the items seen. Every differing item is a failed operation, except
        where the only difference is a :data:`KNOWN_INDEX_MISSES` rule the
        reference fires and the engine lacks; those are counted apart."""
        from repro.execution import NaiveExecutor

        service = self.service
        fired = service.incremental.fired_map()
        rules = list(service.chimera.rule_stage.rules)
        ids = sorted(self.items_seen)
        sample = random.Random(self.seed).sample(ids, min(ORACLE_SAMPLE, len(ids)))
        reference, _ = NaiveExecutor(rules).run([self.items_seen[i] for i in sample])
        excused = {
            rule.rule_id for rule in rules
            if getattr(rule, "pattern", None) in KNOWN_INDEX_MISSES
        }
        self.attempted += len(sample)
        self.known_index_misses = 0
        wrong = []
        for item_id in sample:
            got, want = fired.get(item_id, []), reference.get(item_id, [])
            if got == want:
                continue
            if got == [rule_id for rule_id in want if rule_id not in excused]:
                self.known_index_misses += 1
            else:
                wrong.append(item_id)
        if wrong:
            self._fail(
                f"fired map differs from NaiveExecutor on {len(wrong)} items, "
                f"e.g. {wrong[:3]}", len(wrong),
            )
        self.context["core.rules_active"] = sum(1 for rule in rules if rule.enabled)
        self.context["execution.fired_pairs"] = sum(len(v) for v in fired.values())

    def close_and_resume(self) -> None:
        from repro.service import StreamService

        service = self.service
        self.identity = service.identity_json()
        self.digest_chain = service.digest_chain
        self.totals = dict(service.totals)
        self.checkpoint_bytes = os.path.getsize(os.path.join(self.root, "checkpoint.json"))
        service.close()
        self._section("resume")
        self.resume_samples: List[float] = []
        for _ in range(RESUMES):
            self.attempted += 1
            wall = time.perf_counter()
            try:
                with self._op_span("service.resume"):
                    resumed = StreamService(self.root, fsync=False).start()
            except Exception:
                self._fail("resume raised:\n" + traceback.format_exc())
                continue
            self.resume_samples.append(time.perf_counter() - wall)
            if resumed.identity_json() != self.identity:
                self._fail("resumed identity differs from the pre-close one")
            resumed.close()
        if self.recorder is not None:
            self.recorder.unwrap_all()

    def run(self) -> "WorkloadRun":
        self.setup()
        self.host_probe_ms = [host_probe_ms()]
        self.timed()
        self.host_probe_ms.append(host_probe_ms())
        self.oracle()
        self.close_and_resume()
        return self

    # -- results ------------------------------------------------------------------

    def measured(self) -> Dict[str, Tuple[Optional[float], str, int]]:
        """Every wall-clock and size metric of the run: ``name -> (value,
        unit, sample count)``; ``None`` where the workload has no such
        operation (edits outside ``churn``) or every one of them raised."""
        batches, edits = self.batch_samples, self.edit_samples
        batch_ms = [b["wall_ms"] for b in batches]
        edit_ms = [e["wall_ms"] for e in edits]
        items = sum(b["items"] for b in batches)

        def over(sample: List[float], fn: Any) -> Optional[float]:
            return fn(sample) if sample else None

        out = {
            "setup_s": (self.setup_s, "s", 1),
            "items_per_s": (over(batch_ms, lambda ms: items / (sum(ms) / 1e3)), "items/s", len(batches)),
            "batch_ms_p50": (over(batch_ms, statistics.median), "ms", len(batches)),
            f"batch_ms_p{TAIL}": (over(batch_ms, lambda ms: percentile(ms, TAIL)), "ms", len(batches)),
            "edits_per_s": (over(edit_ms, lambda ms: len(ms) / (sum(ms) / 1e3)), "edits/s", len(edits)),
            "edit_ms_p50": (over(edit_ms, statistics.median), "ms", len(edits)),
            f"edit_ms_p{TAIL}": (over(edit_ms, lambda ms: percentile(ms, TAIL)), "ms", len(edits)),
            "resume_s": (over(self.resume_samples, statistics.median), "s", len(self.resume_samples)),
            "checkpoint_kb": (self.checkpoint_bytes / 1024.0, "KiB", 1),
            "checkpoint_b_per_item": (
                self.checkpoint_bytes / self.totals["items"], "B/item", 1,
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1,
            ),
        }
        # The tail the edit sample itself supports, beyond the common one:
        # printed, bounded nowhere.
        edit_tail = supported_percentile(len(edits))
        if edit_tail is not None and edit_tail > TAIL:
            out[f"edit_ms_p{edit_tail}"] = (percentile(edit_ms, edit_tail), "ms", len(edits))
        return out

    def timed_wall_s(self) -> float:
        return sum(s["wall_ms"] for s in self.batch_samples + self.edit_samples) / 1e3

    def per_layer(self) -> Dict[str, Optional[float]]:
        """Every per-layer metric; ``None`` where a wrapped name is gone or
        the workload has no such operation."""
        recorder = self.recorder
        batches = self.batch_samples
        by_section = {
            section: recorder.totals(section=section)
            for section in ("setup", "timed", "resume")
        }
        out: Dict[str, Optional[float]] = {}
        for metric, (span, section) in SPAN_METRICS.items():
            if not self.resolved.get(span):
                out[metric] = None
                continue
            seconds = by_section[section].get(span, (0.0, 0))[0]
            if section == "resume":
                seconds /= RESUMES
            out[metric] = seconds
        timed = by_section["timed"]
        counts = recorder.counts

        def calls(span: str) -> Optional[float]:
            return timed.get(span, (0.0, 0))[1] if self.resolved.get(span) else None

        evals = counts.get("execution.add_items_evals", 0.0)
        fifth = max(1, len(batches) // 5)

        def us_per_item(part: List[Dict[str, float]]) -> float:
            return statistics.median(b["wall_ms"] * 1e3 / b["items"] for b in part)

        spans_timed = sum(count for _, count in timed.values())
        overhead_s = spans_timed * per_span_cost()
        traced_wall = self.timed_wall_s()
        measured = self.measured()
        out.update({f"e2e.{name}": measured[name][0] for name in DEMOTED})
        out.update({
            "catalog.items": sum(b["items"] for b in batches),
            "chimera.items_classified": sum(b["classified"] for b in batches),
            "chimera.items_declined": sum(b["declined"] for b in batches),
            "learning.predict_calls": calls("learning.nb"),
            "core.ruleset_apply_calls": calls("core.ruleset_apply"),
            "execution.rule_evals": evals if self.resolved.get("execution.add_items") else None,
            "execution.match_ratio": (
                counts.get("execution.add_items_matches", 0.0) / evals if evals else 0.0
            ),
            "execution.rule_delta_evals": (
                counts.get("execution.rule_delta_evals", 0.0)
                if self.resolved.get("execution.rule_delta") else None
            ),
            "service.checkpoint_bytes_per_batch": statistics.fmean(
                b["checkpoint_bytes"] for b in batches
            ),
            "service.per_item_growth": us_per_item(batches[-fifth:]) / us_per_item(batches[:fifth]),
            "ledger.unattributed_s": sum(
                timed.get(root, (0.0, 0))[0]
                for root in ("ledger.batch", "ledger.edit", "ledger.rollback")
            ),
            "ledger.trace_overhead_share": overhead_s / max(traced_wall - overhead_s, 1e-9),
        })
        out.update(self.context)
        return out

    def layer_shares(self, last_fifth: bool = False) -> Dict[str, float]:
        """Self seconds per layer over the timed section (or its last
        fifth of operations) — the acceptance checks' "largest layer"."""
        min_ordinal = None
        if last_fifth:
            ordinals = [s["ordinal"] for s in self.batch_samples + self.edit_samples]
            first, last = min(ordinals), max(ordinals)
            min_ordinal = last - (last - first + 1) // 5 + 1
        totals = self.recorder.totals(section="timed", min_ordinal=min_ordinal)
        shares: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for span, (seconds, _) in totals.items():
            layer = span.split(".", 1)[0]
            if layer in shares:
                shares[layer] += seconds
        shares["execution.fired_map"] = totals.get("execution.fired_map", (0.0, 0))[0]
        return shares

    def result(self) -> Dict[str, Any]:
        """The full record one workload subprocess hands back."""
        measured = self.measured()
        out: Dict[str, Any] = {
            "workload": self.workload.name,
            "seed": self.seed,
            "traced": self.recorder is not None,
            "sizes": {
                "batches": len(self.batch_samples), "edits": len(self.edit_samples),
                "resumes": len(self.resume_samples), "tail_percentile": TAIL,
            },
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / self.attempted,
            "failures": self.failures,
            "correct": self.failed == 0,
            "digest_chain": self.digest_chain,
            "totals": self.totals,
            "known_index_misses": self.known_index_misses,
            "timed_wall_s": self.timed_wall_s(),
            "host_probe_ms": self.host_probe_ms,
            "measured": {
                name: {"value": value, "unit": unit, "n": n}
                for name, (value, unit, n) in measured.items()
            },
            "end_to_end": {
                name: {"value": measured[name][0], "unit": measured[name][1]}
                for name in END_TO_END
            },
        }
        if self.recorder is not None:
            out["per_layer"] = {
                name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                for name, value in self.per_layer().items()
            }
            out["layer_shares"] = self.layer_shares()
            out["layer_shares_last_fifth"] = self.layer_shares(last_fifth=True)
            out["warnings"] = list(self.recorder.warnings)
        return out

    def write_raw(self, out_dir: str) -> None:
        """Raw per-operation samples (and spans, when traced) under ``--out``."""
        stem = os.path.join(
            out_dir, f"{self.workload.name}-{'traced' if self.recorder else 'plain'}"
        )
        with open(stem + "-samples.json", "w", encoding="utf-8") as handle:
            json.dump({
                "batches": self.batch_samples, "edits": self.edit_samples,
                "resumes": self.resume_samples,
            }, handle)
        if self.recorder is not None:
            self.recorder.write_jsonl(stem + "-spans.jsonl")
