"""The assembled Chimera pipeline.

Section 4 asks how to "quickly execute all rules on all records": one
engine per pipeline, attached to its four rule sets, gives each item one
row of firing rule ids (stored at admission, else evaluated once), and
every consumer folds its own set's ids from that row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.catalog.generator import LabeledTitle
from repro.catalog.types import ProductItem
from repro.chimera.classifiers import (
    AttributeValueClassifier,
    LearningClassifierStage,
    RuleBasedClassifier,
)
from repro.chimera.filter import FinalFilter
from repro.chimera.gatekeeper import GateAction, GateKeeper
from repro.chimera.monitoring import GuardedStage, StageHealthMonitor
from repro.chimera.voting import VotingMaster
from repro.core.errors import UnknownRuleError
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet, share_ids
from repro.execution.incremental import IncrementalExecutor
from repro.observability import Observability, ensure_observability
from repro.observability.provenance import ProvenanceLog, ProvenanceRecord, StageTrace
from repro.observability.quality import RuleHealthTracker

if TYPE_CHECKING:
    from repro.learning.ensemble import VotingEnsemble


@dataclass(frozen=True)
class ItemResult:
    """Outcome for one item: a label, or None when the system declines."""

    item: ProductItem
    label: Optional[str]
    source: str = ""

    @property
    def classified(self) -> bool:
        return self.label is not None


@dataclass
class BatchResult:
    """Outcome for a batch.

    ``declined`` items go to the manual classification team (section 2.2);
    ``rejected`` items were junk the Gate Keeper refused.
    """

    results: List[ItemResult] = field(default_factory=list)
    rejected: List[ProductItem] = field(default_factory=list)
    #: ``len(classified_pairs)`` and results per ``source``, counted as
    #: :meth:`add` assembles ``results`` (or once, when constructed whole).
    n_classified: int = field(init=False, default=0)
    sources: Counter = field(init=False, default_factory=Counter)

    def __post_init__(self) -> None:
        results, self.results = self.results, []
        for result in results:
            self.add(result)

    def add(self, result: ItemResult) -> None:
        self.results.append(result)
        self.sources[result.source] += 1
        if result.label is not None:
            self.n_classified += 1

    @property
    def n_declined(self) -> int:
        return len(self.results) - self.n_classified

    @property
    def classified_pairs(self) -> List[Tuple[ProductItem, str]]:
        return [(r.item, r.label) for r in self.results if r.classified]

    @property
    def declined(self) -> List[ProductItem]:
        return [r.item for r in self.results if not r.classified]

    @property
    def coverage(self) -> float:
        """Fraction of (non-junk) items the system classified."""
        if not self.results:
            return 0.0
        return self.n_classified / len(self.results)

    # Ground-truth metrics: for experiment reporting only — the deployed
    # pipeline never sees true_type, but benchmarks need the real numbers.

    def true_precision(self) -> float:
        pairs = self.classified_pairs
        if not pairs:
            return 1.0
        return sum(1 for item, label in pairs if item.true_type == label) / len(pairs)

    def true_recall(self) -> float:
        if not self.results:
            return 0.0
        correct = sum(
            1 for r in self.results if r.classified and r.item.true_type == r.label
        )
        return correct / len(self.results)

    def per_type_metrics(self) -> Dict[str, Tuple[float, float, int]]:
        """type -> (precision, recall, item count) over this batch.

        The per-type view is what the monitoring/incident flow drills into:
        an aggregate precision can look fine while one type burns.
        """
        predicted: Dict[str, int] = {}
        correct: Dict[str, int] = {}
        actual: Dict[str, int] = {}
        for result in self.results:
            actual[result.item.true_type] = actual.get(result.item.true_type, 0) + 1
            if not result.classified:
                continue
            predicted[result.label] = predicted.get(result.label, 0) + 1
            if result.item.true_type == result.label:
                correct[result.label] = correct.get(result.label, 0) + 1
        metrics: Dict[str, Tuple[float, float, int]] = {}
        for type_name in sorted(set(predicted) | set(actual)):
            tp = correct.get(type_name, 0)
            p_count = predicted.get(type_name, 0)
            a_count = actual.get(type_name, 0)
            precision = tp / p_count if p_count else 1.0
            recall = tp / a_count if a_count else 0.0
            metrics[type_name] = (precision, recall, a_count)
        return metrics


#: The rule sets' places in an item's per-set hits, in stage order.
_GATE, _RULES, _ATTR, _FILTER = range(4)
#: Per-set hits when no rule fires, and when the row could not be read.
_NO_HITS = ((), (), (), ())
_OWN_HITS = (None, None, None, None)


class Chimera:
    """The full pipeline: gate → stages → voting → filter.

    Use :meth:`build` for the standard assembly, or construct the pieces
    explicitly for ablations (e.g. a learning-only Chimera for E5).

    The four rule sets share one id space (a rule id names one rule per
    pipeline) and one :attr:`engine`, whose fired map — the identity the
    service chains — covers the rule-based set only.
    """

    def __init__(
        self,
        gatekeeper: GateKeeper,
        rule_stage: RuleBasedClassifier,
        attr_stage: AttributeValueClassifier,
        learning_stage: LearningClassifierStage,
        voting: VotingMaster,
        final_filter: FinalFilter,
        health: Optional[StageHealthMonitor] = None,
        observability: Optional[Observability] = None,
    ):
        self.gatekeeper = gatekeeper
        self.rule_stage = rule_stage
        self.attr_stage = attr_stage
        self.learning_stage = learning_stage
        self.voting = voting
        self.filter = final_filter
        # ``observability`` threads one tracer + metrics registry through
        # the whole pipeline: each batch emits one chimera.* span per step
        # (gate → stages → vote → filter) and the health monitor mirrors
        # breaker state as gauges. The default NULL instance records nothing.
        self.observability = ensure_observability(observability)
        # Every stage is answered through a circuit-breaker guard: a
        # stage that throws repeatedly is routed around (no votes) until
        # its breaker cools down, so one bad component degrades coverage
        # instead of stopping classification (§2.2).
        self.health = health if health is not None else StageHealthMonitor()
        if self.observability.enabled and self.health.metrics is None:
            self.health.metrics = self.observability.metrics
        # (guarded stage, its rule set's place in an item's hits).
        self._guarded_stages = [
            (GuardedStage(stage, self.health, tracer=self.observability.tracer), slot)
            for stage, slot in (
                (rule_stage, _RULES), (attr_stage, _ATTR), (learning_stage, None)
            )
        ]
        self._sets = (gatekeeper.rules, rule_stage.rules, attr_stage.rules, final_filter.rules)
        share_ids(self._sets)
        self._engine: Optional[IncrementalExecutor] = None
        self.training_data: List[LabeledTitle] = []
        self._pending_training = 0
        # Rule-quality telemetry (see enable_quality_telemetry): while a
        # provenance log is attached, every classified item records its
        # full attribution chain there and feeds the health tracker.
        self.provenance: Optional[ProvenanceLog] = None
        self.rule_health: Optional[RuleHealthTracker] = None
        self._batch_counter = 0

    @classmethod
    def build(
        cls,
        confidence_threshold: float = 0.4,
        ensemble: Optional[VotingEnsemble] = None,
        seed: int = 0,
        observability: Optional[Observability] = None,
    ) -> "Chimera":
        """Standard assembly with the NB + kNN + SVM ensemble of section 3.1.

        Without an explicit ``ensemble`` the learning stage builds
        :func:`~repro.learning.ensemble.default_ensemble` from ``seed`` at
        its first fit, so an untrained pipeline never imports the learners.
        """
        return cls(
            gatekeeper=GateKeeper(),
            rule_stage=RuleBasedClassifier(RuleSet(name="rule-based")),
            attr_stage=AttributeValueClassifier(RuleSet(name="attr-value")),
            learning_stage=LearningClassifierStage(ensemble, seed=seed),
            voting=VotingMaster(confidence_threshold=confidence_threshold),
            final_filter=FinalFilter(RuleSet(name="filter")),
            observability=observability,
        )

    # -- rule management hooks --------------------------------------------------

    def add_whitelist_rules(self, rules: Sequence[Rule]) -> None:
        self.rule_stage.rules.extend(rules)

    def add_blacklist_rules(self, rules: Sequence[Rule], to_filter: bool = True) -> None:
        """Blacklists default to the Filter (the analysts' usual target)."""
        target = self.filter.rules if to_filter else self.rule_stage.rules
        target.extend(rules)

    def add_attribute_rules(self, rules: Sequence[Rule]) -> None:
        self.attr_stage.rules.extend(rules)

    @property
    def engine(self) -> IncrementalExecutor:
        """The pipeline's one engine, attached to the four rule sets at first
        use, so the rules added before then (a service's startup rules, or
        those a resume adopts) arrive as one delta a set."""
        if self._engine is None:
            self._engine = IncrementalExecutor(observability=self.observability)
            for rules in self._sets:
                self._engine.attach_ruleset(rules, in_view=rules is self.rule_stage.rules)
        return self._engine

    def rule_sets(self) -> Dict[str, RuleSet]:
        """The four analyst rule sets by stage name, in stage order."""
        return dict(zip(("gate", "rule-based", "attr-value", "filter"), self._sets))

    def rule_count(self) -> Dict[str, int]:
        return {name: len(rules) for name, rules in self.rule_sets().items()}

    # -- health -------------------------------------------------------------------

    def degraded_stages(self) -> List[str]:
        """Stages currently routed around by their circuit breaker."""
        return self.health.degraded_stages()

    def health_report(self) -> Dict[str, Dict[str, object]]:
        return self.health.report()

    # -- training management -----------------------------------------------------

    def add_training(self, labeled: Sequence[LabeledTitle]) -> None:
        self.training_data.extend(labeled)
        self._pending_training += len(labeled)

    def retrain(self, min_examples_per_type: int = 1) -> bool:
        """Retrain the ensemble on the accumulated training data.

        Types with fewer than ``min_examples_per_type`` examples are dropped
        from training (unreliable predictions hurt precision; those types
        stay rule-handled, matching section 3.3's 30% figure).
        Returns False when there is nothing to train on.
        """
        counts: Dict[str, int] = {}
        for example in self.training_data:
            counts[example.label] = counts.get(example.label, 0) + 1
        usable = [
            example
            for example in self.training_data
            if counts[example.label] >= min_examples_per_type
        ]
        if not usable:
            return False
        titles = [example.title for example in usable]
        labels = [example.label for example in usable]
        self.learning_stage.fit(titles, labels)
        self._pending_training = 0
        return True

    @property
    def pending_training(self) -> int:
        return self._pending_training

    # -- rule-quality telemetry ---------------------------------------------------

    def enable_quality_telemetry(
        self,
        provenance: Optional[ProvenanceLog] = None,
        rule_health: Optional[RuleHealthTracker] = None,
    ) -> None:
        """Attach label provenance and per-rule health windows, together.

        From here on each classified item's full attribution chain lands
        on :attr:`provenance` (ask it ``why(item_id)`` / ``blame(rule_id)``)
        and feeds :attr:`rule_health`'s per-rule windows; ``classify_batch``
        closes a health batch per call. The defaults are an in-memory log
        and a tracker on this pipeline's metrics registry; setting both
        attributes back to None detaches them. Recording reads only values
        the pipeline computed anyway, so labels stay byte-identical
        (tests/test_quality_properties.py).
        """
        if rule_health is None:
            obs = self.observability
            rule_health = RuleHealthTracker(metrics=obs.metrics if obs.enabled else None)
        self.provenance = provenance if provenance is not None else ProvenanceLog()
        self.rule_health = rule_health

    def _record_chain(
        self,
        item_id: str,
        batch_id: str,
        label: Optional[str],
        source: str,
        decision,
        stages: Tuple[StageTrace, ...] = (),
        ranked=(),
        final=None,
        filter_trace: Optional[StageTrace] = None,
    ) -> None:
        # Hot path: positional construction, seq stamped inside record()
        # — every call and keyword saved here is per classified item
        # (benchmarks/bench_quality_overhead.py).
        record = ProvenanceRecord(
            0,  # seq: assigned by ProvenanceLog.record
            item_id,
            batch_id,
            label,
            source,
            decision.action.value,
            decision.reason,
            stages,
            tuple([(p.label, p.weight) for p in ranked]) if ranked else (),
            (final.label, final.weight) if final is not None else None,
            filter_trace.fired if filter_trace is not None else (),
            filter_trace.vetoed if filter_trace is not None else (),
        )
        self.provenance.record(record)
        self.rule_health.observe_record(record)

    # -- classification -----------------------------------------------------------

    def _live(self) -> List[int]:
        """The places of the rule sets holding a rule: the rest fold nothing."""
        return [slot for slot, rules in enumerate(self._sets) if rules]

    def _read(self, item: ItemLike, live: List[int]) -> Tuple[PreparedItem, Sequence]:
        """``item``'s prepared view and per-set hits, from one read of its
        engine row: an admitted record shares its row's tokens and reads
        the stored row; any other item is prepared afresh and evaluated
        once, unless the gate rejects it as junk first. If evaluating
        raises (a rule condition threw), every consumer evaluates its own
        rules, inside the guard it runs under."""
        engine = self.engine
        row = engine.admitted(item)
        if row is None:
            view = prepare(item)
        else:
            view = item if isinstance(item, PreparedItem) else engine.view(row, item)
        if not live or (row is None and self.gatekeeper.rejects(view)):
            return view, _NO_HITS
        if row is not None:
            return view, self._split(engine.store.rules_of_row(row), live)
        try:
            hits = engine.evaluate(view)
        except Exception:
            return view, _OWN_HITS
        return view, self._split(hits, live)

    def _split(self, row, live: List[int]) -> Sequence:
        """``row`` as per-set hits (``live``: the places of the non-empty
        sets); an id no set holds raises ``UnknownRuleError``."""
        if not row:
            return _NO_HITS
        hits = list(_NO_HITS)
        if len(live) == 1:
            hits[live[0]] = row
            return hits
        for slot in live:
            hits[slot] = []
        for rule_id in row:
            for slot in live:
                if rule_id in self._sets[slot]:
                    hits[slot].append(rule_id)
                    break
            else:
                raise UnknownRuleError(rule_id)
        return hits

    def _classify(self, items: Sequence[ItemLike], batch_id: str) -> BatchResult:
        """Every step answers the batch once, and records per item.

        Each item is prepared (tokenized) and its engine row read once
        (:meth:`_read`); the gate, every stage and the filter share that
        view and fold their own set's hits. Each enabled stage then answers
        all the items the gate passed in one guarded call, and the Voting
        Master and the Filter walk those answers item by item. While a
        provenance log is attached — decided here, once per batch — the
        stages and the filter trace what they computed, and each item's
        attribution chain (gate decision, per-stage fired rules and votes,
        voting-master ranking, filter outcome) is recorded under
        ``batch_id``, in item order.
        """
        obs = self.observability
        traced = self.provenance is not None
        result = BatchResult()
        with obs.span("chimera.classify_batch", items=len(items)) as batch_span:
            with obs.span("chimera.gate"):
                live = self._live()
                read = [self._read(item, live) for item in items]
                decisions = [self.gatekeeper.process(view, hits[_GATE]) for view, hits in read]
            passing = [
                pair
                for pair, decision in zip(read, decisions)
                if decision.action is GateAction.PASS
            ]
            passed = [view for view, _ in passing]
            # rows[i]: the enabled stages' answers for passed[i], stage order.
            rows = list(zip(*[
                stage.answer_batch(
                    passed, traced, None if slot is None else [h[slot] for _, h in passing]
                )
                for stage, slot in self._guarded_stages
                if passed and stage.enabled
            ])) or [()] * len(passed)
            with obs.span("chimera.vote"):
                votes = [self.voting.combine(row) for row in rows]
            with obs.span("chimera.filter"):
                threshold = self.voting.confidence_threshold
                picks = [
                    self.filter.select(view, ranked, threshold, traced, hits[_FILTER])
                    if ranked
                    else (None, None)
                    for (view, hits), (_final, ranked) in zip(passing, votes)
                ]
            outcomes = zip(rows, votes, picks)
            for item, (view, _hits), decision in zip(items, read, decisions):
                traces, ranked, final, filter_trace = (), (), None, None
                if decision.action is GateAction.REJECT:
                    label, source = None, "gate-reject"
                elif decision.action is GateAction.CLASSIFY:
                    label, source = decision.label, "gate"
                else:
                    row, (final, ranked), (pick, filter_trace) = next(outcomes)
                    traces = tuple([a.trace for a in row if a.trace is not None])
                    if not ranked:
                        label, source = None, "no-votes"
                    elif pick is None:
                        label, source = None, "low-confidence-or-filtered"
                    else:
                        label, source = pick.label, "pipeline"
                if traced:
                    self._record_chain(
                        view.item_id, batch_id, label, source, decision,
                        traces, ranked, final, filter_trace,
                    )
                if decision.action is GateAction.REJECT:
                    result.rejected.append(item)
                else:
                    result.add(ItemResult(view.item, label, source))
            batch_span.set_attribute("classified", result.n_classified)
            batch_span.set_attribute("rejected", len(result.rejected))
        return result

    def classify_item(
        self, item: ItemLike, batch_id: str = ""
    ) -> Optional[ItemResult]:
        """Classify one item — a one-item batch that neither takes a batch
        number nor closes a health batch; None means the gate rejected it
        as junk."""
        result = self._classify([item], batch_id)
        return result.results[0] if result.results else None

    def explain_item(self, item: ProductItem) -> str:
        """A human-readable account of how the pipeline treats ``item``.

        Section 3.2's liability requirement: predictions for sensitive
        types must be explainable, and rule provenance is what makes the
        explanation crisp. Learning votes are reported as such — which is
        exactly why business-critical types are forced through rules.

        Read-only: one read of the item's engine row, then every stage's
        ``answer``, the Voting Master's ``combine`` and the Filter's
        ``select`` that :meth:`classify_batch` runs, outside the
        circuit-breaker guards — no provenance record, no health-window
        observation, no breaker call. A raising rule or stage raises here.
        """
        from repro.core.explain import explain_verdict

        prepared, hits = self._read(item, self._live())
        decision = self.gatekeeper.process(prepared, hits[_GATE])
        lines = [
            f"gate: {decision.action.value}"
            + (f" ({decision.reason})" if decision.reason else "")
        ]
        answers = []
        for stage, slot in ((self.rule_stage, _RULES), (self.attr_stage, _ATTR)):
            answers.append(stage.answer(prepared, hits=hits[slot]))
            verdict = stage.verdict(prepared, hits[slot])
            explanation = explain_verdict(stage.rules, prepared.item, verdict)
            if explanation.steps:
                lines.append(f"stage {stage.name}:")
                for step in explanation.steps:
                    lines.append(f"  [{step.kind}] {step.statement} -> {step.effect}")
        learning = self.learning_stage.answer(prepared)
        answers.append(learning)
        if learning.votes:
            rendered = ", ".join(f"{p.label} ({p.weight:.2f})" for p in learning.votes)
            lines.append(f"stage learning: {rendered}")
        _final, ranked = self.voting.combine(answers)
        pick, filter_trace = self.filter.select(
            prepared, ranked, self.voting.confidence_threshold,
            traced=True, hits=hits[_FILTER],
        )
        if filter_trace.vetoed:
            lines.append(f"filter vetoes: {list(filter_trace.vetoed)}")
        label = decision.label
        if decision.action is GateAction.PASS:
            label = pick.label if pick is not None else None
        lines.append(f"final: {label if label else 'unclassified'}")
        return "\n".join(lines)

    def classify_batch(
        self, items: Sequence[ProductItem], batch_id: Optional[str] = None
    ) -> BatchResult:
        if batch_id is None:
            batch_id = f"batch-{self._batch_counter:04d}"
        self._batch_counter += 1
        result = self._classify(items, batch_id)
        if self.rule_health is not None:
            self.rule_health.finish_batch(batch_id, len(items))
        obs = self.observability
        if obs.enabled:
            obs.metrics.counter("chimera_items_total").inc(len(items))
            obs.metrics.counter("chimera_classified_total").inc(result.n_classified)
            obs.metrics.counter("chimera_declined_total").inc(result.n_declined)
            obs.metrics.counter("chimera_rejected_total").inc(len(result.rejected))
            for source in ("gate", "pipeline"):
                if result.sources[source]:
                    obs.metrics.counter(
                        "chimera_labeled_by_total", source=source
                    ).inc(result.sources[source])
        return result
