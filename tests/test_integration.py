"""Cross-module integration tests: the paper's end-to-end workflows."""

import pytest

from repro.analyst import SimulatedAnalyst
from repro.catalog import BatchStream, CatalogGenerator, DriftInjector
from repro.chimera import Chimera, FeedbackLoop, IncidentManager, PrecisionMonitor
from repro.core import RuleSet, parse_rules
from repro.crowd import CrowdBudget, PrecisionEstimator, VerificationTask, WorkerPool
from repro.evaluation import ModuleLevelEvaluator, ruleset_quality
from repro.execution import CompiledRuleSet, NaiveExecutor
from repro.repository import RuleRepository
from repro.rulegen import RuleGenerator
from repro.synonym import DiscoverySession, SynonymTool
from repro.utils.clock import SimClock


class TestOngoingClassification:
    """Section 3.3's loop: classify, evaluate, patch, improve over time."""

    def test_precision_floor_held_over_stream(self, taxonomy):
        clock = SimClock()
        generator = CatalogGenerator(taxonomy, seed=101)
        chimera = Chimera.build(seed=101)
        chimera.add_training(generator.generate_labeled(2000))
        chimera.retrain(min_examples_per_type=5)
        analyst = SimulatedAnalyst(taxonomy, clock=clock, seed=102)
        pool = WorkerPool(seed=103)
        task = VerificationTask(pool, budget=CrowdBudget(10**6), seed=104)
        estimator = PrecisionEstimator(task, sample_size=60, seed=105)
        loop = FeedbackLoop(chimera, estimator, analyst, precision_floor=0.92)
        stream = BatchStream(generator, clock=clock, seed=106)

        reports = [loop.process_batch(batch.items, batch.batch_id)
                   for batch in stream.take(5)]
        accepted = [r for r in reports if r.accepted]
        assert len(accepted) >= 4
        assert all(r.true_precision >= 0.85 for r in accepted)

    def test_registry_manages_generated_rules(self, taxonomy):
        generator = CatalogGenerator(taxonomy, seed=111)
        training = generator.generate_labeled(2500)
        result = RuleGenerator(min_support=0.05, q=20).generate(training)
        repo = RuleRepository()
        test_items = generator.generate_items(800)
        for rule in result.high_confidence:
            repo.add("chimera", rule, author="rulegen")
            quality = ruleset_quality([rule], test_items)
            if quality.precision < 0.92:
                repo.set_enabled(
                    "chimera", rule.rule_id, False,
                    reason=f"precision={quality.precision:.3f}",
                )
        deployed = repo.materialize("chimera").active_rules()
        assert len(deployed) > 0
        quality = ruleset_quality(deployed, test_items)
        assert quality.precision >= 0.92


class TestSynonymToRule:
    """Section 5.1 tool output feeds a Chimera rule module."""

    def test_expanded_rule_raises_recall(self, taxonomy):
        generator = CatalogGenerator(taxonomy, seed=121)
        corpus_items = generator.generate_items(6000)
        corpus = [item.title for item in corpus_items]
        tool = SynonymTool(r"(motor | engine | \syn) oils? -> motor oil", corpus)
        analyst = SimulatedAnalyst(taxonomy, seed=122, synonym_judgement_accuracy=1.0)
        report = DiscoverySession(tool, analyst, slot="vehicle", patience=2).run()
        assert report.succeeded

        seed_rules = RuleSet(parse_rules("(motor|engine) oils? -> motor oil"))
        expanded_rules = RuleSet(parse_rules(
            f"{report.expanded_pattern} -> motor oil"
        ))
        test_items = generator.generate_items(2000)
        seed_quality = ruleset_quality(list(seed_rules), test_items)
        expanded_quality = ruleset_quality(list(expanded_rules), test_items)
        assert expanded_quality.recall > seed_quality.recall
        assert expanded_quality.precision >= 0.9


class TestIncidentWorkflow:
    """Section 2.2: drift -> detect -> scale down -> repair -> restore."""

    def test_full_playbook(self, mutable_taxonomy):
        clock = SimClock()
        generator = CatalogGenerator(mutable_taxonomy, seed=131)
        chimera = Chimera.build(seed=131)
        chimera.add_training(generator.generate_labeled(2000))
        chimera.retrain(min_examples_per_type=5)
        analyst = SimulatedAnalyst(mutable_taxonomy, clock=clock, seed=132,
                                   verification_accuracy=1.0, labeling_accuracy=1.0)
        monitor = PrecisionMonitor(floor=0.92, window=4)
        incidents = IncidentManager(chimera)

        baseline = chimera.classify_batch(generator.generate_items(300))
        assert baseline.true_precision() >= 0.92

        drift = DriftInjector(generator, seed=133)
        drift.shift_head_vocabulary("jeans", ["dungaree", "boys short"])
        drift.replace_slot("jeans", "fabric", ["serge", "twill"])
        drift.shift_distribution({"jeans": 20.0})
        degraded = chimera.classify_batch(generator.generate_items(300))
        assert degraded.true_precision() < baseline.true_precision()

        incident = incidents.open_incident(["jeans", "shorts"], at=clock.now)
        incidents.scale_down(incident)
        errors = [(item, label)
                  for item, label in degraded.classified_pairs
                  if item.true_type != label][:30]
        incidents.repair(incident, analyst, errors)
        incidents.restore(incident)

        recovered = chimera.classify_batch(generator.generate_items(300))
        assert recovered.true_precision() > degraded.true_precision()


class TestExecutionAgreesAtScale:
    def test_generated_rules_indexed_equivalence(self, labeled_training, corpus_items):
        result = RuleGenerator(min_support=0.05, q=30).generate(labeled_training)
        rules = result.rules
        items = corpus_items[:300]
        naive_fired, naive_stats = NaiveExecutor(rules).run(items)
        indexed_fired, indexed_stats = CompiledRuleSet(rules).execute(items)
        assert {k: sorted(v) for k, v in naive_fired.items()} == indexed_fired
        assert indexed_stats.rule_evaluations * 5 < naive_stats.rule_evaluations


class TestModuleEvaluationPipeline:
    def test_generated_module_clears_floor(self, taxonomy, labeled_training):
        generator = CatalogGenerator(taxonomy, seed=141)
        result = RuleGenerator(min_support=0.05, q=30).generate(labeled_training)
        module = RuleSet(result.high_confidence, name="rulegen-high")
        pool = WorkerPool(size=40, accuracy_range=(0.92, 0.99), seed=142)
        task = VerificationTask(pool, budget=CrowdBudget(10**6), seed=143)
        estimate = ModuleLevelEvaluator(task, sample_size=120, seed=144).evaluate(
            module, generator.generate_items(1500)
        )
        assert estimate is not None
        assert estimate.precision >= 0.9
