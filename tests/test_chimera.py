"""Tests for the Chimera pipeline: stages, voting, filter, end-to-end."""

import pytest

from repro.catalog.types import ProductItem
from repro.chimera import (
    AttributeValueClassifier,
    Chimera,
    FinalFilter,
    GateAction,
    GateKeeper,
    LearningClassifierStage,
    RuleBasedClassifier,
    VotingMaster,
)
from repro.core import Prediction, RuleSet, parse_rules
from repro.learning import MultinomialNaiveBayes, VotingEnsemble


def item(title, **attributes):
    return ProductItem(item_id=title[:24], title=title, attributes=attributes)


class TestGateKeeper:
    def test_rejects_empty_title(self):
        decision = GateKeeper().process(item("   "))
        assert decision.action is GateAction.REJECT

    def test_passes_normal_items(self):
        assert GateKeeper().process(item("gold ring")).action is GateAction.PASS

    def test_bypass_rule_classifies(self):
        gate = GateKeeper(RuleSet(parse_rules("attr(isbn) -> books")))
        decision = gate.process(item("whatever", isbn="978"))
        assert decision.action is GateAction.CLASSIFY
        assert decision.label == "books"


class TestRuleBasedClassifier:
    def test_predictions_tagged_with_stage(self):
        stage = RuleBasedClassifier(RuleSet(parse_rules("rings? -> rings")))
        predictions = stage.predict(item("gold ring"))
        assert predictions[0].label == "rings"
        assert predictions[0].source.startswith("rule-based:")

    def test_blacklist_inside_stage_vetoes(self):
        stage = RuleBasedClassifier(RuleSet(parse_rules(
            "rings? -> rings\nkey rings? -> NOT rings")))
        assert stage.predict(item("key ring")) == []


class TestAttributeValueClassifier:
    def test_constraints_exposed(self):
        stage = AttributeValueClassifier(RuleSet(parse_rules(
            "value(brand_name)=apple -> laptop computers|smart phones")))
        allowed = stage.constraints(item("macbook", brand_name="apple"))
        assert allowed == {"laptop computers", "smart phones"}
        assert stage.constraints(item("thing")) is None


class TestLearningStage:
    def test_unfit_stage_returns_nothing(self):
        stage = LearningClassifierStage(VotingEnsemble([MultinomialNaiveBayes()]))
        assert stage.predict(item("anything")) == []
        assert not stage.is_trained

    def test_suppression(self):
        stage = LearningClassifierStage(VotingEnsemble([MultinomialNaiveBayes()]))
        stage.fit(["gold ring", "blue jeans"], ["rings", "jeans"])
        stage.suppressed_types.add("rings")
        predictions = stage.predict(item("gold ring"))
        assert all(p.label != "rings" for p in predictions)


class TestVotingMaster:
    class FakeStage:
        def __init__(self, name, predictions, allowed=None):
            self.name = name
            self.enabled = True
            self._predictions = predictions
            self._allowed = allowed

        def predict(self, item):
            return self._predictions

        def constraints(self, item):
            return self._allowed

    def test_rule_votes_outweigh_learning(self):
        rule_stage = self.FakeStage("rule-based", [Prediction("rings", 1.0)])
        learn_stage = self.FakeStage("learning", [Prediction("books", 1.0)])
        final, ranked = VotingMaster(confidence_threshold=0.4).combine(
            item("x"), [rule_stage, learn_stage]
        )
        assert final.label == "rings"

    def test_low_confidence_declines(self):
        stage_a = self.FakeStage("learning", [
            Prediction("a", 0.34), Prediction("b", 0.33), Prediction("c", 0.33)])
        final, ranked = VotingMaster(confidence_threshold=0.5).combine(
            item("x"), [stage_a]
        )
        assert final is None
        assert len(ranked) == 3

    def test_constraints_filter_votes(self):
        rule_stage = self.FakeStage("rule-based", [Prediction("rings", 1.0)])
        constraint = self.FakeStage("attr-value", [], allowed={"books"})
        final, ranked = VotingMaster().combine(item("x"), [rule_stage, constraint])
        assert final is None and ranked == []

    def test_suppressed_types_dropped(self):
        master = VotingMaster(confidence_threshold=0.1)
        master.suppressed_types.add("rings")
        stage = self.FakeStage("rule-based", [Prediction("rings", 1.0)])
        final, ranked = master.combine(item("x"), [stage])
        assert final is None

    def test_disabled_stage_ignored(self):
        stage = self.FakeStage("rule-based", [Prediction("rings", 1.0)])
        stage.enabled = False
        final, _ = VotingMaster().combine(item("x"), [stage])
        assert final is None


class TestFinalFilter:
    def test_veto_falls_through_to_next(self):
        final_filter = FinalFilter(RuleSet(parse_rules("key rings? -> NOT rings")))
        ranked = [Prediction("rings", 0.6), Prediction("keychains", 0.4)]
        chosen, trace = final_filter.select(item("key ring"), ranked, 0.3)
        assert chosen.label == "keychains"
        assert trace is None  # traced only when asked

    def test_threshold_stops_walk(self):
        final_filter = FinalFilter(RuleSet(parse_rules("key rings? -> NOT rings")))
        ranked = [Prediction("rings", 0.6), Prediction("keychains", 0.2)]
        assert final_filter.select(item("key ring"), ranked, 0.3) == (None, None)

    def test_kill_switch(self):
        final_filter = FinalFilter()
        final_filter.kill_type("medicine")
        ranked = [Prediction("medicine", 0.9)]
        assert final_filter.select(item("pills"), ranked, 0.3)[0] is None
        final_filter.revive_type("medicine")
        chosen, trace = final_filter.select(item("pills"), ranked, 0.3, traced=True)
        assert chosen.label == "medicine"
        assert (trace.stage, trace.vetoed) == ("filter", ())


class TestChimeraEndToEnd:
    @pytest.fixture()
    def chimera(self, generator):
        chimera = Chimera.build(seed=0)
        chimera.add_whitelist_rules(parse_rules("rings? -> rings"))
        chimera.add_blacklist_rules(parse_rules("key rings? -> NOT rings"))
        chimera.add_attribute_rules(parse_rules("attr(isbn) -> books"))
        chimera.add_training(generator.generate_labeled(1200))
        chimera.retrain(min_examples_per_type=3)
        return chimera

    def test_rule_classification(self, chimera, generator):
        ring = generator.generate_item("rings")
        result = chimera.classify_item(ring)
        if "ring" in ring.title:
            assert result.label == "rings"

    def test_blacklist_protects_trap(self, chimera):
        result = chimera.classify_item(item("retractable key ring value"))
        assert result.label != "rings"

    def test_attribute_rule_wins(self, chimera):
        result = chimera.classify_item(item("mystery novel", isbn="9781111111111"))
        assert result.label == "books"

    def test_batch_metrics(self, chimera, generator):
        result = chimera.classify_batch(generator.generate_items(200))
        assert result.true_precision() >= 0.9
        assert result.coverage >= 0.8
        assert result.true_recall() <= result.coverage

    def test_junk_rejected_not_declined(self, chimera):
        result = chimera.classify_batch([item("  ")])
        assert len(result.rejected) == 1
        assert result.results == []

    def test_retrain_requires_examples(self):
        chimera = Chimera.build(seed=0)
        assert chimera.retrain() is False

    def test_min_examples_per_type_drops_tail(self, generator):
        chimera = Chimera.build(seed=0)
        labeled = generator.generate_labeled(300)
        chimera.add_training(labeled)
        chimera.retrain(min_examples_per_type=10)
        trained_labels = set(chimera.learning_stage.ensemble.known_labels())
        from collections import Counter
        counts = Counter(example.label for example in labeled)
        assert all(counts[label] >= 10 for label in trained_labels)

    def test_rule_count(self, chimera):
        counts = chimera.rule_count()
        assert counts["rule-based"] == 1
        assert counts["filter"] == 1
        assert counts["attr-value"] == 1
