"""Scale sanity tests: the library stays correct and tractable when the
taxonomy and rule base grow toward paper-like proportions.

These run a few seconds each — they are the evidence that the laptop-scale
defaults generalize upward, not micro-benchmarks (those live in
``benchmarks/``).
"""

import random

import pytest

from repro.catalog import CatalogGenerator, build_seed_taxonomy, synthesize_types
from repro.core import SequenceRule
from repro.execution import CompiledRuleSet, NaiveExecutor
from repro.learning import MultinomialNaiveBayes
from repro.rulegen import RuleGenerator


@pytest.fixture(scope="module")
def big_taxonomy():
    taxonomy = build_seed_taxonomy()
    for product_type in synthesize_types(300, random.Random(7)):
        taxonomy.add(product_type)
    return taxonomy


class TestScale:
    def test_300_plus_type_generation(self, big_taxonomy):
        generator = CatalogGenerator(big_taxonomy, seed=1)
        items = generator.generate_items(3000)
        seen_types = {item.true_type for item in items}
        # Zipf weights: the head dominates, but the tail is visible.
        assert len(seen_types) > 80
        assert big_taxonomy.validate() == []

    def test_classifier_scales_to_many_types(self, big_taxonomy):
        generator = CatalogGenerator(big_taxonomy, seed=2)
        labeled = generator.generate_labeled(4000)
        titles = [example.title for example in labeled]
        labels = [example.label for example in labeled]
        classifier = MultinomialNaiveBayes().fit(titles, labels)
        test = generator.generate_labeled(500)
        predictions = classifier.predict_batch([t.title for t in test])
        accuracy = sum(
            1 for prediction, example in zip(predictions, test)
            if prediction[0].label == example.label
        ) / len(test)
        assert accuracy > 0.8

    def test_rulegen_at_scale(self, big_taxonomy):
        generator = CatalogGenerator(big_taxonomy, seed=3)
        training = generator.generate_labeled(5000)
        result = RuleGenerator(min_support=0.05, q=30).generate(training)
        assert result.types_covered > 60
        assert result.n_selected > 100

    def test_index_handles_ten_thousand_rules(self):
        rng = random.Random(9)
        alphabet = [f"tok{i}" for i in range(2000)]
        rules = [
            SequenceRule((rng.choice(alphabet), rng.choice(alphabet)), f"t{i % 50}")
            for i in range(10_000)
        ]
        generator = CatalogGenerator(build_seed_taxonomy(), seed=4)
        items = generator.generate_items(100)
        fired, stats = CompiledRuleSet(rules).execute(items)
        # Nothing should match (tokens are synthetic), and the index should
        # do almost no work despite 10K rules.
        assert stats.matches == 0
        assert stats.evaluations_per_item < 10

    def test_indexed_equals_naive_at_scale(self, big_taxonomy):
        generator = CatalogGenerator(big_taxonomy, seed=5)
        training = generator.generate_labeled(4000)
        rules = RuleGenerator(min_support=0.1, q=20).generate(training).rules
        items = generator.generate_items(150)
        naive_fired, _ = NaiveExecutor(rules).run(items)
        indexed_fired, _ = CompiledRuleSet(rules).execute(items)
        assert {k: sorted(v) for k, v in naive_fired.items()} == indexed_fired
