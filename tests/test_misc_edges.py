"""Edge-case tests rounding out coverage across smaller surfaces."""

import pytest

from repro.catalog import CatalogGenerator
from repro.catalog.types import ProductItem
from repro.catalog.vocabulary import brand_knowledge
from repro.chimera import GateAction, GateKeeper, VotingMaster
from repro.core import Prediction
from repro.crowd import CrowdBudget
from repro.learning import TfidfVectorizer


def item(title, **attributes):
    return ProductItem(item_id=title[:24], title=title, attributes=attributes)


class TestBrandKnowledge:
    def test_matches_taxonomy_brands(self, taxonomy):
        knowledge = brand_knowledge()
        assert "apple" in knowledge
        for brand, types in knowledge.items():
            for type_name in types:
                assert type_name in taxonomy

    def test_returns_copy(self):
        knowledge = brand_knowledge()
        knowledge["apple"] = ()
        assert brand_knowledge()["apple"] != ()


class TestGateKeeperEdges:
    def test_min_title_tokens(self):
        gate = GateKeeper(min_title_tokens=3)
        assert gate.process(item("two words")).action is GateAction.REJECT
        assert gate.process(item("three word title")).action is GateAction.PASS


class TestVotingMasterWeights:
    def test_explicit_weight_overrides_default(self):
        master = VotingMaster(stage_weights={"rule-based": 0.1})
        assert master.weight_for("rule-based") == 0.1
        assert master.weight_for("learning") == 1.0
        assert master.weight_for("unknown-stage") == 1.0

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            VotingMaster(confidence_threshold=1.5)


class TestPredictionValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Prediction("t", weight=-0.1)


class TestBudgetCost:
    def test_cost_per_answer_scales(self):
        budget = CrowdBudget(10, cost_per_answer=2.5)
        budget.charge(4)
        assert budget.spent == 10.0
        assert not budget.can_afford(1)


class TestVectorizerBigrams:
    def test_bigram_channel_separates_phrases(self):
        titles = ["wedding band gold", "rubber band pack",
                  "wedding ring", "band practice"]
        with_bigrams = TfidfVectorizer(use_bigrams=True).fit(titles)
        without = TfidfVectorizer(use_bigrams=False).fit(titles)
        assert "wedding_band" in with_bigrams.vocabulary
        assert "wedding_band" not in without.vocabulary
        assert with_bigrams.n_features > without.n_features


class TestGeneratorRates:
    def test_corner_case_rate_roughly_respected(self, taxonomy):
        generator = CatalogGenerator(taxonomy, seed=91, corner_case_rate=0.5,
                                     trap_rate=0.0)
        titles = [generator.generate_title(taxonomy.get("rings"))
                  for _ in range(300)]
        # Corner-case ring titles omit the head noun entirely.
        cornered = sum(1 for title in titles if "ring" not in title)
        assert 0.3 < cornered / len(titles) < 0.7

    def test_zero_rates_disable_features(self, taxonomy):
        generator = CatalogGenerator(taxonomy, seed=92, corner_case_rate=0.0,
                                     trap_rate=0.0)
        titles = [generator.generate_title(taxonomy.get("oil filters"))
                  for _ in range(100)]
        assert all("oil filter" in title for title in titles)
