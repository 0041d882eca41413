"""Tests for classification explanations and taxonomy validation."""

import pytest

from repro.catalog.types import ProductItem, ProductType, Taxonomy
from repro.catalog.types import validate_product_type
from repro.core import RuleSet, explain_verdict, parse_rules


def item(title, **attributes):
    return ProductItem(item_id=title[:24], title=title, attributes=attributes)


@pytest.fixture()
def ruleset():
    return RuleSet(parse_rules("""
        rings? -> rings
        key rings? -> NOT rings
        value(brand_name)=apple -> laptop computers|smart phones
        laptops? -> laptop computers
    """))


class TestExplainVerdict:
    def test_whitelist_assertion_explained(self, ruleset):
        explanation = explain_verdict(ruleset, item("gold diamond ring"))
        assert explanation.outcome == "rings"
        assert len(explanation.steps) == 1
        assert explanation.steps[0].kind == "whitelist"
        assert "asserted 'rings'" in explanation.steps[0].effect

    def test_veto_explained(self, ruleset):
        explanation = explain_verdict(ruleset, item("retractable key ring"))
        assert explanation.outcome is None
        kinds = [step.kind for step in explanation.steps]
        assert "whitelist" in kinds and "blacklist" in kinds
        whitelist_step = next(s for s in explanation.steps if s.kind == "whitelist")
        assert "later vetoed" in whitelist_step.effect

    def test_constraint_explained(self, ruleset):
        explanation = explain_verdict(
            ruleset, item("apple ring laptop", brand_name="apple"))
        constraint_steps = [s for s in explanation.steps if s.kind == "constraint"]
        assert constraint_steps
        assert "laptop computers" in constraint_steps[0].effect
        ring_step = next(s for s in explanation.steps
                         if s.kind == "whitelist" and "'rings'" in s.effect)
        assert "dropped by a constraint" in ring_step.effect

    def test_no_rules_fired(self, ruleset):
        explanation = explain_verdict(ruleset, item("garden hose"))
        assert explanation.steps == []
        assert "no rule fired" in explanation.render()

    def test_render_is_complete(self, ruleset):
        rendered = explain_verdict(ruleset, item("gold ring")).render()
        assert "outcome: rings" in rendered
        assert "[whitelist]" in rendered


class TestChimeraExplain:
    def test_pipeline_explanation(self, generator):
        from repro.chimera import Chimera
        from repro.core import parse_rules as parse

        chimera = Chimera.build(seed=0)
        chimera.add_whitelist_rules(parse("rings? -> rings"))
        chimera.add_blacklist_rules(parse("key rings? -> NOT rings"))
        chimera.add_training(generator.generate_labeled(800))
        chimera.retrain(min_examples_per_type=3)

        text = chimera.explain_item(item("sapphire gold ring"))
        assert "stage rule-based" in text
        assert "final: rings" in text

        trap = chimera.explain_item(item("retractable key ring"))
        assert "filter vetoes" in trap
        assert "final: rings" not in trap


    def test_explaining_is_read_only(self):
        """With quality telemetry on, an explanation records no provenance,
        feeds no health window and leaves no stage trace behind."""
        from repro.chimera import Chimera
        from repro.core import parse_rules as parse

        chimera = Chimera.build(seed=0)
        # The rule stage's own constraint drops its "rings" vote and must
        # not reach across to the attribute stage's "books".
        chimera.add_whitelist_rules(parse(
            "rings? -> rings\nvalue(brand)=acme -> laptop computers|smart phones"
        ))
        chimera.add_attribute_rules(parse("attr(isbn) -> books"))
        chimera.add_blacklist_rules(parse("key rings? -> NOT rings"))
        chimera.enable_quality_telemetry()
        provenance, tracker = chimera.provenance, chimera.rule_health
        ring = item("gold ring", isbn="978", brand="acme")
        assert chimera.classify_batch([ring]).results[0].label == "books"
        records = provenance.total_records
        windows = tracker.state_dict()
        health = chimera.health_report()

        text = chimera.explain_item(ring)
        assert "final: books" in text and "stage attr-value" in text
        assert chimera.explain_item(item("retractable key ring")).endswith(
            "final: unclassified"
        )

        assert provenance.total_records == records == 1
        assert tracker.state_dict() == windows
        assert chimera.health_report() == health

    @pytest.mark.parametrize("learning", [True, False], ids=["learning", "no-learning"])
    def test_the_explanation_ends_in_the_label_classify_gives(self, learning):
        """``explain_item`` decides gate, stages, vote and filter again,
        outside the batch path: over a served world's first six batches,
        with a killed type and a suppressed one, its last line names the
        label ``classify_item`` gives, its ``gate:`` line the gate decision
        the item's provenance record holds and, for an item the gate passed
        that got a vote, its ``filter vetoes:`` line the record's
        ``filter_vetoed``."""
        from repro.observability.provenance import ProvenanceLog
        from repro.world import RunIds, build_world

        world = build_world(7, RunIds("svc"), training=120, min_examples=2, mean_gap_hours=6.0)
        chimera = world.chimera
        chimera.add_whitelist_rules(world.startup_rules)
        chimera.filter.kill_type("rings")
        chimera.voting.suppressed_types.add("jeans")
        chimera.learning_stage.suppressed_types.add("jeans")
        chimera.learning_stage.enabled = learning
        chimera.enable_quality_telemetry(ProvenanceLog(capacity=1))
        mismatches, seen, vetoing = [], 0, 0
        for _ in range(6):
            batch = world.stream.next_batch()
            chimera.engine.add_items(batch.items)
            for product in batch.items:
                result = chimera.classify_item(product)
                (record,) = chimera.provenance.records
                lines = chimera.explain_item(product).split("\n")
                expected = [
                    f"gate: {record.gate_action}"
                    + (f" ({record.gate_reason})" if record.gate_reason else ""),
                    f"final: {(result and result.label) or 'unclassified'}",
                ]
                got = [lines[0], lines[-1]]
                if record.gate_action == "pass" and record.ranked:
                    vetoes = [line for line in lines if line.startswith("filter vetoes: ")]
                    expected.append(
                        [f"filter vetoes: {list(record.filter_vetoed)}"]
                        if record.filter_vetoed else []
                    )
                    got.append(vetoes)
                    vetoing += bool(record.filter_vetoed)
                if got != expected:
                    mismatches.append((product.item_id, got, expected))
                seen += 1
        assert seen > 600 and vetoing and not mismatches, mismatches[:5]


class TestTaxonomyValidation:
    def test_seed_taxonomy_is_clean(self, taxonomy):
        assert taxonomy.validate() == []

    def test_missing_slot_reported(self):
        bad = ProductType(
            name="widgets", department="d", heads=("widget",),
            modifier_slots={"style": ("neat",)},
            templates=("{mod:nonexistent} {head}",),
        )
        problems = validate_product_type(bad)
        assert any("missing slot 'nonexistent'" in p for p in problems)

    def test_placeholder_free_template_reported(self):
        bad = ProductType(
            name="widgets", department="d", heads=("widget",),
            templates=("just words",),
        )
        problems = validate_product_type(bad)
        assert any("no placeholders" in p for p in problems)

    def test_empty_phrase_reported(self):
        bad = ProductType(
            name="widgets", department="d", heads=("widget",),
            modifier_slots={"style": ("",)},
        )
        problems = validate_product_type(bad)
        assert any("empty phrase" in p for p in problems)

    def test_taxonomy_validate_aggregates(self):
        taxonomy = Taxonomy([
            ProductType(name="ok", department="d", heads=("thing",)),
            ProductType(name="bad", department="d", heads=("x",),
                        templates=("{mod:gone} {head}",)),
        ])
        problems = taxonomy.validate()
        assert len(problems) == 1 and problems[0].startswith("bad:")
