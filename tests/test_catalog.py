"""Tests for repro.catalog: types, vocabulary, generator, batches, drift."""

import copy
import pickle
import random
import tracemalloc

import pytest

from repro.catalog import (
    BatchStream,
    CatalogGenerator,
    DriftInjector,
    ProductItem,
    ProductType,
    Taxonomy,
    build_seed_taxonomy,
    synthesize_types,
)
from repro.catalog.batches import VendorProfile
from repro.catalog.generator import LabeledTitle, pluralize
from repro.catalog.types import validate_product_type
from repro.utils.clock import SimClock


class TestProductItem:
    def test_attribute_lookup_case_insensitive(self):
        item = ProductItem(item_id="i1", title="t", attributes={"ISBN": "978"})
        assert item.attribute("isbn") == "978"
        assert item.has_attribute("Isbn")

    def test_attribute_default(self):
        item = ProductItem(item_id="i1", title="t")
        assert item.attribute("color", "none") == "none"


class TestProductType:
    def test_requires_head(self):
        with pytest.raises(ValueError):
            ProductType(name="x", department="d", heads=())

    def test_requires_positive_weight(self):
        with pytest.raises(ValueError):
            ProductType(name="x", department="d", heads=("x",), weight=0)

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf"), "1"])
    def test_requires_finite_weight(self, weight):
        with pytest.raises(ValueError, match="weight"):
            ProductType(name="x", department="d", heads=("x",), weight=weight)

    def test_default_template_is_in_the_grammar(self):
        """The default template once read ``{modifier} {head}``, which no
        placeholder matches: titles came out as ``{modifier} lamps``."""
        lamps = ProductType(name="lamps", department="home", heads=("lamp",))
        assert validate_product_type(lamps) == []
        titles = CatalogGenerator(Taxonomy([lamps]), seed=0, corner_case_rate=0.0).generate_labeled(40)
        assert not any("{" in example.title for example in titles)
        assert all(example.title.split()[-1] in ("lamp", "lamps") for example in titles)

    def test_validate_reports_words_outside_the_grammar(self):
        lamps = ProductType(name="lamps", department="home", heads=("lamp",),
                            modifier_slots={"style": ("desk",)},
                            templates=("{modifier} {head}", "{mod:style} {Head}", "{mod:} {head}"))
        problems = validate_product_type(lamps)
        for word in ("{modifier}", "{Head}", "{mod:}"):
            assert any(f"unknown placeholder {word!r}" in p for p in problems), word
        assert not any("has no placeholders" in p for p in problems)

    def test_slot_lookup_error_names_available(self):
        pt = ProductType(name="x", department="d", heads=("x",),
                         modifier_slots={"style": ("a",)})
        with pytest.raises(KeyError, match="style"):
            pt.slot("nope")

    def test_all_modifiers_deterministic_order(self):
        pt = ProductType(name="x", department="d", heads=("x",),
                         modifier_slots={"b": ("2",), "a": ("1",)})
        assert pt.all_modifiers() == ["1", "2"]


class TestTaxonomy:
    def test_seed_taxonomy_shape(self, taxonomy):
        assert len(taxonomy) >= 45
        assert "rings" in taxonomy
        assert "motor oil" in taxonomy
        assert len(taxonomy.departments()) >= 10

    def test_duplicate_rejected(self, mutable_taxonomy):
        with pytest.raises(ValueError):
            mutable_taxonomy.add(mutable_taxonomy.get("rings"))

    def test_unknown_type_raises(self, taxonomy):
        with pytest.raises(KeyError):
            taxonomy.get("no such type")

    def test_split_type(self, mutable_taxonomy):
        old = mutable_taxonomy.get("work pants")
        removed = mutable_taxonomy.split_type("work pants", [
            ProductType(name="utility pants", department=old.department, heads=old.heads),
            ProductType(name="tactical pants", department=old.department, heads=old.heads),
        ])
        assert removed.name == "work pants"
        assert "work pants" not in mutable_taxonomy
        assert "utility pants" in mutable_taxonomy

    def test_merge_types(self, mutable_taxonomy):
        merged = ProductType(name="footwear", department="clothing", heads=("shoe",))
        removed = mutable_taxonomy.merge_types(["running shoes", "dress shoes"], merged)
        assert len(removed) == 2
        assert "footwear" in mutable_taxonomy

    def test_table1_synonym_families_present(self, taxonomy):
        # The vocabularies behind Table 1 must exist for E1.
        assert "oriental" in taxonomy.get("area rugs").slot("style")
        assert "boxing" in taxonomy.get("athletic gloves").slot("sport")
        assert "carpenter" in taxonomy.get("shorts").slot("style")
        assert "zirconia fiber" in taxonomy.get("abrasive wheels & discs").slot("kind")
        assert len(taxonomy.get("motor oil").slot("vehicle")) == 14


class TestPluralize:
    def test_simple(self):
        assert pluralize("ring") == "rings"

    def test_multiword(self):
        assert pluralize("area rug") == "area rugs"

    def test_already_plural(self):
        assert pluralize("sunglasses") == "sunglasses"


class TestCatalogGenerator:
    def test_deterministic(self, taxonomy):
        a = CatalogGenerator(taxonomy, seed=5).generate_items(50)
        b = CatalogGenerator(taxonomy, seed=5).generate_items(50)
        assert [i.title for i in a] == [i.title for i in b]

    def test_different_seeds_differ(self, taxonomy):
        a = CatalogGenerator(taxonomy, seed=5).generate_items(50)
        b = CatalogGenerator(taxonomy, seed=6).generate_items(50)
        assert [i.title for i in a] != [i.title for i in b]

    def test_true_type_is_known(self, generator):
        for item in generator.generate_items(100):
            assert item.true_type in generator.taxonomy

    def test_specific_type(self, generator):
        item = generator.generate_item("books")
        assert item.true_type == "books"
        assert item.attribute("isbn") is not None

    def test_isbn_format(self, generator):
        isbn = generator.generate_item("books").attribute("isbn")
        assert len(isbn) == 13 and isbn.startswith("978") and isbn.isdigit()

    def test_titles_usually_contain_head(self, generator):
        hits = 0
        for _ in range(100):
            item = generator.generate_item("rings")
            if "ring" in item.title:
                hits += 1
        # Corner cases and traps keep this below 100%, but not by much.
        assert hits >= 80

    def test_weight_override_shifts_distribution(self, taxonomy):
        gen = CatalogGenerator(taxonomy, seed=3)
        for name in taxonomy.type_names:
            gen.set_type_weight(name, 0.0001)
        gen.set_type_weight("books", 1000.0)
        items = gen.generate_items(60)
        assert sum(1 for i in items if i.true_type == "books") >= 55

    def test_weight_override_rejects_unknown(self, generator):
        with pytest.raises(KeyError):
            generator.set_type_weight("nope", 1.0)

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf"), None])
    def test_weight_override_must_be_finite_and_non_negative(self, generator, weight):
        """A NaN override once made every later draw land on one type."""
        with pytest.raises(ValueError, match="weight"):
            generator.set_type_weight("books", weight)
        generator.set_type_weight("books", 0.0)

    @pytest.mark.parametrize("field", ["corner_case_rate", "trap_rate", "plural_rate"])
    @pytest.mark.parametrize("rate", [-1, 1.5, float("nan"), float("inf"), "0.1"])
    def test_rates_must_lie_in_the_unit_interval(self, taxonomy, field, rate):
        with pytest.raises(ValueError, match=field):
            CatalogGenerator(taxonomy, seed=0, **{field: rate})
        CatalogGenerator(taxonomy, seed=0, **{field: 1})

    def test_labeled_title_is_slotted_and_round_trips(self):
        example = LabeledTitle(title="slim denim jeans", label="jeans")
        assert not hasattr(example, "__dict__")
        for twin in (copy.copy(example), pickle.loads(pickle.dumps(example))):
            assert twin == example and hash(twin) == hash(example)

    def test_labeled_matches_truth(self, generator):
        labeled = generator.generate_labeled(20)
        assert all(example.label in generator.taxonomy for example in labeled)

    @pytest.mark.parametrize("seed", [7, 104736])
    def test_labeled_streams_the_items_it_labels(self, taxonomy, seed):
        """The same draws as labelling ``generate_items(count)``, but each
        item is dropped once labelled: 2,000 slotted labels peak at
        ~135 B a label, where holding the items first peaked at ~700."""
        count = 2000
        reference = CatalogGenerator(taxonomy, seed=seed)
        expected = [
            LabeledTitle(title=item.title, label=item.true_type)
            for item in reference.generate_items(count)
        ]
        generator = CatalogGenerator(taxonomy, seed=seed)
        tracemalloc.start()
        try:
            labeled = generator.generate_labeled(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labeled == expected
        assert generator.generate_item() == reference.generate_item()
        assert peak < 200 * count

    def test_description_embeds_attributes(self, generator):
        item = generator.generate_item("smart phones")
        assert "brand:" in item.description.lower()
        storage = item.attribute("storage")
        assert storage in item.description.lower()

    def test_negative_count_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate_items(-1)
        with pytest.raises(ValueError):
            generator.generate_labeled(-1)

    def test_empty_taxonomy_rejected(self):
        with pytest.raises(ValueError):
            CatalogGenerator(Taxonomy(), seed=0)


class TestSynthesizeTypes:
    def test_count_and_uniqueness(self):
        types = synthesize_types(120, random.Random(0))
        assert len(types) == 120
        assert len({t.name for t in types}) == 120

    def test_zipf_weights(self):
        types = synthesize_types(50, random.Random(0))
        assert types[0].weight > types[-1].weight

    def test_rejects_impossible_count(self):
        with pytest.raises(ValueError):
            synthesize_types(10_000_000, random.Random(0))

    def test_can_extend_seed_taxonomy(self, mutable_taxonomy):
        before = len(mutable_taxonomy)
        for product_type in synthesize_types(30, random.Random(1)):
            mutable_taxonomy.add(product_type)
        assert len(mutable_taxonomy) == before + 30
        gen = CatalogGenerator(mutable_taxonomy, seed=0)
        assert len(gen.generate_items(10)) == 10


class TestBatchStream:
    def test_batches_advance_clock(self, generator, clock):
        stream = BatchStream(generator, clock=clock, seed=0)
        batch1 = stream.next_batch()
        batch2 = stream.next_batch()
        assert batch2.arrived_at > batch1.arrived_at
        assert len(batch1) > 0

    def test_vendor_rewrites_apply(self, generator, clock):
        vendor = VendorProfile(name="weird", min_batch=30, max_batch=30,
                               rewrites={"jeans": "dungarees"})
        stream = BatchStream(generator, clock=clock, vendors=[vendor], seed=0)
        batches = [stream.next_batch() for _ in range(10)]
        titles = [i.title for b in batches for i in b.items]
        assert not any("jeans" in t for t in titles)

    def test_department_restriction(self, generator, clock):
        vendor = VendorProfile(name="autoparts", min_batch=20, max_batch=20,
                               departments=("automotive",))
        stream = BatchStream(generator, clock=clock, vendors=[vendor], seed=0)
        batch = stream.next_batch()
        departments = {generator.taxonomy.get(i.true_type).department for i in batch.items}
        assert departments == {"automotive"}

    @pytest.mark.parametrize("sizes, match", [
        ((-5, -1), "min_batch"), ((0, 3), "min_batch"), ((30, 20), "max_batch"),
        ((2.5, 3), "min_batch"),
    ])
    def test_vendor_sizes_are_refused_at_construction(self, sizes, match):
        """Negative sizes once served empty batches, and an empty range
        failed only at the vendor's first batch."""
        with pytest.raises(ValueError, match=match):
            VendorProfile(name="v", min_batch=sizes[0], max_batch=sizes[1])

    def test_unknown_departments_are_refused(self, generator, clock):
        """A vendor of no known department once drew 51 items per item
        served and then served one outside its departments."""
        nowhere = VendorProfile(name="nowhere", departments=("automotive", "gardening"))
        with pytest.raises(ValueError, match="unknown departments \\['gardening'\\]"):
            BatchStream(generator, clock=clock, vendors=[nowhere], seed=0)
        stream = BatchStream(generator, clock=clock, seed=0)
        with pytest.raises(ValueError, match="'nowhere'"):
            stream.add_vendor(nowhere)
        assert len(stream.vendors) == 5

    def test_take(self, generator, clock):
        stream = BatchStream(generator, clock=clock, seed=0)
        assert len(list(stream.take(3))) == 3
        with pytest.raises(ValueError):
            list(stream.take(-1))

    @pytest.mark.parametrize("gap", [0.0, -2.0, float("inf"), float("nan"), "6"])
    def test_mean_gap_must_be_finite_and_positive(self, generator, clock, gap):
        with pytest.raises(ValueError, match="mean_gap_hours"):
            BatchStream(generator, clock=clock, seed=0, mean_gap_hours=gap)

    def test_smallest_spec_gap_serves(self, generator, clock):
        stream = BatchStream(generator, clock=clock, seed=0, mean_gap_hours=0.001)
        assert len(stream.next_batch()) > 0


class TestDriftInjector:
    def test_extend_slot(self, mutable_taxonomy):
        gen = CatalogGenerator(mutable_taxonomy, seed=0)
        drift = DriftInjector(gen, seed=0)
        drift.extend_slot("computer cables", "kind", ["usb-c", "thunderbolt"])
        assert "usb-c" in mutable_taxonomy.get("computer cables").slot("kind")
        assert drift.events[0].kind == "extend_slot"

    def test_replace_slot_requires_known_slot(self, mutable_taxonomy):
        gen = CatalogGenerator(mutable_taxonomy, seed=0)
        drift = DriftInjector(gen, seed=0)
        with pytest.raises(KeyError):
            drift.replace_slot("jeans", "nope", ["x"])

    def test_shift_heads_changes_titles(self, mutable_taxonomy):
        gen = CatalogGenerator(mutable_taxonomy, seed=0)
        DriftInjector(gen, seed=0).shift_head_vocabulary("jeans", ["dungaree"])
        titles = [gen.generate_item("jeans").title for _ in range(40)]
        assert any("dungaree" in t for t in titles)
        assert not any("jean" in t for t in titles)

    def test_surge_department(self, mutable_taxonomy):
        gen = CatalogGenerator(mutable_taxonomy, seed=0)
        drift = DriftInjector(gen, seed=0)
        drift.surge_department("automotive", 50.0)
        items = gen.generate_items(120)
        auto = sum(1 for i in items
                   if mutable_taxonomy.get(i.true_type).department == "automotive")
        assert auto > 60

    def test_split_type_updates_taxonomy(self, mutable_taxonomy):
        gen = CatalogGenerator(mutable_taxonomy, seed=0)
        drift = DriftInjector(gen, seed=0)
        event, replacements = drift.split_type("work pants", {
            "utility pants": ["cargo", "utility"],
            "safety pants": ["flame resistant"],
        })
        assert "work pants" not in mutable_taxonomy
        assert {r.name for r in replacements} == {"utility pants", "safety pants"}
