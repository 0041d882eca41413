"""The catalog makes exactly the draws it made when it built every item in
full.

:class:`~repro.catalog.generator.CatalogGenerator` splits an item into its
draws (:meth:`draw`) and their formatting (:meth:`render`), and formats
only the items it keeps; ``tests/catalog_reference.py`` is the generator
that built and dropped each one. A hypothesis property drives both
through the same script — seeds, the seed taxonomy plus synthesized
types, weight overrides, drift (extend / replace a slot, shift heads,
split a type, with or without the scenario runner's template repair),
template edits, vendors restricted to departments — and after every step
holds ``generate_items``, ``generate_labeled``, the stream's batches, the
error a step raised (an unknown ``{mod:slot}`` raises at the same draw)
and both RNG states equal.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import BatchStream, CatalogGenerator, DriftInjector, build_seed_taxonomy
from repro.catalog.batches import VendorProfile
from repro.catalog.types import parse_template
from repro.catalog.vocabulary import synthesize_types
from repro.scenario.runner import _safe_templates
from tests import catalog_reference as reference

PHRASES = ["usb-c", "thunderbolt", "retro", "  spaced  out ", "café", "x/y", "tvs"]

TEMPLATES = [
    "{mod} {head}",
    "{brand}  {mod:style} {head} {detail}",
    "{detail} {head}\t{mod:gone}",
    "{head} {modifier}",
    "{{head}} {mod:} {brand}",
    "no placeholders at all",
]

steps = st.lists(
    st.one_of(
        st.tuples(st.just("items"), st.integers(0, 30)),
        st.tuples(st.just("labeled"), st.integers(0, 30)),
        st.tuples(st.just("batch"), st.integers(0, 3)),
        st.tuples(st.just("weight"), st.integers(0, 99), st.sampled_from([0.0, 0.5, 3.0, 40.0])),
        st.tuples(st.just("extend_slot"), st.integers(0, 99), st.sampled_from(["style", "kind", "new"]),
                  st.lists(st.sampled_from(PHRASES), min_size=1, max_size=3)),
        st.tuples(st.just("replace_slot"), st.integers(0, 99), st.integers(0, 9),
                  st.lists(st.sampled_from(PHRASES), min_size=1, max_size=3)),
        st.tuples(st.just("shift_heads"), st.integers(0, 99),
                  st.lists(st.sampled_from(["dungaree", "thing", "wid get", "box"]), min_size=1, max_size=3)),
        st.tuples(st.just("split"), st.integers(0, 99), st.booleans()),
        st.tuples(st.just("templates"), st.integers(0, 99),
                  st.lists(st.sampled_from(TEMPLATES), min_size=1, max_size=3), st.booleans()),
    ),
    max_size=12,
)


class World:
    """One generator (new or reference), its drift injector and its stream."""

    def __init__(self, generator_cls, stream_cls, seed: int, extra: int, departments):
        taxonomy = build_seed_taxonomy()
        for product_type in synthesize_types(extra, random.Random(seed)):
            taxonomy.add(product_type)
        self.generator = generator_cls(taxonomy, seed=seed)
        self.drift = DriftInjector(self.generator, seed=seed)
        vendors = [
            VendorProfile("generalist", min_batch=5, max_batch=20),
            VendorProfile("specialist", min_batch=5, max_batch=20, departments=tuple(departments)),
            VendorProfile("rewriter", min_batch=1, max_batch=9, rewrites={"ring": "band", "s": "z"}),
        ]
        self.stream = stream_cls(self.generator, vendors=vendors, seed=seed + 1, mean_gap_hours=3.0)

    def _type(self, index: int):
        names = self.generator.taxonomy.type_names
        return self.generator.taxonomy.get(names[index % len(names)])

    def step(self, step):
        """Run one step; returns what it produced or the error it raised."""
        kind = step[0]
        try:
            if kind == "items":
                return self.generator.generate_items(step[1])
            if kind == "labeled":
                return [(pair.title, pair.label) for pair in self.generator.generate_labeled(step[1])]
            if kind == "batch":
                vendors = self.stream.vendors
                return self.stream.next_batch(vendors[step[1]] if step[1] < len(vendors) else None)
            product_type = self._type(step[1])
            if kind == "weight":
                self.generator.set_type_weight(product_type.name, step[2])
            elif kind == "extend_slot":
                self.drift.extend_slot(product_type.name, step[2], step[3])
            elif kind == "replace_slot":
                slots = sorted(product_type.modifier_slots)
                if slots:
                    self.drift.replace_slot(product_type.name, slots[step[2] % len(slots)], step[3])
            elif kind == "shift_heads":
                self.drift.shift_head_vocabulary(product_type.name, step[2])
            elif kind == "split":
                _event, replacements = self.drift.split_type(
                    product_type.name,
                    {f"{product_type.name} a": ["left"], f"{product_type.name} b": ["right", "retro"]},
                )
                if step[2]:
                    for replacement in replacements:
                        replacement.templates = _safe_templates(replacement)
            elif kind == "templates":
                product_type.templates = tuple(step[2])
                if step[3]:
                    product_type.templates = _safe_templates(product_type)
            return None
        except (KeyError, ValueError) as error:
            return (type(error).__name__, str(error))

    def state(self):
        return (
            self.generator.rng.getstate(),
            self.generator._next_id,
            self.stream.rng.getstate(),
            self.stream.clock.now,
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 12),
    department_picks=st.lists(st.integers(0, 99), min_size=1, max_size=2),
    script=steps,
)
def test_catalog_equals_the_reference(seed, extra, department_picks, script):
    departments = build_seed_taxonomy().departments()
    chosen = sorted({departments[pick % len(departments)] for pick in department_picks})
    new = World(CatalogGenerator, BatchStream, seed, extra, chosen)
    old = World(reference.CatalogGenerator, reference.ReferenceBatchStream, seed, extra, chosen)
    for step in script + [("items", 8), ("labeled", 8), ("batch", 1), ("batch", 3)]:
        assert new.step(step) == old.step(step), step
        assert new.state() == old.state(), step


def _has_bare_mod(product_type) -> bool:
    return bool(product_type.modifier_slots) and any(
        kind == "mod" and slot is None
        for template in product_type.templates
        for _literal, kind, slot in parse_template(template)[0]
    )


def test_a_slot_added_in_place_is_drawn_at_once():
    """The generator sorts a type's slot names once per taxonomy version
    and every drift edit bumps it: a slot added after the sort is one of
    a bare ``{mod}``'s choices at the next title, as in the reference."""
    departments = build_seed_taxonomy().departments()[:1]
    new = World(CatalogGenerator, BatchStream, 5, 0, departments)
    old = World(reference.CatalogGenerator, reference.ReferenceBatchStream, 5, 0, departments)
    name = next(t.name for t in new.generator.taxonomy if _has_bare_mod(t))
    titles = []
    for world in (new, old):
        product_type = world.generator.taxonomy.get(name)
        before = [world.generator.generate_title(product_type) for _ in range(20)]
        world.drift.extend_slot(name, "zz-new", ["zzquux"])
        after = [world.generator.generate_title(product_type) for _ in range(200)]
        titles.append((before, after))
    assert titles[0] == titles[1]
    assert any("zzquux" in title for title in titles[0][1])
