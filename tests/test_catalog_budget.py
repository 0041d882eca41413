"""A host-independent work budget for the catalog layer.

``sys.setprofile`` counts the Python and C calls the seed-7 generator
makes for 4,000 labeled titles and, from a fresh generator, for 4,000
items, after every template of the taxonomy is parsed and one item warms
the sampling table. Most of either figure is ``random``'s own calls (a
``choice`` is five); the rest is the catalog's. A labeled title is a
draw and nothing else — no description, no record — and a template is
parsed once, not matched by a regex per title, so each figure sits well
under what building and dropping every item read (108.8 per labeled
title, 106.8 per item).
"""

import sys

import pytest

from repro.catalog import CatalogGenerator, build_seed_taxonomy
from repro.catalog.types import parse_template
from repro.testing.budgets import CATALOG_CALLS

pytestmark = pytest.mark.gates

COUNT = 4_000


def calls_per_unit(make):
    """Interpreter calls per unit of ``make(generator, COUNT)``."""
    taxonomy = build_seed_taxonomy()
    for product_type in taxonomy:
        for template in product_type.templates:
            parse_template(template)
    generator = CatalogGenerator(taxonomy, seed=7)
    generator.generate_item()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        made = make(generator, COUNT)
    finally:
        sys.setprofile(None)
    assert len(made) == COUNT
    return calls / COUNT


@pytest.mark.parametrize(
    "unit, make",
    [
        ("labeled", lambda generator, n: generator.generate_labeled(n)),
        ("item", lambda generator, n: generator.generate_items(n)),
    ],
)
def test_calls_per_generated_unit_within_budget(unit, make):
    calls = calls_per_unit(make)
    assert calls <= CATALOG_CALLS[unit], f"{calls:.1f} calls per {unit}"
