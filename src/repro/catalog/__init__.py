"""Synthetic product catalog substrate.

The paper's systems run over Walmart's proprietary catalog: millions of
product items (attribute-value records with a required title), 5,000+
mutually exclusive product types, batches trickling in from thousands of
vendors, with concept drift and shifting type distributions (section 2).

This package is the synthetic equivalent. It generates product items whose
titles have the lexical structure the paper's rules exploit — head nouns
("ring", "area rug"), modifier "synonym" families ("motor oil" vs "engine
oil" vs "car oil"), brand and attribute signals — plus the noise that makes
learning imperfect: ambiguous tokens shared across types, vendor-specific
vocabulary, drift. Every generator is seeded and deterministic.
"""

from repro import lazy_exports
from repro.catalog.batches import Batch, BatchStream
from repro.catalog.generator import CatalogGenerator, LabeledTitle
from repro.catalog.types import ProductItem, ProductType, Taxonomy
from repro.catalog.vocabulary import (
    build_seed_taxonomy,
    synthesize_types,
)

# Read on first access (:func:`repro.lazy_exports`): a served daemon never
# reads these names, so it never compiles their modules.
__getattr__ = lazy_exports(__name__, {
    "drift": ("DriftEvent", "DriftInjector"),
})

__all__ = [
    "Batch",
    "BatchStream",
    "CatalogGenerator",
    "DriftEvent",
    "DriftInjector",
    "LabeledTitle",
    "ProductItem",
    "ProductType",
    "Taxonomy",
    "build_seed_taxonomy",
    "synthesize_types",
]
