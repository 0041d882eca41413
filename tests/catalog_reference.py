"""The catalog generator as it was before items were split into draws and
formatting, kept verbatim as an oracle.

:class:`CatalogGenerator` below builds every item in full (title by
``re.sub`` over the template each time, description, record) and drops
what it does not keep; :class:`ReferenceBatchStream` is the batch loop
that resampled a department-restricted vendor's items with
``generate_item``. ``tests/test_catalog_oracle.py`` holds
:mod:`repro.catalog` to the same items, labeled titles, batches and RNG
states.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.batches import Batch, BatchStream, VendorProfile
from repro.catalog.types import ProductItem, ProductType, Taxonomy
from repro.catalog.vocabulary import COLORS, GENERIC_BRANDS, MARKETING, SIZES

_PLACEHOLDER = re.compile(r"\{(brand|head|detail|mod(?::(\w+))?)\}")


@dataclass(frozen=True)
class LabeledTitle:
    """A (title, type) pair — the unit of training data in sections 3 and 5.2."""

    __slots__ = ("title", "label")
    title: str
    label: str

    def __reduce__(self):
        # A frozen instance refuses the attribute writes that restoring
        # slot state makes, so copy and pickle rebuild it from its fields.
        return LabeledTitle, (self.title, self.label)


def pluralize(phrase: str) -> str:
    """Pluralize the final word of a head-noun phrase.

    >>> pluralize("area rug")
    'area rugs'
    >>> pluralize("disc")
    'discs'
    """
    if phrase.endswith(("s", "x", "ch", "sh")):
        return phrase + "es" if not phrase.endswith("s") else phrase
    return phrase + "s"


class CatalogGenerator:
    """Generates product items for a taxonomy, deterministically per seed."""

    def __init__(
        self,
        taxonomy: Taxonomy,
        seed: int = 0,
        corner_case_rate: float = 0.03,
        trap_rate: float = 0.08,
        plural_rate: float = 0.45,
    ):
        if len(taxonomy) == 0:
            raise ValueError("cannot generate items for an empty taxonomy")
        self.taxonomy = taxonomy
        self.rng = random.Random(seed)
        self.corner_case_rate = corner_case_rate
        self.trap_rate = trap_rate
        self.plural_rate = plural_rate
        self._next_id = 0
        self._weight_overrides: Dict[str, float] = {}
        # (taxonomy version, types, cumulative weights, total) — see
        # _sample_type; None until first use and after set_type_weight.
        self._sampling_table: Optional[
            Tuple[int, List[ProductType], List[float], float]
        ] = None

    # -- distribution control (drift injectors use these) --------------------

    def set_type_weight(self, type_name: str, weight: float) -> None:
        """Override a type's sampling weight (distribution shift, section 2.2)."""
        if type_name not in self.taxonomy:
            raise KeyError(f"unknown product type {type_name!r}")
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        self._weight_overrides[type_name] = weight
        self._sampling_table = None

    def effective_weight(self, product_type: ProductType) -> float:
        return self._weight_overrides.get(product_type.name, product_type.weight)

    # -- generation -----------------------------------------------------------

    def generate_item(
        self,
        type_name: Optional[str] = None,
        vendor: str = "vendor-000",
    ) -> ProductItem:
        """Generate one item, of a sampled type unless ``type_name`` is given."""
        if type_name is None:
            product_type = self._sample_type()
        else:
            product_type = self.taxonomy.get(type_name)
        title = self.generate_title(product_type)
        attributes = self._generate_attributes(product_type, title)
        description = self._generate_description(product_type, title, attributes)
        self._next_id += 1
        return ProductItem(
            item_id=f"item-{self._next_id:08d}",
            title=title,
            attributes=attributes,
            true_type=product_type.name,
            vendor=vendor,
            description=description,
        )

    def generate_items(self, count: int, vendor: str = "vendor-000") -> List[ProductItem]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.generate_item(vendor=vendor) for _ in range(count)]

    def generate_labeled(self, count: int) -> List[LabeledTitle]:
        """Labeled (title, type) pairs, as used for training data in section 5.2.

        Each item is generated and dropped in turn (the same draws as
        ``generate_items(count)``), so only the two kept fields pile up.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        labeled = []
        for _ in range(count):
            item = self.generate_item()
            labeled.append(LabeledTitle(title=item.title, label=item.true_type))
        return labeled

    def stream(self, vendor: str = "vendor-000") -> Iterator[ProductItem]:
        """An endless item stream ("never ending data", section 2.2)."""
        while True:
            yield self.generate_item(vendor=vendor)

    def generate_title(self, product_type: ProductType) -> str:
        """Render one title from the type's templates (or a corner case)."""
        roll = self.rng.random()
        if product_type.trap_phrases and roll < self.trap_rate:
            return self._decorate(self.rng.choice(product_type.trap_phrases))
        if roll > 1.0 - self.corner_case_rate:
            return self._corner_case_title(product_type)
        template = self.rng.choice(product_type.templates)
        title = _PLACEHOLDER.sub(
            lambda match: self._fill(match, product_type), template
        )
        return re.sub(r"\s+", " ", title).strip()

    # -- internals ------------------------------------------------------------

    def _sample_type(self) -> ProductType:
        """One weighted draw, O(log types).

        The table of left-to-right partial sums is rebuilt only when the
        taxonomy's type set or a weight override changes; the first type
        whose partial sum reaches ``pick`` is ``bisect_left``'s answer.
        """
        table = self._sampling_table
        if table is None or table[0] != self.taxonomy.version:
            types = list(self.taxonomy)
            weights = [self.effective_weight(t) for t in types]
            table = self._sampling_table = (
                self.taxonomy.version, types, list(accumulate(weights)), sum(weights)
            )
        _, types, cumulative, total = table
        if total <= 0:
            raise ValueError("all type weights are zero; nothing to sample")
        pick = self.rng.random() * total
        return types[min(bisect_left(cumulative, pick), len(types) - 1)]

    def _fill(self, match: re.Match, product_type: ProductType) -> str:
        kind = match.group(1)
        if kind == "head":
            head = self.rng.choice(product_type.heads)
            if self.rng.random() < self.plural_rate:
                head = pluralize(head)
            return head
        if kind == "brand":
            pool = product_type.brands or GENERIC_BRANDS
            return self.rng.choice(pool)
        if kind == "detail":
            pool = self.rng.choice((SIZES, COLORS, MARKETING))
            return self.rng.choice(pool)
        # {mod} or {mod:slot}
        slot_name = match.group(2)
        if not product_type.modifier_slots:
            return self.rng.choice(COLORS)
        if slot_name is None:
            slot_name = self.rng.choice(sorted(product_type.modifier_slots))
        return self.rng.choice(product_type.slot(slot_name))

    def _corner_case_title(self, product_type: ProductType) -> str:
        """A title without the head noun — hard for rules and learning alike."""
        pieces = []
        if product_type.brands:
            pieces.append(self.rng.choice(product_type.brands))
        modifiers = product_type.all_modifiers()
        if modifiers:
            pieces.append(self.rng.choice(modifiers))
        pieces.append(self.rng.choice(MARKETING))
        pieces.append(self.rng.choice(SIZES))
        return " ".join(pieces)

    def _decorate(self, phrase: str) -> str:
        return f"{phrase} {self.rng.choice(MARKETING)}"

    def _generate_attributes(self, product_type: ProductType, title: str) -> Dict[str, str]:
        attributes: Dict[str, str] = {}
        for name, kind in sorted(product_type.attribute_kinds.items()):
            attributes[name] = self._attribute_value(kind, product_type, title)
        return attributes

    def _attribute_value(self, kind: str, product_type: ProductType, title: str) -> str:
        rng = self.rng
        if kind == "isbn":
            return "978" + "".join(str(rng.randint(0, 9)) for _ in range(10))
        if kind == "brand":
            for brand in product_type.brands:
                if brand in title:
                    return brand
            return rng.choice(product_type.brands or GENERIC_BRANDS)
        if kind == "size":
            return rng.choice(SIZES)
        if kind == "color":
            return rng.choice(COLORS)
        if kind == "count":
            return str(rng.randint(20, 900))
        if kind == "volume":
            return rng.choice(("1 quart", "5 quart", "500 ml", "1 gallon"))
        if kind == "weight":
            return f"{rng.randint(1, 50)} lbs"
        if kind == "capacity":
            return rng.choice(("32gb", "64gb", "128gb", "256gb"))
        if kind == "person":
            first = rng.choice(("alex", "jordan", "sam", "casey", "morgan", "riley"))
            last = rng.choice(("lee", "patel", "garcia", "nguyen", "smith", "okafor"))
            return f"{first} {last}"
        if kind == "material":
            return rng.choice(("gold", "silver", "steel", "leather", "cotton"))
        if kind == "metal":
            return rng.choice(("gold", "white gold", "silver", "platinum", "titanium"))
        raise ValueError(f"unknown attribute kind {kind!r} on type {product_type.name!r}")

    def _generate_description(
        self, product_type: ProductType, title: str, attributes: Dict[str, str]
    ) -> str:
        sentences = [f"{title}."]
        brand = attributes.get("brand_name")
        if brand is None and product_type.brands:
            brand = self.rng.choice(product_type.brands)
        if brand:
            sentences.append(f"Brand: {brand}.")
        color = attributes.get("color") or self.rng.choice(COLORS)
        sentences.append(f"Color: {color}.")
        weight = attributes.get("weight") or f"{self.rng.randint(1, 40)} lbs"
        sentences.append(f"Item weight: {weight}.")
        # Vendor descriptions spell out the remaining specs.
        for name in sorted(attributes):
            if name in ("brand_name", "color", "weight"):
                continue
            label = name.replace("_", " ")
            sentences.append(f"{label.capitalize()}: {attributes[name]}.")
        sentences.append(f"A quality {product_type.name} product from the {product_type.department} department.")
        return " ".join(sentences)


class ReferenceBatchStream(BatchStream):
    """:class:`~repro.catalog.batches.BatchStream` with the batch loop it
    had, over a reference :class:`CatalogGenerator`."""

    def next_batch(self, vendor: Optional[VendorProfile] = None) -> Batch:
        """Advance the clock and produce the next batch."""
        gap = self.rng.expovariate(1.0 / self.mean_gap_hours)
        self.clock.advance(hours=gap)
        profile = vendor if vendor is not None else self.rng.choice(self.vendors)
        size = self.rng.randint(profile.min_batch, profile.max_batch)
        items = []
        for _ in range(size):
            item = self.generator.generate_item(vendor=profile.name)
            if profile.departments:
                # Resample until the item is in the vendor's departments;
                # bounded so a misconfigured vendor cannot loop forever.
                for _attempt in range(50):
                    if self.generator.taxonomy.get(item.true_type).department in profile.departments:
                        break
                    item = self.generator.generate_item(vendor=profile.name)
            items.append(profile.apply_rewrites(item))
        self._next_batch += 1
        return Batch(
            batch_id=f"batch-{self._next_batch:05d}",
            vendor=profile.name,
            arrived_at=self.clock.now,
            items=tuple(items),
        )
