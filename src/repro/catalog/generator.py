"""Seeded product-item generator.

Turns a :class:`~repro.catalog.types.Taxonomy` into streams of
:class:`~repro.catalog.types.ProductItem` records whose titles follow each
type's templates. The generator deliberately produces the difficulties the
paper describes:

* **corner cases** — a small fraction of titles omit the head noun entirely,
  so neither simple rules nor learning can classify them confidently
  (section 3.2, "Covering 'Corner Cases'");
* **traps** — some types emit titles containing another type's signature
  phrase ("engine oil filter", "key ring"), which is what forces blacklist
  rules;
* **skew** — type weights make some types head and some tail.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.catalog.types import ProductItem, ProductType, Taxonomy, parse_template
from repro.catalog.vocabulary import COLORS, GENERIC_BRANDS, MARKETING, SIZES


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


#: A type's sorted attribute ``(name, kind)`` pairs and sorted slot names.
_Layout = Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]]


class ItemDraw(NamedTuple):
    """Every random choice behind one item, before any of it is formatted.

    ``number`` is the item's place in the generator's id sequence (a draw
    consumes its id whether or not the item is kept); ``brand``, ``color``
    and ``weight`` are the description's own draws, each ``None`` when an
    attribute supplies it (``brand`` also when the type has no brands).
    """

    number: int
    product_type: ProductType
    title: str
    attributes: Dict[str, str]
    brand: Optional[str]
    color: Optional[str]
    weight: Optional[int]


def _check_rate(name: str, value: float) -> float:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    return value


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
        self.corner_case_rate = _check_rate("corner_case_rate", corner_case_rate)
        self.trap_rate = _check_rate("trap_rate", trap_rate)
        self.plural_rate = _check_rate("plural_rate", plural_rate)
        self._next_id = 0
        self._weight_overrides: Dict[str, float] = {}
        # (taxonomy version, types, cumulative weights, total) — see
        # _sample_type; None until first use and after set_type_weight.
        self._sampling_table: Optional[
            Tuple[int, List[ProductType], List[float], float]
        ] = None
        # (taxonomy version, type name -> layout) — see _layout.
        self._layouts: Tuple[int, Dict[str, _Layout]] = (-1, {})

    # -- distribution control (drift injectors use these) --------------------

    def set_type_weight(self, type_name: str, weight: float) -> None:
        """Override a type's sampling weight (distribution shift, section 2.2)."""
        if type_name not in self.taxonomy:
            raise KeyError(f"unknown product type {type_name!r}")
        if not (isinstance(weight, (int, float)) and math.isfinite(weight) and weight >= 0):
            raise ValueError(f"weight must be a finite number >= 0, got {weight!r}")
        self._weight_overrides[type_name] = weight
        self._sampling_table = None

    def effective_weight(self, product_type: ProductType) -> float:
        return self._weight_overrides.get(product_type.name, product_type.weight)

    # -- generation -----------------------------------------------------------

    def draw(self, type_name: Optional[str] = None) -> ItemDraw:
        """Make every random choice of one item, of a sampled type unless
        ``type_name`` is given, and consume its id; format nothing.

        The order is fixed: type, title, attributes, then the
        description's brand, color and weight. :meth:`render` turns a
        draw into the item, so a caller that keeps only some draws (or
        only their titles) pays the formatting for those alone.
        """
        if type_name is None:
            product_type = self._sample_type()
        else:
            product_type = self.taxonomy.get(type_name)
        rng = self.rng
        kinds, slot_names = self._layout(product_type)
        title = self._title(product_type, slot_names)
        attributes: Dict[str, str] = {}
        attribute_value = self._attribute_value
        for name, kind in kinds:
            attributes[name] = attribute_value(kind, product_type, title)
        brand = color = weight = None
        if "brand_name" not in attributes and product_type.brands:
            brand = rng.choice(product_type.brands)
        if not attributes.get("color"):
            color = rng.choice(COLORS)
        if not attributes.get("weight"):
            weight = rng.randint(1, 40)
        self._next_id += 1
        return ItemDraw(self._next_id, product_type, title, attributes, brand, color, weight)

    def render(self, draw: ItemDraw, vendor: str = "vendor-000") -> ProductItem:
        """The item a draw stands for: its id, description and record."""
        product_type = draw.product_type
        return ProductItem(
            item_id=f"item-{draw.number:08d}",
            title=draw.title,
            attributes=draw.attributes,
            true_type=product_type.name,
            vendor=vendor,
            description=_describe(draw),
        )

    def generate_item(
        self,
        type_name: Optional[str] = None,
        vendor: str = "vendor-000",
    ) -> ProductItem:
        """Generate one item, of a sampled type unless ``type_name`` is given."""
        return self.render(self.draw(type_name), vendor)

    def generate_items(self, count: int, vendor: str = "vendor-000") -> List[ProductItem]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        render, draw = self.render, self.draw
        return [render(draw(), vendor) for _ in range(count)]

    def generate_labeled(self, count: int) -> List[LabeledTitle]:
        """Labeled (title, type) pairs, as used for training data in section 5.2.

        Each pair is one :meth:`draw` — the same draws and ids as
        ``generate_items(count)`` — of which only the title and the type
        name are kept; nothing is formatted.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        draw = self.draw
        labeled = []
        for _ in range(count):
            drawn = draw()
            labeled.append(LabeledTitle(drawn.title, drawn.product_type.name))
        return labeled

    def stream(self, vendor: str = "vendor-000") -> Iterator[ProductItem]:
        """An endless item stream ("never ending data", section 2.2)."""
        while True:
            yield self.generate_item(vendor=vendor)

    def generate_title(self, product_type: ProductType) -> str:
        """Render one title from the type's templates (or a corner case).

        A template is parsed once (:func:`~repro.catalog.types.parse_template`);
        its placeholders are filled left to right, and whitespace runs in
        the result collapse to one space, ends trimmed.
        """
        return self._title(product_type, self._layout(product_type)[1])

    def _title(self, product_type: ProductType, slot_names: Tuple[str, ...]) -> str:
        """:meth:`generate_title`, given the type's sorted slot names."""
        rng = self.rng
        choice = rng.choice
        roll = rng.random()
        if product_type.trap_phrases and roll < self.trap_rate:
            return self._decorate(choice(product_type.trap_phrases))
        if roll > 1.0 - self.corner_case_rate:
            return self._corner_case_title(product_type)
        placeholders, tail, _unknown = parse_template(choice(product_type.templates))
        slots = product_type.modifier_slots
        title = ""
        for literal, kind, slot in placeholders:
            title += literal
            if kind == "head":
                head = choice(product_type.heads)
                if rng.random() < self.plural_rate:
                    head = pluralize(head)
                title += head
            elif kind == "brand":
                title += choice(product_type.brands or GENERIC_BRANDS)
            elif kind == "detail":
                title += choice(choice((SIZES, COLORS, MARKETING)))
            elif not slots:  # {mod} or {mod:slot}
                title += choice(COLORS)
            else:
                if slot is None:
                    slot = choice(slot_names)
                try:
                    phrases = slots[slot]
                except KeyError:
                    product_type.slot(slot)  # raises, naming the type's slots
                title += choice(phrases)
        return " ".join((title + tail).split())

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

    def _layout(self, product_type: ProductType) -> _Layout:
        """The type's attribute ``(name, kind)`` pairs and its modifier slot
        names, each sorted once, not per item: cached until the taxonomy's
        version moves (adding or removing a type, or a drift edit of one,
        bumps it)."""
        version, layouts = self._layouts
        if version != self.taxonomy.version:
            layouts = {}
            self._layouts = (self.taxonomy.version, layouts)
        try:
            return layouts[product_type.name]
        except KeyError:
            layout = layouts[product_type.name] = (
                tuple(sorted(product_type.attribute_kinds.items())),
                tuple(sorted(product_type.modifier_slots)),
            )
            return layout

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


def _describe(draw: ItemDraw) -> str:
    """The vendor description of a drawn item: its title, brand, color and
    weight, the remaining specs, and a closing line."""
    product_type, title, attributes = draw.product_type, draw.title, draw.attributes
    sentences = [f"{title}."]
    brand = attributes.get("brand_name", draw.brand)
    if brand:
        sentences.append(f"Brand: {brand}.")
    color = attributes.get("color") or draw.color
    sentences.append(f"Color: {color}.")
    weight = attributes.get("weight") or f"{draw.weight} lbs"
    sentences.append(f"Item weight: {weight}.")
    # Vendor descriptions spell out the remaining specs.
    for name in sorted(attributes):
        if name in ("brand_name", "color", "weight"):
            continue
        label = name.replace("_", " ")
        sentences.append(f"{label.capitalize()}: {attributes[name]}.")
    sentences.append(f"A quality {product_type.name} product from the {product_type.department} department.")
    return " ".join(sentences)
