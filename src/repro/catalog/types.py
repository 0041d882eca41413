"""Core catalog data model: product items, product types, taxonomy.

A product item is "a record of attribute-value pairs that describe a
product" with a required title (section 2.1, Figure 1). A product type is
one of the mutually exclusive classes ("area rugs", "rings", ...) the
classification systems target.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ProductItem:
    """One product record.

    ``true_type`` is the generator's ground truth. By convention only the
    evaluation/crowd/analyst simulators may read it — classifiers never do,
    mirroring the fact that Walmart's classifiers do not see the answer.
    """

    item_id: str
    title: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    true_type: str = ""
    vendor: str = ""
    description: str = ""

    def attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive attribute lookup."""
        lowered = name.lower()
        for key, value in self.attributes.items():
            if key.lower() == lowered:
                return value
        return default

    def has_attribute(self, name: str) -> bool:
        return self.attribute(name) is not None


@dataclass
class ProductType:
    """A product type with the vocabulary used to generate (and thus to
    recognize) items of that type.

    ``modifier_slots`` is the key structure for the section 5.1 synonym
    experiments: each slot maps a slot name to a family of interchangeable
    phrases, e.g. the "vehicle" slot of "motor oil" contains "motor",
    "engine", "car", "truck", ... — the very synonyms the tool must discover.
    """

    name: str
    department: str
    heads: Tuple[str, ...]
    modifier_slots: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    brands: Tuple[str, ...] = ()
    attribute_kinds: Dict[str, str] = field(default_factory=dict)
    templates: Tuple[str, ...] = ("{modifier} {head}",)
    weight: float = 1.0
    trap_phrases: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.heads:
            raise ValueError(f"product type {self.name!r} needs at least one head noun")
        if self.weight <= 0:
            raise ValueError(f"product type {self.name!r} needs positive weight")

    def all_modifiers(self) -> List[str]:
        """Every modifier phrase across slots, deterministically ordered."""
        phrases: List[str] = []
        for slot in sorted(self.modifier_slots):
            phrases.extend(self.modifier_slots[slot])
        return phrases

    def slot(self, slot_name: str) -> Tuple[str, ...]:
        try:
            return self.modifier_slots[slot_name]
        except KeyError:
            raise KeyError(
                f"type {self.name!r} has no modifier slot {slot_name!r}; "
                f"available: {sorted(self.modifier_slots)}"
            ) from None


class Taxonomy:
    """The (mutable) set of product types currently recognized.

    The paper notes the type set "is constantly being revised" (section 2.1)
    and that taxonomy changes invalidate rules (section 4, maintenance) —
    e.g. splitting "pants" into "work pants" and "jeans". The maintenance
    subsystem drives those operations through :meth:`split_type`.
    """

    def __init__(self, types: Sequence[ProductType] = ()):
        self._types: Dict[str, ProductType] = {}
        #: Bumped whenever the set of types changes (``add`` / ``remove``,
        #: hence splits and merges): what derived tables are cached against.
        self.version = 0
        for product_type in types:
            self.add(product_type)

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[ProductType]:
        return iter(self._types[name] for name in sorted(self._types))

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def add(self, product_type: ProductType) -> None:
        if product_type.name in self._types:
            raise ValueError(f"duplicate product type {product_type.name!r}")
        self._types[product_type.name] = product_type
        self.version += 1

    def remove(self, name: str) -> ProductType:
        try:
            removed = self._types.pop(name)
        except KeyError:
            raise KeyError(f"unknown product type {name!r}") from None
        self.version += 1
        return removed

    def get(self, name: str) -> ProductType:
        try:
            return self._types[name]
        except KeyError:
            raise KeyError(f"unknown product type {name!r}") from None

    @property
    def type_names(self) -> List[str]:
        return sorted(self._types)

    def departments(self) -> List[str]:
        return sorted({t.department for t in self._types.values()})

    def types_in_department(self, department: str) -> List[ProductType]:
        return [t for t in self if t.department == department]

    def split_type(self, name: str, replacements: Sequence[ProductType]) -> ProductType:
        """Replace type ``name`` with ``replacements`` (taxonomy refinement).

        Returns the removed type so callers (e.g. rule maintenance) can map
        old rules onto the new types.
        """
        if not replacements:
            raise ValueError("split_type needs at least one replacement type")
        removed = self.remove(name)
        for replacement in replacements:
            self.add(replacement)
        return removed

    def merge_types(self, names: Sequence[str], merged: ProductType) -> List[ProductType]:
        """Replace several types with one coarser type."""
        removed = [self.remove(name) for name in names]
        self.add(merged)
        return removed

    def validate(self) -> List[str]:
        """Authoring checks over every type; returns problem descriptions.

        Catches the mistakes that otherwise surface as crashes (or silently
        wrong titles) deep inside the generator: templates referencing
        missing slots, ``{mod}`` on slot-less types, empty phrases.
        """
        problems: List[str] = []
        for product_type in self:
            problems.extend(validate_product_type(product_type))
        return problems


_TEMPLATE_PLACEHOLDER = re.compile(r"\{(brand|head|detail|mod(?::(\w+))?)\}")


def validate_product_type(product_type: ProductType) -> List[str]:
    """Authoring checks for one :class:`ProductType`."""
    problems: List[str] = []
    name = product_type.name
    for head in product_type.heads:
        if not head.strip():
            problems.append(f"{name}: empty head noun")
    for slot, phrases in product_type.modifier_slots.items():
        if not phrases:
            problems.append(f"{name}: slot {slot!r} has no phrases")
        for phrase in phrases:
            if not str(phrase).strip():
                problems.append(f"{name}: slot {slot!r} has an empty phrase")
    for template in product_type.templates:
        saw_placeholder = False
        for match in _TEMPLATE_PLACEHOLDER.finditer(template):
            saw_placeholder = True
            slot = match.group(2)
            if slot is not None and slot not in product_type.modifier_slots:
                problems.append(
                    f"{name}: template {template!r} references missing slot {slot!r}"
                )
            if match.group(1).startswith("mod") and slot is None and not product_type.modifier_slots:
                # Bare {mod} falls back to a color; flag it as a smell only
                # when the type has no slots at all AND relies on modifiers.
                continue
        if not saw_placeholder:
            problems.append(f"{name}: template {template!r} has no placeholders")
    return problems
