"""Core catalog data model: product items, product types, taxonomy.

A product item is "a record of attribute-value pairs that describe a
product" with a required title (section 2.1, Figure 1). A product type is
one of the mutually exclusive classes ("area rugs", "rings", ...) the
classification systems target.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


#: ``dataclass(slots=True)`` is Python 3.10+; older interpreters build the
#: same class with an instance ``__dict__``.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTTED)
class ProductItem:
    """One product record.

    Slotted: a batch in flight and every record read back from the journal
    holds one per item, and slots save the instance ``__dict__``.

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
    templates: Tuple[str, ...] = ("{mod} {head}",)
    weight: float = 1.0
    trap_phrases: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.heads:
            raise ValueError(f"product type {self.name!r} needs at least one head noun")
        if not (isinstance(self.weight, (int, float)) and math.isfinite(self.weight)
                and self.weight > 0):
            raise ValueError(
                f"product type {self.name!r}: weight must be a finite number > 0, "
                f"got {self.weight!r}"
            )

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
        #: hence splits and merges) and by every drift edit of a type in
        #: place: what derived tables are cached against.
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
        missing slots or braced words outside the placeholder grammar
        (left in titles as written), empty phrases.
        """
        problems: List[str] = []
        for product_type in self:
            problems.extend(validate_product_type(product_type))
        return problems


#: A braced word; it is a placeholder when its content is ``brand``,
#: ``head``, ``detail``, ``mod`` or ``mod:<slot>``, and literal text otherwise.
_BRACED = re.compile(r"\{([^{}]*)\}")
_PLACEHOLDER = re.compile(r"(brand|head|detail|mod(?::(\w+))?)")

#: One template's parts: ``(literal, kind, slot)`` per placeholder in order
#: (the text before it, ``brand`` / ``head`` / ``detail`` / ``mod``, the
#: ``mod:`` slot or None), the text after the last one, and the braced
#: words that are not placeholders (left in the text as written).
ParsedTemplate = Tuple[Tuple[Tuple[str, str, Optional[str]], ...], str, Tuple[str, ...]]

# Parts by template string: drift and the scenario runner edit a type's
# ``templates`` at run time, and the string itself is the stable key.
_PARSED: Dict[str, ParsedTemplate] = {}


def parse_template(template: str) -> ParsedTemplate:
    """The parts of a title template, parsed once per distinct string.

    >>> parse_template("{brand} {mod:style} {head}s {modifier}")
    ((('', 'brand', None), (' ', 'mod', 'style'), (' ', 'head', None)), 's {modifier}', ('{modifier}',))
    """
    try:
        return _PARSED[template]
    except KeyError:
        pass
    placeholders: List[Tuple[str, str, Optional[str]]] = []
    unknown: List[str] = []
    literal, start = "", 0
    for match in _BRACED.finditer(template):
        literal += template[start:match.start()]
        start = match.end()
        placeholder = _PLACEHOLDER.fullmatch(match.group(1))
        if placeholder is None:
            literal += match.group(0)
            unknown.append(match.group(0))
            continue
        kind = placeholder.group(1)
        placeholders.append((literal, "mod" if kind.startswith("mod") else kind,
                             placeholder.group(2)))
        literal = ""
    parsed = _PARSED[template] = (
        tuple(placeholders), literal + template[start:], tuple(unknown)
    )
    return parsed


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
        placeholders, _tail, unknown = parse_template(template)
        for word in unknown:
            problems.append(f"{name}: template {template!r} has unknown placeholder {word!r}")
        for _literal, _kind, slot in placeholders:
            if slot is not None and slot not in product_type.modifier_slots:
                problems.append(
                    f"{name}: template {template!r} references missing slot {slot!r}"
                )
        if not placeholders:
            problems.append(f"{name}: template {template!r} has no placeholders")
    return problems
