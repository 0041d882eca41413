"""Concept drift and distribution-shift injection.

Section 2.2: "the overall distribution is changing, and concept drift
becomes common (e.g., the notion 'computer cables' keeps drifting because
new types of computer cables keep appearing)". These injectors mutate the
taxonomy / generator mid-stream so the deployed system's accuracy degrades
the way the paper describes — which is what the incident-response and
rule-maintenance experiments need to trigger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.catalog.generator import CatalogGenerator
from repro.catalog.types import ProductType, Taxonomy


@dataclass(frozen=True)
class DriftEvent:
    """A record of one drift action, for experiment logging."""

    kind: str
    type_name: str
    detail: str


class DriftInjector:
    """Applies drift operations to a generator's taxonomy.

    All operations are logged so benchmarks can print when and what drifted.
    """

    def __init__(self, generator: CatalogGenerator, seed: int = 0):
        self.generator = generator
        self.rng = random.Random(seed)
        self.events: List[DriftEvent] = []

    # -- concept drift: vocabulary of a type expands --------------------------

    def extend_slot(self, type_name: str, slot: str, new_phrases: Sequence[str]) -> DriftEvent:
        """Add new phrases to a modifier slot (new subtypes appear).

        E.g. ``extend_slot("computer cables", "kind", ["usb-c", "thunderbolt"])``
        models new kinds of cables arriving — titles the deployed rules and
        training data have never seen.
        """
        product_type = self.generator.taxonomy.get(type_name)
        existing = product_type.modifier_slots.get(slot, ())
        merged = tuple(existing) + tuple(p for p in new_phrases if p not in existing)
        product_type.modifier_slots[slot] = merged
        self.generator.taxonomy.version += 1
        event = DriftEvent("extend_slot", type_name, f"{slot} += {list(new_phrases)}")
        self.events.append(event)
        return event

    def replace_slot(self, type_name: str, slot: str, new_phrases: Sequence[str]) -> DriftEvent:
        """Replace a modifier slot wholesale (vendor-specific vocabulary).

        Unlike :meth:`extend_slot`, the familiar phrases disappear — the
        deployed system loses every lexical hook it had for this slot.
        """
        if not new_phrases:
            raise ValueError("replace_slot needs at least one phrase")
        product_type = self.generator.taxonomy.get(type_name)
        product_type.slot(slot)  # raises KeyError for unknown slots
        product_type.modifier_slots[slot] = tuple(new_phrases)
        self.generator.taxonomy.version += 1
        event = DriftEvent("replace_slot", type_name, f"{slot} -> {list(new_phrases)}")
        self.events.append(event)
        return event

    def shift_head_vocabulary(self, type_name: str, new_heads: Sequence[str]) -> DriftEvent:
        """Replace a type's head nouns (a vendor's alien vocabulary).

        This is the hard drift: items arrive described with words the system
        has never associated with the type ("dungarees" for jeans). Deployed
        whitelist rules stop firing; learning features go out of vocabulary.
        """
        product_type = self.generator.taxonomy.get(type_name)
        product_type.heads = tuple(new_heads)
        self.generator.taxonomy.version += 1
        event = DriftEvent("shift_heads", type_name, f"heads -> {list(new_heads)}")
        self.events.append(event)
        return event

    # -- distribution shift ----------------------------------------------------

    def shift_distribution(self, weights: Dict[str, float]) -> DriftEvent:
        """Re-weight type frequencies (seasonal/market change, section 3.2)."""
        for type_name, weight in sorted(weights.items()):
            self.generator.set_type_weight(type_name, weight)
        event = DriftEvent("shift_distribution", ",".join(sorted(weights)), str(weights))
        self.events.append(event)
        return event

    def surge_department(self, department: str, factor: float) -> DriftEvent:
        """Multiply the weight of every type in a department."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        taxonomy = self.generator.taxonomy
        for product_type in taxonomy.types_in_department(department):
            current = self.generator.effective_weight(product_type)
            self.generator.set_type_weight(product_type.name, current * factor)
        event = DriftEvent("surge_department", department, f"x{factor}")
        self.events.append(event)
        return event

    # -- taxonomy change ---------------------------------------------------------

    def split_type(
        self, type_name: str, split_spec: Dict[str, Sequence[str]]
    ) -> Tuple[DriftEvent, List[ProductType]]:
        """Split a type into finer types keyed by modifier phrases.

        ``split_spec`` maps each new type name to the modifier phrases that
        characterize it; remaining vocabulary is split evenly. Mirrors the
        paper's "pants" -> "work pants" + "jeans" example (section 4), which
        renders old rules inapplicable.
        """
        old = self.generator.taxonomy.get(type_name)
        replacements: List[ProductType] = []
        for new_name, phrases in sorted(split_spec.items()):
            replacements.append(ProductType(
                name=new_name,
                department=old.department,
                heads=old.heads,
                modifier_slots={"style": tuple(phrases)},
                brands=old.brands,
                attribute_kinds=dict(old.attribute_kinds),
                templates=old.templates,
                weight=old.weight / max(1, len(split_spec)),
            ))
        self.generator.taxonomy.split_type(type_name, replacements)
        event = DriftEvent("split_type", type_name, f"-> {sorted(split_spec)}")
        self.events.append(event)
        return event, replacements
