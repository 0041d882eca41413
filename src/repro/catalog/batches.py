"""Vendor batch streams.

Section 2.2: "batches of data arriving at irregular intervals. For example,
in the morning a small vendor ... may send in a few tens of items, but hours
later a large vendor may send in a few millions of items." Batches are the
unit Chimera classifies, evaluates with the crowd, and accepts or rejects.
A stream only produces batches: each driver (the ``repro serve`` daemon,
the scenario runner) admits a batch into the pipeline's engine with
``chimera.engine.add_items(batch.items)`` right before classifying it.

Vendors also carry vocabulary quirks — the scale-down scenario in section
2.2 is triggered by "a new vendor who describes [clothes] using a new
vocabulary"; :class:`VendorProfile` models that with title rewrites.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.generator import CatalogGenerator
from repro.catalog.types import ProductItem
from repro.utils.clock import SimClock


@dataclass(frozen=True)
class Batch:
    """One vendor shipment of items, stamped with its (simulated) arrival."""

    batch_id: str
    vendor: str
    arrived_at: float
    items: Tuple[ProductItem, ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class VendorProfile:
    """A vendor with a size profile and an optional vocabulary rewrite.

    ``rewrites`` maps phrases to vendor-specific phrases applied to titles
    (e.g. ``{"jeans": "dungarees"}`` — a vendor whose vocabulary the deployed
    system has never seen).
    """

    name: str
    min_batch: int = 20
    max_batch: int = 200
    departments: Tuple[str, ...] = ()
    rewrites: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("min_batch", "max_batch"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ValueError(
                    f"vendor {self.name!r}: {name} must be an integer >= 1, got {value!r}"
                )
        if self.max_batch < self.min_batch:
            raise ValueError(
                f"vendor {self.name!r}: max_batch ({self.max_batch}) < min_batch ({self.min_batch})"
            )

    def apply_rewrites(self, item: ProductItem) -> ProductItem:
        if not self.rewrites:
            return item
        title = item.title
        for phrase, replacement in sorted(self.rewrites.items()):
            title = title.replace(phrase, replacement)
        if title == item.title:
            return item
        return ProductItem(
            item_id=item.item_id,
            title=title,
            attributes=item.attributes,
            true_type=item.true_type,
            vendor=self.name,
            description=item.description,
        )


def check_mean_gap_hours(value: float) -> float:
    """``value`` when it is a finite number of hours > 0 (the mean of the
    exponential gap between batches); else a ``ValueError`` naming the
    field. Zero and infinity would divide by zero at the first batch, a
    negative gap would move the clock backwards, and NaN would serve and
    checkpoint a clock that is not valid JSON."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"mean_gap_hours must be a finite number > 0, got {value!r}")
    return value


class BatchStream:
    """Generates a deterministic stream of vendor batches.

    >>> # doctest-free usage sketch:
    >>> # stream = BatchStream(generator, clock, seed=7)
    >>> # for batch in stream.take(10): chimera.process(batch)
    """

    def __init__(
        self,
        generator: CatalogGenerator,
        clock: Optional[SimClock] = None,
        vendors: Sequence[VendorProfile] = (),
        seed: int = 0,
        mean_gap_hours: float = 6.0,
    ):
        self.generator = generator
        self.clock = clock if clock is not None else SimClock()
        self.rng = random.Random(seed)
        self.vendors: List[VendorProfile] = [
            self._known(vendor) for vendor in vendors
        ] or [VendorProfile(name=f"vendor-{i:03d}") for i in range(1, 6)]
        self.mean_gap_hours = check_mean_gap_hours(mean_gap_hours)
        self._next_batch = 0

    def add_vendor(self, vendor: VendorProfile) -> None:
        """Onboard a new vendor mid-stream (the scale-up scenario)."""
        self.vendors.append(self._known(vendor))

    def _known(self, vendor: VendorProfile) -> VendorProfile:
        """``vendor`` when every department it names is in the taxonomy;
        else a ``ValueError`` naming the unknown ones (such a vendor would
        resample every item 50 times and still serve it)."""
        unknown = sorted(set(vendor.departments) - set(self.generator.taxonomy.departments()))
        if unknown:
            raise ValueError(f"vendor {vendor.name!r}: unknown departments {unknown}")
        return vendor

    def next_batch(self, vendor: Optional[VendorProfile] = None) -> Batch:
        """Advance the clock and produce the next batch."""
        gap = self.rng.expovariate(1.0 / self.mean_gap_hours)
        self.clock.advance(hours=gap)
        profile = vendor if vendor is not None else self.rng.choice(self.vendors)
        size = self.rng.randint(profile.min_batch, profile.max_batch)
        draw, render, departments = self.generator.draw, self.generator.render, profile.departments
        items = []
        for _ in range(size):
            drawn = draw()
            if departments:
                # Redraw until the item is in the vendor's departments;
                # bounded, as a drifted taxonomy may have emptied them.
                # Only the kept draw is rendered.
                for _attempt in range(50):
                    if drawn.product_type.department in departments:
                        break
                    drawn = draw()
            items.append(profile.apply_rewrites(render(drawn, profile.name)))
        self._next_batch += 1
        return Batch(
            batch_id=f"batch-{self._next_batch:05d}",
            vendor=profile.name,
            arrived_at=self.clock.now,
            items=tuple(items),
        )

    def take(self, count: int) -> Iterator[Batch]:
        """Yield the next ``count`` batches."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        for _ in range(count):
            yield self.next_batch()
