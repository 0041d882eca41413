"""The one seeded startup: stream → Chimera wiring, and run-local ids.

The streaming daemon (:mod:`repro.service.daemon`) and the scenario
harness (:mod:`repro.scenario.runner`) stand on the same world, so a
scenario report vouches for the system the daemon operates. Three things
live here and nowhere else:

* :func:`sub_seed` — every subsystem draws from its own ``random.Random``
  seeded from ``(seed, tag)``, so toggling one cannot shift another's
  stream;
* :class:`RunIds` — rule ids replayable across runs and restarts
  (:mod:`repro.core.rule`'s process-global counter is neither);
* :func:`build_world` — the startup path itself, with a fixed draw order:
  training items first, then the analyst's obvious rules type by type.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.analyst.analyst import SimulatedAnalyst
from repro.catalog import CatalogGenerator, build_seed_taxonomy, synthesize_types
from repro.catalog.batches import BatchStream, VendorProfile
from repro.catalog.types import Taxonomy
from repro.chimera.pipeline import Chimera
from repro.core.rule import Rule
from repro.observability import Observability
from repro.utils.clock import SimClock


def sub_seed(seed: int, tag: str) -> int:
    """A stable per-subsystem seed: CRC-32 of ``"{seed}:{tag}"``."""
    return zlib.crc32(f"{seed}:{tag}".encode("utf-8"))


class RunIds:
    """Run-local rule ids: ``"{prefix}-{kind}-{seq:04d}"``, one counter.

    ``seq`` is the whole state. The daemon mints ids only at startup, so
    a resume's replayed startup sets it back.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.seq = 0

    def assign(self, rules: Sequence[Rule], kind: str) -> List[Rule]:
        """Re-identify ``rules`` in place, in order; returns them as a list."""
        for rule in rules:
            self.seq += 1
            rule.rule_id = f"{self.prefix}-{kind}-{self.seq:04d}"
        return list(rules)


@dataclass
class World:
    """What :func:`build_world` wired, ready for the first batch."""

    clock: SimClock
    taxonomy: Taxonomy
    generator: CatalogGenerator
    analyst: SimulatedAnalyst
    chimera: Chimera
    stream: BatchStream
    #: The analyst's obvious rules, already re-identified but *not* added:
    #: a fresh start adds them, a resume takes its rules from the repository.
    startup_rules: List[Rule]


def build_world(
    seed: int,
    ids: RunIds,
    *,
    training: int,
    min_examples: int,
    mean_gap_hours: float,
    extra_types: int = 0,
    obvious_rule_types: Sequence[str] = ("*",),
    vendors: Sequence[VendorProfile] = (),
    observability: Optional[Observability] = None,
    **analyst_options: Any,
) -> World:
    """Deterministic startup from ``seed``.

    ``obvious_rule_types`` of ``("*",)`` seeds every type in taxonomy
    order; an unknown type raises ``KeyError``. ``observability`` must be
    complete (metrics registry, span hooks) when passed: the stage health
    monitor captures its registry at assembly time. ``analyst_options``
    are :class:`SimulatedAnalyst` keywords (``rules_per_day``, accuracies).
    """
    clock = SimClock()
    taxonomy = build_seed_taxonomy()
    if extra_types:
        for product_type in synthesize_types(
            extra_types, random.Random(sub_seed(seed, "types"))
        ):
            taxonomy.add(product_type)
    generator = CatalogGenerator(taxonomy, seed=sub_seed(seed, "generator"))
    analyst = SimulatedAnalyst(
        taxonomy, clock=clock, seed=sub_seed(seed, "analyst"), **analyst_options
    )
    chimera = Chimera.build(
        seed=sub_seed(seed, "chimera") % (2 ** 31), observability=observability
    )
    if training:
        chimera.add_training(generator.generate_labeled(training))
        chimera.retrain(min_examples_per_type=min_examples)
    if tuple(obvious_rule_types) == ("*",):
        obvious_rule_types = tuple(taxonomy.type_names)
    startup_rules: List[Rule] = []
    for type_name in obvious_rule_types:
        startup_rules += ids.assign(analyst.obvious_rules(type_name), "wl")
    stream = BatchStream(
        generator,
        clock,
        vendors,
        seed=sub_seed(seed, "stream"),
        mean_gap_hours=mean_gap_hours,
    )
    return World(
        clock=clock,
        taxonomy=taxonomy,
        generator=generator,
        analyst=analyst,
        chimera=chimera,
        stream=stream,
        startup_rules=startup_rules,
    )
