"""repro — rule management for semantics-intensive Big Data systems.

A full reproduction of "Why Big Data Industrial Systems Need Rules and What
We Can Do About It" (SIGMOD 2015): the Chimera-style classification
pipeline with its rule modules and feedback loop, the section 5.1 synonym-
discovery tool, the section 5.2 rule-generation pipeline, the section 4
rule-management subsystems (language, properties, evaluation, execution,
maintenance), and the section 6 substrates (IE, EM, KB construction, entity
tagging, event monitoring) — all on a synthetic product catalog with
simulated analysts and crowdsourcing.

Quickstart::

    from repro.catalog import build_seed_taxonomy, CatalogGenerator
    from repro.core import parse_rules, RuleSet

    taxonomy = build_seed_taxonomy()
    generator = CatalogGenerator(taxonomy, seed=0)
    rules = RuleSet(parse_rules("rings? -> rings\\nkey rings? -> NOT rings"))
    item = generator.generate_item("rings")
    print(rules.apply(item).best())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import importlib
import sys
from typing import Callable, Dict, Tuple

__version__ = "1.0.0"


def lazy_exports(package: str, owners: Dict[str, Tuple[str, ...]]) -> Callable:
    """A module ``__getattr__`` for ``package`` that re-exports on demand:
    ``owners`` maps each submodule to the names it exports, and the first
    read of a name (or of the submodule itself) imports that submodule and
    caches the name on the package. A process that never reads a name
    never compiles its module."""
    owner = {name: module for module, names in owners.items() for name in names}

    def __getattr__(name: str):
        if name in owners:
            return importlib.import_module(f"{package}.{name}")
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__all__ = [
    "analyst",
    "catalog",
    "chimera",
    "cli",
    "clustering",
    "core",
    "crowd",
    "em",
    "evaluation",
    "execution",
    "ie",
    "kb",
    "learning",
    "maintenance",
    "rulegen",
    "search",
    "synonym",
    "tagging",
    "utils",
]
