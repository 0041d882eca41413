"""Shared utilities: text processing, statistics, and deterministic simulation.

Everything stochastic in the library takes an explicit ``random.Random`` /
``numpy`` seed, and everything time-based flows through
:class:`~repro.utils.clock.SimClock`, so experiments are reproducible.
"""

from repro import lazy_exports
from repro.utils.clock import SimClock
from repro.utils.text import (
    STOPWORDS,
    expand_plural_singulars,
    ngrams,
    normalize_text,
    singular_form,
    tokenize,
    tokenize_cached,
)

# Read on first access (:func:`repro.lazy_exports`): a served daemon never
# reads these names, so it never compiles their modules.
__getattr__ = lazy_exports(__name__, {
    "sampling": ("reservoir_sample", "stratified_sample"),
    "stats": ("mean", "wilson_interval"),
    "vectors": ("SparseVector", "cosine_similarity", "mean_vector"),
})

__all__ = [
    "STOPWORDS",
    "SimClock",
    "SparseVector",
    "cosine_similarity",
    "expand_plural_singulars",
    "mean",
    "mean_vector",
    "ngrams",
    "normalize_text",
    "reservoir_sample",
    "singular_form",
    "stratified_sample",
    "tokenize",
    "tokenize_cached",
    "wilson_interval",
]
