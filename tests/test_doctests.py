"""Run the docstring examples — documentation that must stay true."""

import doctest

import pytest

import repro.analyst.analyst
import repro.catalog.generator
import repro.catalog.types
import repro.em.similarity
import repro.observability.metrics
import repro.observability.tracer
import repro.rulegen.confidence
import repro.utils.clock
import repro.utils.stats
import repro.utils.text
import repro.utils.vectors

MODULES = [
    repro.analyst.analyst,
    repro.catalog.generator,
    repro.catalog.types,
    repro.em.similarity,
    repro.observability.metrics,
    repro.observability.tracer,
    repro.rulegen.confidence,
    repro.utils.clock,
    repro.utils.stats,
    repro.utils.text,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
