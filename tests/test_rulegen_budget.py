"""A host-independent work budget for rule induction.

Wall clocks on a shared host drift by 1.2-1.5x; the number of Python and C
calls the interpreter makes does not (ROADMAP: the count is bit-identical
across ``PYTHONHASHSEED`` values). ``sys.setprofile`` counts every call
one ``RuleGenerator.generate`` makes over a fixed seeded corpus; divided
by the candidates it mined, that is the per-candidate interpreter work.
The columnar miner keeps candidates in arrays from the level loop to
selection, so the figure is a small constant (tokenizing the titles and
building the selected rules is nearly all of it); a pipeline that touches
each candidate from Python pays tens of calls per candidate — the
per-candidate miner this one replaced read 44 on this corpus.
"""

import sys

from repro.catalog import CatalogGenerator, build_seed_taxonomy
from repro.rulegen import ReferenceRuleGenerator, RuleGenerator

BUDGET = 10.0


def calls_per_candidate(generator, training):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = generator.generate(training)
    finally:
        sys.setprofile(previous)
    assert result.n_mined > 50_000 and result.n_selected
    return calls / result.n_mined


def training():
    generator = CatalogGenerator(build_seed_taxonomy(), seed=2015)
    return generator.generate_labeled(5000)


def test_generate_stays_inside_the_call_budget():
    assert calls_per_candidate(RuleGenerator(), training()) <= BUDGET


def test_budget_goes_red_for_a_per_candidate_pipeline():
    """The probe has teeth: the row-wise reference — one Python loop body
    per candidate, which is what putting the per-candidate loop back into
    the miner amounts to — is far outside the same budget."""
    assert calls_per_candidate(ReferenceRuleGenerator(), training()) > 4 * BUDGET
