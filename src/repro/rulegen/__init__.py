"""Rule generation from labeled data (section 5.2).

Mine frequent token sequences per product type with AprioriAll, turn
length-2..4 sequences into ``a1.*a2.*...*an -> t`` rules, keep only rules
that make no incorrect predictions on the training data, score each rule's
confidence, and select a high-coverage subset with the paper's Greedy
(Algorithm 1) and Greedy-Biased (Algorithm 2) procedures.

``RuleGenerator`` is the one miner: it runs that pipeline column-wise
over a ``CorpusIndex`` (weighted representative titles in flat arrays) —
one vectorized level loop mines every type and length into a
``CandidateTable``, scoring and selection stay on arrays, and only the
selected rules become objects. ``ReferenceRuleGenerator`` is the same
pipeline written row by row, kept only as the oracle tests and the rulegen
benchmark compare the miner against.
"""

from repro.rulegen.confidence import ConfidenceScorer, confidence_score
from repro.rulegen.corpus import CandidateTable, CorpusIndex
from repro.rulegen.pipeline import GenerationResult, RuleGenerator
from repro.rulegen.reference import ReferenceRuleGenerator
from repro.rulegen.select import (
    CoverageMap,
    greedy_biased_select,
    greedy_biased_select_slices,
    greedy_select,
    greedy_select_slices,
)
from repro.rulegen.seqmine import exact_min_count, mine_frequent_sequences

__all__ = [
    "CandidateTable",
    "ConfidenceScorer",
    "CorpusIndex",
    "CoverageMap",
    "GenerationResult",
    "ReferenceRuleGenerator",
    "RuleGenerator",
    "confidence_score",
    "exact_min_count",
    "greedy_biased_select",
    "greedy_biased_select_slices",
    "greedy_select",
    "greedy_select_slices",
    "mine_frequent_sequences",
]
