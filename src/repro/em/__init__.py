"""Entity matching substrate (section 6, "Entity Matching").

Rule-based EM as practised at WalmartLabs: similarity functions, a rule
language over record pairs ("[a.isbn = b.isbn] and [jaccard.3g(a.title,
b.title) >= 0.8] => match"), token blocking, a rule-based matcher with
order-independent semantics, a learned baseline, and a synthetic
duplicate-pair generator standing in for the production product feeds.
"""

from repro.em.blocking import block_pairs, blocking_recall
from repro.em.matcher import (
    LearnedMatcher,
    MatchReport,
    RuleBasedMatcher,
    score_matches,
)
from repro.em.records import EmDataset, Record, generate_em_dataset
from repro.em.rules import EmRule, parse_em_rule
from repro.em.similarity import (
    exact_match,
    jaccard_3gram,
    jaccard_tokens,
    jaro_winkler,
    levenshtein,
    normalized_levenshtein,
)

__all__ = [
    "EmDataset",
    "EmRule",
    "LearnedMatcher",
    "MatchReport",
    "Record",
    "RuleBasedMatcher",
    "block_pairs",
    "blocking_recall",
    "exact_match",
    "score_matches",
    "generate_em_dataset",
    "jaccard_3gram",
    "jaccard_tokens",
    "jaro_winkler",
    "levenshtein",
    "normalized_levenshtein",
    "parse_em_rule",
]
