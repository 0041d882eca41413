"""The §5.2 pipeline written literally — the rule miner's test oracle.

:class:`ReferenceRuleGenerator` is to ``RuleGenerator`` what
``NaiveExecutor`` is to the compiled engine: the paper's procedure over
plain rows (``mine_frequent_sequences`` per type, row postings for the
cleanliness check, Algorithms 1-2 over materialized ``SequenceRule``
objects), slow and obviously right. Tests and
``benchmarks/bench_rulegen_parallel.py`` hold the miner to it; no product
path constructs it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from repro.catalog.generator import LabeledTitle
from repro.core.rule import SequenceRule
from repro.rulegen.confidence import confidence_score
from repro.rulegen.pipeline import GenerationResult
from repro.rulegen.select import greedy_biased_select
from repro.rulegen.seqmine import build_postings, mine_frequent_sequences
from repro.utils.text import contains_word_sequence, tokenize


class ReferenceRuleGenerator:
    """Row-wise rule generation; same parameters and rules as the miner."""

    def __init__(
        self,
        min_support: float = 0.01,
        min_length: int = 2,
        max_length: int = 4,
        q: int = 500,
        alpha: float = 0.7,
        require_clean: bool = True,
    ):
        if not 1 <= min_length <= max_length:
            raise ValueError(
                f"need 1 <= min_length <= max_length, got {min_length}..{max_length}"
            )
        self.min_support = min_support
        self.min_length = min_length
        self.max_length = max_length
        self.q = q
        self.alpha = alpha
        self.require_clean = require_clean

    def generate(self, training: Sequence[LabeledTitle]) -> GenerationResult:
        """Run the full pipeline over ``training``."""
        if not training:
            raise ValueError("cannot generate rules from empty training data")
        result = GenerationResult()
        tokenized = [tokenize(example.title) for example in training]
        labels = [example.label for example in training]
        rows_by_type: Dict[str, List[int]] = defaultdict(list)
        for row, label in enumerate(labels):
            rows_by_type[label].append(row)
        # Global token -> rows index, for the cleanliness check.
        postings = build_postings(tokenized)

        for type_name in sorted(rows_by_type):
            type_rows = rows_by_type[type_name]
            frequent = mine_frequent_sequences(
                [tokenized[row] for row in type_rows],
                self.min_support,
                self.max_length,
            )
            candidates = {
                seq: count
                for seq, count in frequent.items()
                if self.min_length <= len(seq) <= self.max_length
            }
            result.n_mined += len(candidates)
            if not candidates:
                continue

            rules: List[SequenceRule] = []
            coverage: Dict[str, Set[int]] = {}
            for seq in sorted(candidates):
                support = candidates[seq] / len(type_rows)
                global_rows = self._global_coverage(seq, postings, tokenized)
                if self.require_clean and any(
                    labels[row] != type_name for row in global_rows
                ):
                    continue
                rule = SequenceRule(
                    seq,
                    type_name,
                    support=support,
                    confidence=confidence_score(seq, type_name, support),
                    provenance="rulegen",
                    author="rulegen",
                )
                rules.append(rule)
                # Selection optimizes coverage of this type's titles.
                coverage[rule.rule_id] = {
                    row for row in global_rows if labels[row] == type_name
                }
            result.n_clean += len(rules)
            if not rules:
                continue
            high, low = greedy_biased_select(rules, coverage, self.q, self.alpha)
            if high or low:
                result.types_covered += 1
            result.high_confidence.extend(high)
            result.low_confidence.extend(low)
        return result

    @staticmethod
    def _global_coverage(
        seq: Tuple[str, ...],
        postings: Dict[str, Set[int]],
        tokenized: Sequence[Sequence[str]],
    ) -> Set[int]:
        """Rows of the whole training set the sequence matches."""
        possible = set.intersection(*(postings.get(t, set()) for t in seq))
        return {row for row in possible if contains_word_sequence(tokenized[row], seq)}
