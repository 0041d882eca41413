"""End-to-end rule generation: labeled titles in, validated rule sets out."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as _np

from repro.catalog.generator import LabeledTitle
from repro.core.rule import SequenceRule
from repro.maintenance.subsumption import dedupe_sequence_rules
from repro.observability import Observability, ensure_observability
from repro.rulegen.confidence import ConfidenceScorer, singular_forms
from repro.rulegen.corpus import CorpusIndex
from repro.rulegen.select import greedy_biased_select_slices


@dataclass
class GenerationResult:
    """Everything the section 5.2 pipeline produced, with stage counts.

    ``timings`` splits the run's wall clock by phase — ``index`` (zero
    with a prebuilt index), ``mine`` (the candidate table: supports,
    cleanliness, candidate order) and ``select`` (confidence,
    Greedy-Biased, materializing and deduping the selection);
    ``n_deduped`` counts the rules the optional subsumption pass pruned.
    """

    high_confidence: List[SequenceRule] = field(default_factory=list)
    low_confidence: List[SequenceRule] = field(default_factory=list)
    n_mined: int = 0
    n_clean: int = 0
    types_covered: int = 0
    n_deduped: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def rules(self) -> List[SequenceRule]:
        return self.high_confidence + self.low_confidence

    @property
    def n_selected(self) -> int:
        return len(self.high_confidence) + len(self.low_confidence)

    def rules_for_type(self, type_name: str) -> List[SequenceRule]:
        return [r for r in self.rules if r.target_type == type_name]


class RuleGenerator:
    """Mines, filters, scores and selects classification rules per type.

    Parameters mirror the paper: sequences of length ``min_length``..
    ``max_length`` (2..4 — one-token rules are "too general", five-plus
    "too specific"), per-type ``min_support``, quota ``q`` (500), and the
    high/low-confidence split at ``alpha`` (0.7). ``require_clean`` enforces
    "only consider those rules that do not make any incorrect predictions
    on training data" (section 7). ``dedupe`` runs the selection through
    :func:`~repro.maintenance.subsumption.dedupe_sequence_rules`
    (syntactic subsumption) before returning.

    The pipeline is columnar: a :class:`~repro.rulegen.corpus.CorpusIndex`
    collapses duplicate titles to weighted representatives, one level
    loop mines every type's frequent sequences with their cleanliness
    into a :class:`~repro.rulegen.corpus.CandidateTable`, confidence is
    array arithmetic, Algorithms 1-2 run over the table's coverage
    slices, and only the selected rows become ``SequenceRule`` objects.
    Each step is exact, so the rules equal the row-wise reference
    generator's (``rulegen.reference``) — sequences, supports,
    confidences and order; rule ids are auto-assigned and differ.
    """

    def __init__(
        self,
        min_support: float = 0.01,
        min_length: int = 2,
        max_length: int = 4,
        q: int = 500,
        alpha: float = 0.7,
        require_clean: bool = True,
        observability: Optional[Observability] = None,
        dedupe: bool = False,
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
        self.dedupe = dedupe
        self.observability = ensure_observability(observability)

    def generate(
        self,
        training: Sequence[LabeledTitle],
        index: Optional[CorpusIndex] = None,
    ) -> GenerationResult:
        """Run the full pipeline over ``training``.

        ``index`` may supply a prebuilt, labeled
        :class:`~repro.rulegen.corpus.CorpusIndex` over the same training
        data, which is then reused instead of rebuilt; ``training`` may be
        empty in that case, but if given it must match the index's rows.
        """
        if index is None:
            if not training:
                raise ValueError("cannot generate rules from empty training data")
        elif index.labels is None:
            raise ValueError("rule generation needs a labeled index")
        elif training and index.n_rows != len(training):
            raise ValueError(
                f"index covers {index.n_rows} rows, training has {len(training)}"
            )
        obs = self.observability
        result = GenerationResult()
        timings = result.timings
        timings.update(index=0.0, mine=0.0, select=0.0)
        clock = time.perf_counter

        with obs.span("rulegen.generate", examples=len(training)) as gen_span:
            started = clock()
            if index is None:
                with obs.span("rulegen.index"):
                    index = CorpusIndex.from_labeled(training)
            timings["index"] = clock() - started

            started = clock()
            with obs.span("rulegen.mine"):
                table = index.mine(
                    self.min_support, self.min_length, self.max_length
                )
            timings["mine"] = clock() - started

            started = clock()
            singulars = singular_forms(index.id_tokens)
            # Types own disjoint reps, so one weight vector serves them all.
            uncovered = index.rep_weight.copy()
            type_ptr = table.type_ptr.tolist()
            for code, type_name in enumerate(index.label_names):
                with obs.span("rulegen.type", target_type=type_name) as type_span:
                    rows = _np.arange(type_ptr[code], type_ptr[code + 1])
                    result.n_mined += rows.size
                    type_span.set_attribute("mined", rows.size)
                    if not rows.size:
                        continue
                    if self.require_clean:
                        rows = rows[table.clean[rows]]
                    result.n_clean += rows.size
                    type_span.set_attribute("clean", rows.size)
                    support = table.count[rows] / int(index.label_rows[code])
                    confidence = ConfidenceScorer(type_name).score_rows(
                        singulars, table.tokens[rows], support
                    )
                    high, low = greedy_biased_select_slices(
                        confidence, table.lo[rows], table.hi[rows],
                        table.reps, uncovered, self.q, self.alpha,
                    )
                    type_span.set_attribute("selected", len(high) + len(low))
                    if high or low:
                        result.types_covered += 1
                    # Only the selection leaves the arrays.
                    for pool, picks in (
                        (result.high_confidence, high),
                        (result.low_confidence, low),
                    ):
                        for seq, rule_support, rule_confidence in zip(
                            table.tokens[rows[picks]].tolist(),
                            support[picks].tolist(),
                            confidence[picks].tolist(),
                        ):
                            pool.append(
                                SequenceRule(
                                    index.decode(seq),
                                    type_name,
                                    support=rule_support,
                                    confidence=rule_confidence,
                                    provenance="rulegen",
                                    author="rulegen",
                                )
                            )
            timings["select"] = clock() - started

            if self.dedupe and result.n_selected:
                started = clock()
                with obs.span("rulegen.dedupe") as dedupe_span:
                    kept, pruned = dedupe_sequence_rules(result.rules)
                    if pruned:
                        kept_ids = {rule.rule_id for rule in kept}
                        result.high_confidence = [
                            r for r in result.high_confidence
                            if r.rule_id in kept_ids
                        ]
                        result.low_confidence = [
                            r for r in result.low_confidence
                            if r.rule_id in kept_ids
                        ]
                    result.n_deduped = len(pruned)
                    dedupe_span.set_attribute("pruned", result.n_deduped)
                timings["select"] += clock() - started
            gen_span.set_attribute("mined", result.n_mined)
            gen_span.set_attribute("selected", result.n_selected)
        if obs.enabled:
            obs.metrics.counter("rulegen_mined_total").inc(result.n_mined)
            obs.metrics.counter("rulegen_clean_total").inc(result.n_clean)
            obs.metrics.counter("rulegen_selected_total", confidence="high").inc(
                len(result.high_confidence)
            )
            obs.metrics.counter("rulegen_selected_total", confidence="low").inc(
                len(result.low_confidence)
            )
            if self.dedupe:
                obs.metrics.counter("rulegen_dedup_pruned_total").inc(
                    result.n_deduped
                )
        return result
