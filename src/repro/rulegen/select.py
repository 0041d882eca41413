"""Rule selection: Algorithms 1 (Greedy) and 2 (Greedy-Biased) of the paper.

Given candidate rules R over data D with coverage Cov(Ri, D) and confidence
conf(Ri), select up to q rules maximizing covered-title confidence mass.
Algorithm 1 greedily picks argmax |Cov(Ri, D) - Cov(S, D)| * conf(Ri) and
stops when q rules are chosen or no rule adds coverage. Algorithm 2 splits
R at the confidence threshold alpha and exhausts the high-confidence pool
before touching the low-confidence one (analysts prefer high-confidence
rules even at some coverage cost).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.rule import SequenceRule

# rule_id -> set of covered item/title indices.
CoverageMap = Dict[str, Set[int]]

# (confidence, order, coverage set, payload): the id-free form of a
# candidate rule used by ``RuleGenerator``, which selects *before*
# materializing SequenceRule objects. ``order`` is the candidate's creation
# index within its pool and stands in for the rule-id tiebreak: freshly
# generated rule ids ("seq-000123") are zero-padded, so their lexicographic
# order in greedy_select is exactly creation order. The coverage set holds
# row ids, or — with a ``weights`` argument — deduplicated representative
# ids whose weights count the underlying rows (see ``rulegen.corpus``).
Entry = Tuple[float, int, Set[int], Any]


def greedy_select(
    rules: Sequence[SequenceRule],
    coverage: CoverageMap,
    q: int,
) -> List[SequenceRule]:
    """Algorithm 1: Greedy(R, D, q).

    Deterministic: ties on the (new coverage x confidence) objective break
    by higher confidence, then rule id.
    """
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    selected: List[SequenceRule] = []
    covered: Set[int] = set()
    remaining = list(rules)
    while remaining and len(selected) < q:
        best_rule = None
        best_key: Tuple[float, float, str] = (-1.0, -1.0, "")
        for rule in remaining:
            new_coverage = len(coverage.get(rule.rule_id, set()) - covered)
            key = (new_coverage * rule.confidence, rule.confidence, rule.rule_id)
            if key > best_key:
                best_key = key
                best_rule = rule
        gained = coverage.get(best_rule.rule_id, set()) - covered
        if not gained:
            return selected
        selected.append(best_rule)
        covered |= gained
        remaining.remove(best_rule)
    return selected


def greedy_biased_select(
    rules: Sequence[SequenceRule],
    coverage: CoverageMap,
    q: int,
    alpha: float = 0.7,
) -> Tuple[List[SequenceRule], List[SequenceRule]]:
    """Algorithm 2: Greedy-Biased(R, D, q).

    Returns (high_confidence_selected, low_confidence_selected); the low
    pool is only consulted for titles the high pool left uncovered, and only
    up to the remaining quota.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    high = [rule for rule in rules if rule.confidence >= alpha]
    low = [rule for rule in rules if rule.confidence < alpha]
    selected_high = greedy_select(high, coverage, q)
    selected_low: List[SequenceRule] = []
    if len(selected_high) < q:
        covered_by_high: Set[int] = set()
        for rule in selected_high:
            covered_by_high |= coverage.get(rule.rule_id, set())
        residual_coverage: CoverageMap = {
            rule.rule_id: coverage.get(rule.rule_id, set()) - covered_by_high
            for rule in low
        }
        selected_low = greedy_select(low, residual_coverage, q - len(selected_high))
    return selected_high, selected_low


def greedy_select_entries(
    entries: Sequence[Entry],
    q: int,
    weights: Optional[Sequence[int]] = None,
    totals: Optional[Dict[int, int]] = None,
    covered: Optional[Set[int]] = None,
) -> List[Entry]:
    """Algorithm 1 over id-free :data:`Entry` tuples.

    Step-for-step the same procedure as :func:`greedy_select` — same
    objective, same ``(score, confidence, order)`` tiebreak (``order``
    replaces ``rule_id``; see :data:`Entry`), same stop-on-zero-gain — so
    selecting entries then materializing rules yields exactly the rules
    :func:`greedy_select` would have picked.

    With ``weights``, coverage sets hold representative ids and the
    objective counts ``sum(weights[id] for id in new_ids)`` instead of set
    cardinality. Because each rep's rows are covered all-or-nothing, the
    weighted rep objective equals the row objective exactly, so the same
    entries are selected in the same order — without ever materializing
    the (much larger) row sets. ``totals`` may supply each entry's total
    coverage weight keyed by order index (callers that mined the entries
    already know it as the support count); otherwise it is computed once.

    ``covered`` pre-seeds the covered set (and is consumed — mutated in
    place): selecting against pre-covered ids is identical to selecting
    over per-entry residual coverage sets, without materializing them.
    """
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    selected: List[Entry] = []
    if q == 0 or not entries:
        return selected
    if covered is None:
        covered = set()
    if weights is not None and totals is None:
        # Per-entry total weight, keyed by the (pool-unique) order index;
        # entries disjoint from the covered set short-circuit to it.
        totals = {
            entry[1]: sum(weights[i] for i in entry[2]) for entry in entries
        }
    # Lazy (CELF-style) greedy: an entry's marginal coverage only shrinks
    # as the covered set grows, so a key computed in an earlier round is
    # an upper bound on the current one. Keep entries in a max-heap under
    # their last-computed key; when the popped top was computed against
    # the *current* covered set it beats every other upper bound and is
    # exactly the argmax the full scan would have found (the
    # ``(value, confidence, order)`` tiebreak rides along in the key).
    by_order = {entry[1]: entry for entry in entries}
    # With a pre-seeded covered set the full-coverage keys are stale
    # upper bounds, not round-0 values — tag them as such so every entry
    # is re-scored against ``covered`` before it can be selected.
    initial_round = -1 if covered else 0
    heap: List[Tuple[float, float, int, int]] = []
    for entry in entries:
        confidence, order, coverage_ids = entry[0], entry[1], entry[2]
        base = totals[order] if weights is not None else len(coverage_ids)
        heap.append((-(base * confidence), -confidence, -order, initial_round))
    heapq.heapify(heap)
    rounds = 0
    while heap and len(selected) < q:
        neg_value, neg_confidence, neg_order, computed_at = heapq.heappop(heap)
        entry = by_order[-neg_order]
        if computed_at != rounds:
            confidence, order, coverage_ids = entry[0], entry[1], entry[2]
            if weights is None:
                new_coverage = len(coverage_ids - covered)
            elif covered.isdisjoint(coverage_ids):
                new_coverage = totals[order]
            else:
                new_coverage = sum(
                    weights[i] for i in coverage_ids if i not in covered
                )
            heapq.heappush(
                heap,
                (-(new_coverage * confidence), neg_confidence, neg_order,
                 rounds),
            )
            continue
        gained = entry[2] - covered
        if not gained:
            return selected
        selected.append(entry)
        covered |= gained
        rounds += 1
    return selected


def greedy_biased_select_entries(
    entries: Sequence[Entry],
    q: int,
    alpha: float = 0.7,
    weights: Optional[Sequence[int]] = None,
    totals: Optional[Dict[int, int]] = None,
) -> Tuple[List[Entry], List[Entry]]:
    """Algorithm 2 over id-free :data:`Entry` tuples.

    Mirrors :func:`greedy_biased_select`: exhaust the high-confidence pool,
    then offer the low pool only the residual coverage and remaining
    quota — by seeding the low-pool selection with the high pool's covered
    ids, which is identical to materializing per-entry residual sets.
    ``weights`` switches both pools to the weighted-rep objective and
    ``totals`` (the full-coverage weights, valid for both pools) skips the
    round-one summing; see :func:`greedy_select_entries`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    high = [entry for entry in entries if entry[0] >= alpha]
    low = [entry for entry in entries if entry[0] < alpha]
    selected_high = greedy_select_entries(high, q, weights, totals)
    selected_low: List[Entry] = []
    if len(selected_high) < q:
        covered_by_high: Set[int] = set()
        for entry in selected_high:
            covered_by_high |= entry[2]
        selected_low = greedy_select_entries(
            low, q - len(selected_high), weights, totals,
            covered=covered_by_high,
        )
    return selected_high, selected_low
