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

from typing import Dict, List, Sequence, Set, Tuple

import numpy as _np

from repro.core.rule import SequenceRule

# rule_id -> set of covered item/title indices.
CoverageMap = Dict[str, Set[int]]


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


def gather_slices(values, lo, hi):
    """CSR of ``values[lo[i]:hi[i]]`` for every ``i``: ``(indptr, data)``."""
    lengths = hi - lo
    indptr = _np.zeros(lengths.size + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=indptr[1:])
    take = _np.repeat(lo - indptr[:-1], lengths) + _np.arange(indptr[-1])
    return indptr, values[take]


def greedy_select_slices(confidence, lo, hi, ids, uncovered, q: int) -> List[int]:
    """Algorithm 1 over candidate columns; returns row numbers in pick order.

    Candidate ``i`` covers the ids ``ids[lo[i]:hi[i]]``; ``uncovered[id]``
    is the weight an id still contributes (its row count, for weighted
    representatives — each rep's rows are covered all-or-nothing, so the
    weighted objective equals the row objective exactly). Step for step
    :func:`greedy_select`: every round re-scores all candidates
    (``gain * confidence``, the same float64 product), takes the maximum
    under the ``(score, confidence, order)`` tiebreak — row order stands
    in for the rule-id order of freshly numbered rules — and stops on a
    zero gain. ``uncovered`` is consumed: picked candidates' ids are
    zeroed in place, so a second call over it selects against the
    residual coverage, which is how Algorithm 2 seeds its low pool.
    """
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    selected: List[int] = []
    if not len(confidence):
        return selected
    indptr, covers = gather_slices(ids, lo, hi)
    picked = _np.zeros(len(confidence), dtype=bool)
    running = _np.zeros(covers.size + 1, dtype=_np.int64)
    while len(selected) < q:
        _np.cumsum(uncovered[covers], out=running[1:])
        gain = running[indptr[1:]] - running[indptr[:-1]]
        score = gain * confidence
        score[picked] = -1.0
        ties = _np.flatnonzero(score == score.max())
        if ties.size > 1:
            ties = ties[confidence[ties] == confidence[ties].max()]
        best = int(ties[-1])
        if picked[best] or not gain[best]:
            break
        selected.append(best)
        picked[best] = True
        uncovered[covers[indptr[best]:indptr[best + 1]]] = 0
    return selected


def greedy_biased_select_slices(
    confidence, lo, hi, ids, uncovered, q: int, alpha: float = 0.7
) -> Tuple[List[int], List[int]]:
    """Algorithm 2 over candidate columns: ``(high rows, low rows)``.

    Mirrors :func:`greedy_biased_select`: exhaust the pool at
    ``confidence >= alpha``, then offer the rest only the residual
    coverage (``uncovered``, as the high pool left it) and the remaining
    quota.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    selected = []
    for pool in (confidence >= alpha, confidence < alpha):
        rows = _np.flatnonzero(pool)
        picks = greedy_select_slices(
            confidence[rows], lo[rows], hi[rows], ids, uncovered,
            q - sum(map(len, selected)),
        )
        selected.append(rows[picks].tolist())
    return selected[0], selected[1]
