"""Partitioned EM rule execution.

Section 5.3: "Regarding entity matching, we are currently developing a
solution that can execute a set of matching rules efficiently on a cluster
of machines, over a large amount of data." The cluster is simulated
in-process: candidate pairs are sharded, and rules reach each shard as
their DSL source strings (EM predicates close over functions and could not
be shipped to a real worker) and are re-parsed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set, Tuple

from repro.em.records import Record
from repro.em.rules import EmRule, parse_em_rule


@dataclass(frozen=True)
class EmShardReport:
    """Per-shard EM outcome."""

    shard_id: int
    pairs: int
    matches: int


def _run_em_shard(
    shard_id: int,
    rule_sources: List[str],
    pairs: List[Tuple[Record, Record]],
) -> Tuple[int, Set[FrozenSet], int]:
    from repro.em.matcher import RuleBasedMatcher

    rules = [parse_em_rule(source) for source in rule_sources]
    matcher = RuleBasedMatcher(rules)
    matches = matcher.match(pairs)
    return shard_id, matches, len(pairs)


class PartitionedEmMatcher:
    """Shards candidate pairs across workers, merges the match sets."""

    def __init__(
        self,
        rule_sources: Sequence[str],
        n_workers: int = 4,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not rule_sources:
            raise ValueError("matcher needs at least one rule source")
        # Validate eagerly: a bad rule should fail at construction, not on
        # a remote worker mid-job.
        parsed = [parse_em_rule(source) for source in rule_sources]
        if all(rule.is_no_match for rule in parsed):
            raise ValueError("matcher needs at least one match rule")
        self.rule_sources = list(rule_sources)
        self.n_workers = n_workers

    def match(
        self, pairs: Sequence[Tuple[Record, Record]]
    ) -> Tuple[Set[FrozenSet], List[EmShardReport]]:
        shards: List[List[Tuple[Record, Record]]] = [
            [] for _ in range(self.n_workers)
        ]
        for index, pair in enumerate(pairs):
            shards[index % self.n_workers].append(pair)

        outputs = [
            _run_em_shard(shard_id, self.rule_sources, shard)
            for shard_id, shard in enumerate(shards)
        ]

        merged: Set[FrozenSet] = set()
        reports: List[EmShardReport] = []
        for shard_id, matches, n_pairs in sorted(outputs):
            merged |= matches
            reports.append(EmShardReport(shard_id, n_pairs, len(matches)))
        return merged, reports
