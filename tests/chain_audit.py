"""From-scratch references for the fired-map fingerprint and the digest chain.

The served path never walks the whole fired map any more: the executor
patches an additive fingerprint row by row and the daemon chains over that
fingerprint. These two functions recompute both the slow way, from a plain
``item_id -> sorted rule ids`` dict, so tests can prove the patched values
are the plain ones.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List


def fingerprint_from_scratch(fired: Dict[str, List[str]]) -> str:
    """Σ sha256(canonical ``[item_id, rule_ids]``) mod 2**256, as 64 hex
    digits — what ``IncrementalExecutor.fired_fingerprint()`` must return
    for this map, computed with no shared code."""
    total = 0
    for item_id, rule_ids in fired.items():
        row = json.dumps([item_id, list(rule_ids)], separators=(",", ":"))
        total += int(hashlib.sha256(row.encode("utf-8")).hexdigest(), 16)
    return f"{total % (1 << 256):064x}"


def whole_map_chain_link(
    previous: str, batch_id: str, fired: Dict[str, List[str]]
) -> str:
    """The digest-chain step of checkpoint versions 1-2, verbatim: sha256
    over the previous value, the batch id and the canonical JSON of the
    whole fired map after that batch. Kept as the audit that a version-3
    chain and a version-2 chain certify the same sequence of maps."""
    payload = json.dumps(
        {item: list(rules) for item, rules in fired.items()},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256((previous + batch_id + payload).encode("utf-8")).hexdigest()
