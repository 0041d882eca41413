"""A served corpus row holds what rules read; the journal holds the record.

The daemon's corpus keeps each row's item id, title and tokens as flat
columns; each record is read back from the batch journal by the few paths
that need more (a UDF over the description, the first attribute rule), and
classifying an arriving item shares its row's tokens, so the title is
tokenized once however many stages read it — by the corpus, past the text
LRUs.
"""

from __future__ import annotations

import json

import pytest

from repro.catalog.types import ProductItem
from repro.core import AttributeRule, Clause, PredicateRule, ValueConstraintRule
from repro.core.durability import read_lines
from repro.core.prepared import PreparedItem
from repro.execution import NaiveExecutor
from repro.service import ServiceConfig, StreamService
from repro.service.daemon import _item_from_dict
from repro.utils import text
from repro.utils.text import normalize_text, tokenize_cached


def _journalled(service: StreamService) -> list:
    return [
        _item_from_dict(payload)
        for _, line in read_lines(service.store.journal_path)
        for payload in json.loads(line)["items"]
    ]


def test_resumed_root_reads_records_back_for_udf_and_attribute_rules(tmp_path):
    """On a resumed ``training=0`` root no corpus column holds a record or
    a view; a UDF rule over the description and attribute / value rules,
    added to the tracker, give the fired map ``NaiveExecutor`` gives over
    the journalled items."""
    root = str(tmp_path / "run")
    with StreamService(root, ServiceConfig(seed=7, training=0), fsync=False) as service:
        service.run(5)
    with StreamService(root, fsync=False) as service:
        tracker = service.incremental
        assert service.resident()["records_held"] == 0
        assert not [
            value
            for column in vars(tracker._data_index).values() if isinstance(column, list)
            for value in column if isinstance(value, (ProductItem, PreparedItem))
        ]
        home = Clause("udf(home)", lambda item: "home department" in item.description)
        tracker.add_rules([
            PredicateRule([home], "home goods", rule_id="t-udf"),
            AttributeRule("color", "paint", rule_id="t-attr"),
            ValueConstraintRule("size", "XL", ["area rugs"], rule_id="t-value"),
        ])
        fired = tracker.fired_map()
        items = _journalled(service)
        assert fired == NaiveExecutor(tracker.rules()).run(items)[0]
        assert {"t-udf", "t-attr", "t-value"} <= {r for row in fired.values() for r in row}


@pytest.mark.gates
@pytest.mark.parametrize("training", [0, 120], ids=["rules-only", "learner"])
def test_one_tokenization_per_served_item(tmp_path, monkeypatch, training):
    """Admission tokenizes a served title once, in the corpus and past the
    text LRUs; the gate, every stage — the learner included — and the
    filter share that row's tokens. Over 6 batches after 3 of warm-up:
    exactly one call of the tokenizer body per item, and neither LRU
    holds one entry more (a served title used to enter both)."""
    text.clear_caches()  # a cache another test pinned at its bound cannot grow
    calls = []
    tokens_of = text._tokens_of
    monkeypatch.setattr(
        text, "_tokens_of",
        lambda normalized, drop: calls.append(normalized) or tokens_of(normalized, drop),
    )

    def filled():
        return tokenize_cached.cache_info().currsize, normalize_text.cache_info().currsize

    root = str(tmp_path / "run")
    with StreamService(
        root, ServiceConfig(seed=7, training=training), fsync=False
    ) as service:
        service.run(3)
        before, items = filled(), service.totals["items"]
        calls.clear()
        service.run(6)
        assert len(calls) == service.totals["items"] - items > 0
        assert filled() == before
