"""The checkpoint's two codecs are lossless, property-tested.

Checkpoint v4 writes RNG states packed (``_rng_dump``: version, base64 of
625 little-endian words, ``gauss_next``) and the metrics registry as
column families (``MetricsRegistry.dump``), deriving the rule-label
admission set from the ``rule_fired_total`` series instead of listing it.
Both are only worth their bytes if nothing is lost, so, through a JSON
round trip as the daemon does it:

* ``load(dump(r))`` holds every instrument of ``r`` slot for slot, the
  same admission set, and keeps deciding admissions as ``r`` would;
  ``dump(load(d)) == d``;
* a restored RNG draws the same next 1,000 values as the original, from
  states taken after ``random()``, ``gauss()`` (a pending ``gauss_next``)
  and ``getrandbits``.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.service.daemon import _rng_dump, _rng_load

NAMES = ("rule_fired_total", "exec_runs_total", "span_seconds", "x")
LABEL_KEYS = ("rule_id", "stage", "executor", "fn")
BUCKETS = (DEFAULT_BUCKETS, (1, 10, 100), (0.25,))

label_values = st.text(
    alphabet=st.sampled_from(list("ab1,={} ") + ["é", "ü", "日", "✓"]), max_size=5
)
labels = st.dictionaries(st.sampled_from(LABEL_KEYS), label_values, max_size=3)
numbers = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)
rule_ids = st.sampled_from(["r1", "r2", "r3", "r4", "r5", "__other__"])

operations = st.lists(
    st.one_of(
        st.tuples(st.just("counter"), st.sampled_from(NAMES), labels,
                  st.integers(min_value=0, max_value=10**9)),
        st.tuples(st.just("gauge"), st.sampled_from(NAMES), labels, numbers),
        st.tuples(st.just("histogram"), st.sampled_from(NAMES), labels,
                  st.sampled_from(BUCKETS), st.none() | numbers),
        st.tuples(st.just("fires"),
                  st.dictionaries(rule_ids, st.integers(min_value=0, max_value=50))),
        st.tuples(st.just("admit"), rule_ids),
    ),
    max_size=30,
)


def apply(registry: MetricsRegistry, ops) -> None:
    for op, *args in ops:
        if op == "counter":
            name, label_set, amount = args
            registry.counter(name, **label_set).inc(amount)
        elif op == "gauge":
            name, label_set, value = args
            registry.gauge(name, **label_set).set(value)
        elif op == "histogram":
            name, label_set, buckets, value = args
            hist = registry.histogram(name, buckets=buckets, **label_set)
            if value is not None:
                hist.observe(value)
        elif op == "fires":
            registry.observe_rule_fires(args[0])
        else:  # an admission that never gets a series
            registry.rule_label(args[0])


def state_of(registry: MetricsRegistry) -> dict:
    def slots(instrument) -> dict:
        return {slot: getattr(instrument, slot) for slot in type(instrument).__slots__}

    return {
        "max_rule_labels": registry.max_rule_labels,
        "rule_label_ids": set(registry._rule_label_ids),
        **{
            kind: {key: slots(instrument) for key, instrument in table.items()}
            for kind, table in (
                ("counters", registry._counters),
                ("gauges", registry._gauges),
                ("histograms", registry._histograms),
            )
        },
    }


def through_json(payload):
    return json.loads(json.dumps(payload, sort_keys=True, separators=(",", ":")))


class TestMetricsCodec:
    @given(cap=st.integers(min_value=1, max_value=4), ops=operations, more=operations)
    @settings(max_examples=200, deadline=None)
    def test_load_of_dump_is_the_registry(self, cap, ops, more):
        registry = MetricsRegistry(max_rule_labels=cap)
        apply(registry, ops)
        dumped = through_json(registry.dump())
        clone = MetricsRegistry.load(dumped)
        assert state_of(clone) == state_of(registry)
        assert clone.snapshot() == registry.snapshot()
        assert clone.dump() == dumped
        # Admission is first-come: the clone keeps deciding as the original.
        apply(registry, more)
        apply(clone, more)
        assert state_of(clone) == state_of(registry)

    @given(cap=st.integers(min_value=1, max_value=4), ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_dump_of_load_is_the_document(self, cap, ops):
        registry = MetricsRegistry(max_rule_labels=cap)
        apply(registry, ops)
        document = through_json(registry.dump())
        assert through_json(MetricsRegistry.load(document).dump()) == document


def draws(rng: random.Random, n: int = 1000) -> list:
    kinds = (rng.random, lambda: rng.gauss(0.0, 1.0), lambda: rng.getrandbits(70))
    return [kinds[i % 3]() for i in range(n)]


class TestRngCodec:
    @given(
        seed=st.integers(min_value=0, max_value=2**128),
        warmup=st.lists(st.sampled_from(["random", "gauss", "getrandbits"]), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_restored_rng_draws_the_same_values(self, seed, warmup):
        rng = random.Random(seed)
        for kind in warmup:
            if kind == "random":
                rng.random()
            elif kind == "gauss":
                rng.gauss(0.0, 1.0)
            else:
                rng.getrandbits(97)
        encoded = through_json(_rng_dump(rng))
        clone = random.Random()
        _rng_load(clone, {"rng": encoded}, "rng")
        assert clone.getstate() == rng.getstate()
        assert _rng_dump(clone) == encoded
        assert draws(clone) == draws(rng)

    def test_pending_gauss_survives(self):
        rng = random.Random(7)
        rng.gauss(0.0, 1.0)
        assert rng.getstate()[2] is not None  # the pair's second half
        encoded = through_json(_rng_dump(rng))
        assert encoded[2] == rng.getstate()[2] and len(encoded[1]) == 3336
        clone = random.Random()
        _rng_load(clone, {"rng": encoded}, "rng")
        assert clone.gauss(0.0, 1.0) == rng.gauss(0.0, 1.0)
        assert draws(clone) == draws(rng)
