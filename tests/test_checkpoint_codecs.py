"""The checkpoint's two codecs are lossless, property-tested.

Checkpoint v7 writes each RNG as a position (``_RngPosition.dump``: the
32-bit words drawn since the post-startup state, a 16-hex digest of that
state, and ``gauss_next`` when one is pending) and the metrics registry as
column families (``MetricsRegistry.dump``), deriving the rule-label
admission set from the ``rule_fired_total`` series instead of listing it.
Both are only worth their bytes if nothing is lost, so, through a JSON
round trip as the daemon does it:

* ``load(dump(r))`` holds every instrument of ``r`` slot for slot, the
  same admission set, and keeps deciding admissions as ``r`` would;
  ``dump(load(d)) == d``;
* for any program of ``random()``, ``getrandbits(k <= 96)``, ``choice``,
  ``randint``, ``expovariate``, ``shuffle`` and ``gauss`` — from no word
  drawn to more than three twists of the key, with positions dumped along
  the way — the count is exactly the words drawn, and the seed plus a
  skip of that many words (``_rng_seek``) rebuilds ``getstate()``,
  a pending ``gauss_next`` included, so the rebuilt RNG draws what the
  original draws;
* a position that does not rebuild its state — a tampered count or
  digest, a count that is not a non-negative int, an unknown key, a
  ``gauss_next`` that is not a float — is refused naming the field.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.observability.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.service.daemon import _rng_seek, _RngPosition

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


#: One step of an RNG program: a call and how many times to repeat it.
calls = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 700)),
    st.tuples(st.just("getrandbits"), st.integers(0, 700), st.integers(0, 96)),
    st.tuples(st.just("choice"), st.integers(0, 300), st.integers(1, 5000)),
    st.tuples(st.just("randint"), st.integers(0, 300), st.integers(0, 2**40)),
    st.tuples(st.just("expovariate"), st.integers(0, 300)),
    st.tuples(st.just("shuffle"), st.integers(0, 20), st.integers(0, 60)),
    st.tuples(st.just("gauss"), st.integers(0, 3)),
    st.just(("dump",)),
)


def run(rng: random.Random, position: _RngPosition, program) -> list:
    """Run ``program`` on ``rng``; returns every position dumped on the way."""
    dumped = []
    for op, *args in program:
        times = args[0] if args else 1
        for _ in range(times):
            if op == "random":
                rng.random()
            elif op == "getrandbits":
                rng.getrandbits(args[1])
            elif op == "choice":
                rng.choice(range(args[1]))
            elif op == "randint":
                rng.randint(0, args[1])
            elif op == "expovariate":
                rng.expovariate(1.5)
            elif op == "shuffle":
                rng.shuffle(list(range(args[1])))
            elif op == "gauss":
                rng.gauss(0.0, 1.0)
            else:
                dumped.append(through_json(position.dump()))
    return dumped


def seek(seed: int, position: dict) -> random.Random:
    clone = random.Random(seed)
    _rng_seek(clone, {"rng": position}, "rng")
    return clone


MANY_TWISTS = [("random", 700), ("dump",), ("getrandbits", 700, 96), ("shuffle", 3, 60)]


class TestRngCodec:
    @given(seed=st.integers(min_value=0, max_value=2**128), program=st.lists(calls, max_size=8))
    @example(seed=7, program=[])
    @example(seed=7, program=MANY_TWISTS)
    @settings(max_examples=60, deadline=None)
    def test_restored_rng_draws_the_same_values(self, seed, program):
        rng = random.Random(seed)
        position = _RngPosition(rng)
        dumped = run(rng, position, program)
        final = through_json(position.dump())
        for earlier in dumped:
            assert earlier["drawn"] <= final["drawn"]
        clone = seek(seed, final)
        assert clone.getstate() == rng.getstate()
        assert draws(clone) == draws(rng)

    def test_the_count_is_the_words_drawn(self):
        """Over no twist, one, and many, with a dump between any two."""
        rng = random.Random(11)
        position = _RngPosition(rng)
        drawn = 0
        for words in (0, 1, 5, 623, 1, 624, 625, 1248, 3 * 624 + 7, 0, 4000, 2):
            rng.getrandbits(32 * words)
            drawn += words
            assert position.dump()["drawn"] == drawn
        assert drawn > 4 * 624

    def test_pending_gauss_survives(self):
        rng = random.Random(7)
        position = _RngPosition(rng)
        rng.random()
        rng.gauss(0.0, 1.0)
        assert rng.getstate()[2] is not None  # the pair's second half
        encoded = through_json(position.dump())
        assert encoded["gauss_next"] == rng.getstate()[2]
        assert encoded["drawn"] == 2 + 4  # random() and two for the pair
        clone = seek(7, encoded)
        assert clone.getstate() == rng.getstate()
        assert clone.gauss(0.0, 1.0) == rng.gauss(0.0, 1.0)
        # The pair is spent: the field is gone again.
        assert "gauss_next" not in position.dump()
        assert draws(clone) == draws(rng)

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda p: p.__setitem__("drawn", p["drawn"] + 1), r"'rng\.check' is '[0-9a-f]{16}', but \d+ words"),
            (lambda p: p.__setitem__("drawn", p["drawn"] - 1), r"'rng\.check' is"),
            (lambda p: p.__setitem__("check", "0" * 16), r"'rng\.check' is '0{16}'"),
            (lambda p: p.__setitem__("drawn", float(p["drawn"])), r"'rng\.drawn' is \d+\.0; expected a word count"),
            (lambda p: p.__setitem__("drawn", str(p["drawn"])), r"'rng\.drawn' is '\d+'"),
            (lambda p: p.__setitem__("drawn", True), r"'rng\.drawn' is True"),
            (lambda p: p.__setitem__("drawn", -1), r"'rng\.drawn' is -1"),
            (lambda p: p.pop("check"), r"'rng\.check' is missing"),
            (lambda p: p.__setitem__("state", [3]), r"'rng\.state' is not a position field"),
            (lambda p: p.__setitem__("gauss_next", "0.5"), r"'rng\.gauss_next' is '0\.5'"),
        ],
        ids=[
            "drawn-one-more", "drawn-one-less", "check-edited", "drawn-float",
            "drawn-string", "drawn-bool", "drawn-negative", "check-missing",
            "unknown-key", "gauss-not-float",
        ],
    )
    def test_a_position_that_does_not_rebuild_its_state_is_refused(self, damage, match):
        rng = random.Random(3)
        position = _RngPosition(rng)
        rng.getrandbits(32 * 2000)
        encoded = through_json(position.dump())
        damage(encoded)
        with pytest.raises(ValueError, match=match):
            seek(3, encoded)

    def test_a_packed_state_is_not_a_position(self):
        """What v4-v6 wrote, ``[3, base64, gauss_next]``, is refused."""
        with pytest.raises(ValueError, match=r"'rng' is not a \{drawn, check\} position"):
            seek(3, [3, "AAAA", None])
