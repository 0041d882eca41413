"""``classify_batch`` against the same items as one-item batches.

A one-item batch is where the bulk guard degenerates to the per-item
guard (one item booked, or that one item answered call by call), so
running a batch's items one ``classify_item`` at a time — then closing the
health batch once — is the plain path the batch-shaped one must equal:
labels, sources, provenance records and spool bytes, breaker accounting,
the ``stage_*_total`` counters and the health tracker's windows.

Two things are stage-major in a batch and item-major in the oracle, by
design: the order of ``health.faults`` / ``health.events`` when two
stages fail in one batch, and span structure. Neither is compared.
"""

import itertools
import json

import pytest

from repro.catalog.types import ProductItem
from repro.chimera.monitoring import BreakerState
from repro.chimera.pipeline import BatchResult
from repro.core import parse_rules
from repro.observability import Observability
from repro.observability.provenance import ProvenanceLog
from repro.observability.quality import RuleHealthTracker
from repro.service import ServiceConfig, StreamService
from repro.world import RunIds, build_world

COUNTERS = ("stage_success_total", "stage_failure_total", "stage_routed_around_total")
STAGES = ("rule-based", "attr-value", "learning")


def _rules(prefix, text):
    """Parsed rules under ids that do not depend on what ran before."""
    rules = parse_rules(text)
    for number, rule in enumerate(rules):
        rule.rule_id = f"{prefix}-{number}"
    return rules


class _Side:
    """One pipeline plus everything the comparison reads off it."""

    def __init__(self, root, learner, tracked, telemetry, observed):
        self.obs = Observability() if observed else None
        world = build_world(
            5, RunIds("dif"), training=120 if learner else 0, min_examples=2,
            mean_gap_hours=6.0, observability=self.obs,
        )
        self.generator = world.generator
        chimera = self.chimera = world.chimera
        chimera.health.failure_threshold = 3
        chimera.health.cooldown = 5
        chimera.add_whitelist_rules(world.startup_rules)
        chimera.add_attribute_rules(_rules(
            "attr", "attr(isbn) -> books\n"
            "value(brand_name)=apple -> laptop computers|smart phones"
        ))
        chimera.add_blacklist_rules(_rules("veto", "toy -> NOT rings"))
        chimera.gatekeeper.bypass_rules.extend(_rules("gate", "gift cards? -> gift cards"))
        self.spool = root / "provenance.jsonl"
        if telemetry:
            metrics = self.obs.metrics if observed else None
            chimera.enable_quality_telemetry(
                ProvenanceLog(capacity=10_000, spool=str(self.spool), fsync=False),
                RuleHealthTracker(metrics=metrics),
            )
        if tracked:
            chimera.track_fired_map("rule-based")
        self.opened = []
        chimera.health.on_breaker_open.append(self.opened.append)
        self.outcomes = []

    def arrive(self, items):
        tracker = self.chimera.fired_trackers.get("rule-based")
        if tracker is not None:
            tracker.add_items(items)

    def note(self, result):
        self.outcomes.append((
            [(r.item.item_id, r.label, r.source) for r in result.results],
            [item.item_id for item in result.rejected],
            result.n_classified, result.n_declined, dict(result.sources),
        ))

    def batch(self, items, batch_id):
        self.arrive(items)
        self.note(self.chimera.classify_batch(items, batch_id=batch_id))

    def one_by_one(self, items, batch_id):
        """The oracle: every item its own one-item batch."""
        self.arrive(items)
        result = BatchResult()
        for item in items:
            item_result = self.chimera.classify_item(item, batch_id=batch_id)
            if item_result is None:
                result.rejected.append(item)
            else:
                result.add(item_result)
        self.chimera._batch_counter += 1
        if self.chimera.rule_health is not None:
            self.chimera.rule_health.finish_batch(batch_id, len(items))
        self.note(result)

    def view(self):
        health = self.chimera.health
        out = {
            "outcomes": self.outcomes,
            "health": health.report(),
            "breakers": {
                name: (b.state, b.consecutive_failures, b._cooldown_remaining,
                       b.total_successes, b.total_failures, b.transitions)
                for name, b in health._breakers.items()
            },
            "opened": sorted(self.opened),
            "faults": sorted((f.stage, f.error) for f in health.faults),
            "batch_counter": self.chimera._batch_counter,
        }
        if self.chimera.provenance is not None:
            self.chimera.provenance.close()
            out["records"] = self.chimera.provenance.records
            out["spool"] = self.spool.read_bytes()
            out["tracker"] = json.dumps(
                self.chimera.rule_health.state_dict(), sort_keys=True
            )
        if self.obs is not None:
            metrics = self.obs.metrics
            out["counters"] = {
                (name, stage): metrics.counter(name, stage=stage).value
                for name in COUNTERS for stage in STAGES
            }
            out["gauges"] = {
                stage: metrics.gauge("stage_breaker_state", stage=stage).value
                for stage in STAGES
            }
            for tracker in self.chimera.fired_trackers.values():
                out["rule_evals"] = tracker.stats.rule_evaluations
        return out


def _batches(generator, n_batches=3, size=40):
    """Catalog items with a rejected, a bypassed, a constrained, a vetoed
    and two same-id items mixed into every batch."""
    batches = []
    for number in range(n_batches):
        items = generator.generate_items(size)
        extras = [
            ProductItem(f"x{number}-blank", "   "),
            ProductItem(f"x{number}-gift", "holiday gift card 50"),
            ProductItem(f"x{number}-apple", "macbook pro 13", {"brand_name": "apple"}),
            ProductItem(f"x{number}-isbn", "mystery novel", {"isbn": "978"}),
            ProductItem(f"x{number}-toy", "toy ring for kids"),
            ProductItem(items[0].item_id, "diamond ring white gold"),  # re-listed id
            ProductItem(f"x{number}-dup", "denim jeans relaxed"),
            ProductItem(f"x{number}-dup", "area rug 5x7"),
        ]
        for offset, extra in enumerate(extras):
            items.insert(3 + 4 * offset, extra)
        batches.append(items)
    return batches


def _assert_same(batched, plain, raised=False):
    got, want = batched.view(), plain.view()
    assert got.keys() == want.keys()
    if raised and "rule_evals" in want:
        # A batch call that raised had evaluated the rows the store does not
        # hold (shadowed duplicate ids) before it was answered item by item.
        assert got.pop("rule_evals") >= want.pop("rule_evals")
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize(
    "learner, tracked, telemetry, observed",
    [combo for combo in itertools.product([True, False], repeat=4)
     # the metrics-side comparisons need a registry; cover both without the
     # full cross product: observed everywhere except two untraced corners
     if combo[3] or combo in [(True, True, True, False), (False, False, False, False)]],
)
def test_batch_equals_one_item_batches(tmp_path, learner, tracked, telemetry, observed):
    sides = [
        _Side(tmp_path / name, learner, tracked, telemetry, observed)
        for name in ("batched", "plain")
        if (tmp_path / name).mkdir() is None
    ]
    batched, plain = sides
    for number, items in enumerate(_batches(batched.generator)):
        if number == 1:  # operator actions between batches
            for side in sides:
                side.chimera.learning_stage.suppressed_types.add("rings")
                side.chimera.voting.suppressed_types.add("jeans")
        if number == 2:
            for side in sides:
                side.chimera.attr_stage.enabled = False
        batched.batch(items, f"b-{number}")
        plain.one_by_one(items, f"b-{number}")
    _assert_same(batched, plain)
    classified = sum(outcome[2] for outcome in batched.outcomes)
    assert classified > 30  # the comparison is not vacuous


def _poison(side, stage_name, poisoned_ids):
    """Make one stage raise on chosen items, the way a bad rule or a bad
    model input does: from inside its evaluation."""
    chimera = side.chimera
    if stage_name == "learning":
        ensemble = chimera.learning_stage.ensemble
        original = ensemble.predict_batch
        titles = {
            title for item_id, title in side.titles.items() if item_id in poisoned_ids
        }

        def predict_batch(batch):
            if titles.intersection(batch):
                raise RuntimeError("model input unreadable")
            return original(batch)

        ensemble.predict_batch = predict_batch
    else:
        matcher = chimera._rule_holder(stage_name).matcher
        original = matcher.verdict

        def verdict(item):
            if item.item_id in poisoned_ids:
                raise RuntimeError("rule dictionary corrupted")
            return original(item)

        matcher.verdict = verdict


@pytest.mark.parametrize("stage_name", ["attr-value", "learning", "rule-based"])
@pytest.mark.parametrize("tracked", [True, False])
def test_raising_stage_keeps_item_accounting(tmp_path, stage_name, tracked):
    """Poison items mid-batch: the threshold is reached inside batch 0, the
    breaker is OPEN when batch 1 starts (its cooldown runs out inside it, a
    probe re-closes or re-opens it), and HALF_OPEN when batch 2 starts."""
    sides = [
        _Side(tmp_path / name, True, tracked, True, True)
        for name in ("batched", "plain")
        if (tmp_path / name).mkdir() is None
    ]
    batched, plain = sides
    batches = _batches(batched.generator, size=24)
    passing = [
        [item.item_id for item in items if item.title.strip() and "gift" not in item.title]
        for items in batches
    ]
    poisoned = set(passing[0][5:8]) | set(passing[1][20:22]) | {passing[2][2]}
    for side in sides:
        if stage_name == "learning":
            side.chimera.health.failure_threshold = 1
        side.titles = {item.item_id: item.title for items in batches for item in items}
        _poison(side, stage_name, poisoned)
    for number, items in enumerate(batches):
        if number == 2:
            for side in sides:  # drive the breaker to HALF_OPEN by hand
                health = side.chimera.health
                breaker = health.breaker(stage_name)
                while breaker.state is not BreakerState.OPEN:
                    health.record_failure(stage_name, RuntimeError("manual"))
                while breaker.state is not BreakerState.HALF_OPEN:
                    health.allow(stage_name)
        batched.batch(items, f"b-{number}")
        plain.one_by_one(items, f"b-{number}")
        if number == 0 and stage_name != "rule-based":
            # (the rule stage's constraints call never evaluates, so its
            # successes keep resetting the count: it never opens)
            opened = batched.chimera.health.report()[stage_name]["times_opened"]
            assert batched.opened == [stage_name] * opened and opened >= 1
    _assert_same(batched, plain, raised=True)
    report = batched.chimera.health.report()[stage_name]
    assert report["failures"] >= 3
    if stage_name != "rule-based":
        assert report["routed_around"] > 0 and report["times_opened"] >= 2
        assert len(batched.opened) == report["times_opened"]  # once per opening


def test_one_batch_is_one_call_per_learner_and_a_handful_of_spans(tmp_path):
    """The work budget of a served batch: each ensemble member scores the
    whole batch in one ``predict_batch``, and the tracer holds a span per
    stage per batch, not per item."""
    with StreamService(str(tmp_path), ServiceConfig(seed=3), fsync=False) as service:
        calls = {}
        for member in service.chimera.learning_stage.ensemble.members:
            def counted(titles, _original=member.predict_batch, _name=member.name):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(titles)
            member.predict_batch = counted
        batch = service.stream.next_batch()
        items = (batch.items * (100 // len(batch.items) + 1))[:100]
        service.obs.tracer.clear()
        result = service.chimera.classify_batch(items)
        assert len(result.results) + len(result.rejected) == 100
        assert calls == {"naive-bayes": 1, "knn": 1, "svm": 1}
        names = [span.name for span in service.obs.tracer.spans]
        assert len(names) <= 15, names
        assert sorted(set(names)) == [
            "chimera.classify_batch", "chimera.filter", "chimera.gate",
            "chimera.vote", "stage.attr-value", "stage.learning", "stage.rule-based",
        ]
