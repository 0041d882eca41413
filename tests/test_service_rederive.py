"""Resume re-derives the match store and the health windows from the
logs — and proves it.

Since checkpoint v2 the executor's match store is not serialised: the
batch journal and the repository change log determine it, so resume
streams the journal back through the engine and then verifies the last
digest-chain link against the rebuilt fired map. Since v3 the link
commits to that map through the executor's additive fingerprint, and the
per-rule health windows — a fold over the provenance spool — are rebuilt
the same way instead of being written down after every batch. Here:

* the rebuilt view equals the uninterrupted run's after *rule churn*
  (repository-bound add / replace / disable / enable / remove and a
  rollback), for a kill at any barrier of any batch — the kill matrix in
  ``test_service_resume.py`` edits no rule except through incidents;
* ``checkpoint.json`` is flat in the number of items served;
* ``checkpoint.json`` stays inside a byte budget that the v3 encoding of
  the same state breaks;
* a root whose logs no longer determine the checkpointed chain head,
  whose checkpoint is the v1, v2 or v3 layout, or whose RNG, metrics or
  config section is damaged, is refused loudly;
* every chain link's fingerprint is the from-scratch fingerprint of the
  very map a v2 link serialised whole (``tests/chain_audit.py``);
* a history with a drift alert and an open incident in it comes back
  identical, and the fold that rebuilds it re-fires nothing.
"""

from __future__ import annotations

import base64
import copy
import json
import os
import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import MetricsRegistry
from repro.service.checkpoint import CHECKPOINT_NAME, JOURNAL_NAME, SPOOL_NAME
from repro.service.daemon import (
    GENESIS_DIGEST,
    ServiceConfig,
    StreamService,
    _chain_link,
)
from repro.testing.faults import CrashPlan, SimulatedCrash
from tests.chain_audit import fingerprint_from_scratch, whole_map_chain_link

BATCHES = 6
#: Startup rules that fire on 18-31 of the default config's first 766
#: items, so every edit below moves pairs (``churn_reference`` checks).
BUSY_RULES = (
    "svc-wl-0104", "svc-wl-0112", "svc-wl-0110",
    "svc-wl-0007", "svc-wl-0081", "svc-wl-0073",
)
CRASH_POINTS = (
    "journal-appended",
    "classified",
    "before-checkpoint",
    "after-checkpoint",
)


def _clone(donor, rule_id: str, enabled: bool = True):
    rule = copy.copy(donor)
    rule.rule_id = rule_id
    rule.enabled = enabled
    return rule


def _edits_before(service: StreamService, ordinal: int) -> None:
    """The churn script, keyed by the batch it precedes.

    Every edit goes through the repository-bound rule set, so it lands in
    ``repo/changelog.jsonl``. An edit made after the last checkpoint dies
    with a killed run (the repository is pinned at the checkpointed seq)
    and is re-applied here by the resumed driver, like the batch itself.
    """
    rules = service.chimera.rule_stage.rules
    a, b, c, d, e, f = BUSY_RULES
    if ordinal == 2:
        rules.add(_clone(rules.get(a), "churn-add-1"))
        rules.disable(b)
    elif ordinal == 3:
        service.repository.snapshot("mid")
        rules.replace(_clone(rules.get(d), c))
    elif ordinal == 4:
        rules.enable(b)
        rules.disable(e)
        rules.remove("churn-add-1")
        rules.add(_clone(rules.get(f), "churn-add-2"))
    elif ordinal == 5:
        service.repository.rollback("mid")
    elif ordinal == 6:
        rules.disable(f)


def _drive(root: str, plan: CrashPlan = None) -> StreamService:
    """Run the churn script to ``BATCHES``; a fired plan leaves the
    service as a SIGKILL would (handles released, nothing flushed)."""
    service = StreamService(root, fsync=False, crash_plan=plan)
    try:
        service.start()
        while service.ordinal < BATCHES:
            _edits_before(service, service.ordinal + 1)
            service.process_batch()
    except SimulatedCrash:
        service.store.close()
        service.series.close()
        service.provenance.close()
        service.repository.log.close()
        return None
    return service


def _view(service: StreamService) -> dict:
    rules = service.chimera.rule_stage.rules
    return {
        "fired": service.incremental.fired_map(),
        "pairs": set(service.incremental.store.pairs()),
        "disabled": {rule.rule_id for rule in rules if not rule.enabled},
        "identity": service.identity_json(),
    }


@pytest.fixture(scope="module")
def churn_reference(tmp_path_factory) -> dict:
    service = _drive(str(tmp_path_factory.mktemp("churn-ref") / "run"))
    view = _view(service)
    service.close()
    # The script is not vacuous: a disabled rule still holds condition-truth
    # pairs in the store, and the rollback re-added the removed rule.
    columns = {rule_id for rule_id, _ in view["pairs"]}
    assert columns & view["disabled"]
    assert "churn-add-1" in columns and "churn-add-2" not in columns
    return view


class TestResumeAfterRuleChurn:
    @given(
        crash_at=st.sampled_from(CRASH_POINTS),
        on_hit=st.integers(min_value=1, max_value=BATCHES),
    )
    @settings(max_examples=8, deadline=None)
    def test_rederived_view_equals_uninterrupted(
        self, crash_at, on_hit, churn_reference, tmp_path_factory
    ):
        root = str(tmp_path_factory.mktemp("churn-kill") / f"{crash_at}-{on_hit}")
        assert _drive(root, CrashPlan(crash_at=crash_at, on_hit=on_hit)) is None
        resumed = _drive(root)
        try:
            assert resumed.resumed
            view = _view(resumed)
        finally:
            resumed.close()
        assert view["fired"] == churn_reference["fired"]
        assert view["pairs"] == churn_reference["pairs"]
        assert view["identity"] == churn_reference["identity"]

    def test_resume_feeds_no_telemetry(self, tmp_path):
        """Re-derivation is silent: item-side metrics and the health
        windows come back exactly as checkpointed, and the digest check's
        read is a memo hit. (Building the executor re-adds the rule base
        on every start, as it always did: one ``add_rules`` op.)"""
        rule_side = (
            "exec_delta_rules_total{executor=incremental}",
            "exec_runs_total{executor=incremental}",
            "incremental_ops_total{op=add_rules}",
        )

        def counters(service):
            snapshot = service.obs.metrics.snapshot()["counters"]
            return {k: v for k, v in snapshot.items() if k not in rule_side}

        root = str(tmp_path / "run")
        service = StreamService(root, fsync=False).start()
        service.run_to(3)
        before, tracker = counters(service), service.tracker.state_dict()
        service.close()
        resumed = StreamService(root, fsync=False).start()
        try:
            assert counters(resumed) == before
            assert resumed.tracker.state_dict() == tracker
            stats = resumed.incremental.stats
            assert (stats.items, stats.delta_items, stats.cache_misses) == (0, 0, 0)
            assert resumed.incremental.item_count == resumed.totals["items"]
        finally:
            resumed.close()


class TestChainAudit:
    def test_every_link_commits_to_the_whole_map(self, tmp_path):
        """Per batch, under rule churn: the fingerprint the link hashed is
        the from-scratch fingerprint of the map the v2 link serialised, so
        the two chains certify the same sequence of fired maps."""
        service = StreamService(str(tmp_path / "run"), fsync=False).start()
        try:
            head, whole_map_head, seen = GENESIS_DIGEST, GENESIS_DIGEST, set()
            while service.ordinal < BATCHES:
                _edits_before(service, service.ordinal + 1)
                batch, _ = service.process_batch()
                fired = service.incremental.fired_map()
                fingerprint = fingerprint_from_scratch(fired)
                assert service.incremental.fired_fingerprint() == fingerprint
                head = _chain_link(head, batch.batch_id, fingerprint)
                assert service.digest_chain == head
                whole_map_head = whole_map_chain_link(
                    whole_map_head, batch.batch_id, fired
                )
                seen.add(fingerprint)
            assert len(seen) == BATCHES  # the map moved every batch
            assert whole_map_head != head  # same history, different encoding
        finally:
            service.close()


class TestHealthWindowsRederived:
    BATCHES = 12  # the default config opens a drift incident by then

    def test_alert_history_is_refolded_not_refired(self, tmp_path):
        root = str(tmp_path / "run")
        plan = CrashPlan(crash_at="classified", on_hit=self.BATCHES + 1)
        service = StreamService(root, fsync=False, crash_plan=plan).start()
        service.run_to(self.BATCHES)
        assert [alert.kind for alert in service.tracker.alerts].count(
            "fire-rate-drift"
        ) >= 1
        assert service.open_incidents() >= 1

        def surface(svc):
            counters = svc.obs.metrics.snapshot()["counters"]
            return {
                "identity": svc.identity_json(),
                "incidents": len(svc.manager.incidents),
                "alerts_counted": {
                    name: value for name, value in counters.items()
                    if name.startswith("rule_quality_alerts_total")
                },
                "repo_changes": len(svc.repository.log),
            }

        before = surface(service)
        assert sum(before["alerts_counted"].values()) == len(service.tracker.alerts)
        # Killed inside batch 13, its provenance already spooled.
        with pytest.raises(SimulatedCrash):
            service.process_batch()
        service.store.close()
        service.series.close()
        service.provenance.close()
        service.repository.log.close()
        with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
            state = json.load(handle)
        assert "tracker" not in state and state["ordinal"] == self.BATCHES
        assert os.path.getsize(os.path.join(root, SPOOL_NAME)) > state["offsets"]["spool"]

        with StreamService(root, fsync=False) as resumed:
            assert resumed.resumed and resumed.ordinal == self.BATCHES
            assert surface(resumed) == before
            # Wired again once the fold is over: the next alert counts.
            assert resumed.tracker.metrics is resumed.obs.metrics
            assert len(resumed.tracker.on_alert) == 1

    def test_spool_and_journal_must_agree(self, tmp_path):
        """The fold takes batch boundaries from the journal: a spool whose
        records name a batch the journal does not hold is refused."""
        root = str(tmp_path / "run")
        with StreamService(root, fsync=False) as service:
            service.run_to(2)
        path = os.path.join(root, SPOOL_NAME)
        with open(path) as handle:
            text = handle.read()
        last_batch = json.loads(text.splitlines()[-1])["batch_id"]
        with open(path, "w") as handle:
            handle.write(text.replace(last_batch, last_batch[:-1] + "X"))
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match="spool and the journal no longer agree"):
            service.start()
        service.store.close()


class TestFlatCheckpoint:
    def test_size_does_not_grow_with_items(self, tmp_path):
        """O(rules + incidents): 3N batches cost what N did (it grew
        linearly while the match store was embedded)."""
        root = str(tmp_path / "run")
        path = os.path.join(root, CHECKPOINT_NAME)
        config = ServiceConfig(quality_window=4)
        n = 5
        with StreamService(root, config=config, fsync=False) as service:
            service.run_to(n)
            early, early_items = os.path.getsize(path), service.totals["items"]
            service.run_to(3 * n)
            late, late_items = os.path.getsize(path), service.totals["items"]
        assert late_items > 2 * early_items
        assert late <= 1.25 * early, (early, late)
        with open(path) as handle:
            text = handle.read()
        assert not {"executor", "tracker"} & set(json.loads(text))
        with open(os.path.join(root, JOURNAL_NAME)) as handle:
            item_ids = [
                item["item_id"]
                for line in handle
                for item in json.loads(line)["items"]
            ]
        assert len(item_ids) == late_items
        assert not [item_id for item_id in item_ids if f'"{item_id}"' in text]


_RNG_PATHS = (("stream", "rng"), ("generator", "rng"), ("analyst_rng",))


def _v3_encoding(state: dict) -> dict:
    """The same state in checkpoint v3's encoding: each RNG as 625
    decimal ints, one ``{"labels", "name", "value"}`` object per series,
    the rule-label admission set spelled out."""
    registry = MetricsRegistry.load(state["metrics"])

    def series(instruments, **fields):
        return [
            {"name": inst.name, "labels": [list(kv) for kv in inst.labels],
             **{field: get(inst) for field, get in fields.items()}}
            for inst in instruments.ordered()
        ]

    def unpacked(rng):
        version, packed, gauss = rng
        return [version, list(struct.unpack("<625I", base64.b64decode(packed))), gauss]

    v3 = copy.deepcopy(state)
    v3["version"] = 3
    v3["metrics"] = {
        "max_rule_labels": registry.max_rule_labels,
        "rule_label_ids": sorted(registry._rule_label_ids),
        "counters": series(registry._counters, value=lambda c: c.value),
        "gauges": series(registry._gauges, value=lambda g: g.value),
        "histograms": series(
            registry._histograms,
            buckets=lambda h: list(h.buckets),
            bucket_counts=lambda h: list(h.bucket_counts),
            count=lambda h: h.count, sum=lambda h: h.sum,
            min=lambda h: h.min, max=lambda h: h.max,
        ),
    }
    for *parents, leaf in _RNG_PATHS:
        holder = v3
        for key in parents:
            holder = holder[key]
        holder[leaf] = unpacked(holder[leaf])
    return v3


def _sizes(state: dict, separators, n_series: int) -> dict:
    """Bytes of the whole document, of its largest RNG section and of its
    metrics section per series, as ``json.dumps`` with ``separators``
    writes them."""

    def size(payload) -> int:
        return len(json.dumps(payload, sort_keys=True, separators=separators).encode())

    rngs = []
    for *parents, leaf in _RNG_PATHS:
        holder = state
        for key in parents:
            holder = holder[key]
        rngs.append(size(holder[leaf]))
    return {
        "total": size(state),
        "rng": max(rngs),
        "metric_series": size(state["metrics"]) / n_series,
    }


class TestCheckpointBudget:
    """A host-independent byte budget for the document every batch
    rewrites: ``ServiceConfig(seed=7, training=0)`` after ``BATCHES``
    batches, as checkpoint v4 encodes it, + 5%. The sizes are counts —
    only the reprs of wall-clock histogram floats move them, by bytes."""

    BATCHES = 8
    TOTAL = int(15_876 * 1.05)
    RNG = 3_400
    PER_SERIES = 30.5 * 1.05
    COMPACT = (",", ":")

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("budget") / "run")
        with StreamService(root, ServiceConfig(seed=7, training=0), fsync=False) as service:
            service.run_to(self.BATCHES)
            snapshot = service.obs.metrics.snapshot()
        path = os.path.join(root, CHECKPOINT_NAME)
        with open(path) as handle:
            state = json.load(handle)
        n_series = sum(len(snapshot[kind]) for kind in snapshot)
        return state, os.path.getsize(path), n_series

    def test_sizes_are_what_the_daemon_wrote(self, checkpoint):
        state, size, n_series = checkpoint
        assert _sizes(state, self.COMPACT, n_series)["total"] == size

    def test_within_budget(self, checkpoint):
        state, _, n_series = checkpoint
        sizes = _sizes(state, self.COMPACT, n_series)
        assert sizes["total"] <= self.TOTAL, sizes
        assert sizes["rng"] <= self.RNG, sizes
        assert sizes["metric_series"] <= self.PER_SERIES, sizes

    def test_budget_goes_red_for_the_v3_encoding(self, checkpoint):
        """The gate has teeth: the same state as v3 wrote it — decimal
        RNG words, a keyed object per series, ``", "`` / ``": "`` — fails
        every one of the three bounds."""
        state, _, n_series = checkpoint
        sizes = _sizes(_v3_encoding(state), None, n_series)
        assert sizes["total"] > self.TOTAL
        assert sizes["rng"] > self.RNG
        assert sizes["metric_series"] > self.PER_SERIES


class TestLoudRefusal:
    @pytest.fixture(scope="class")
    def template(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("refusal") / "run")
        with StreamService(root, fsync=False) as service:
            service.run_to(3)
            fired = service.incremental.fired_map()
        return root, sorted(fired)[0]

    @pytest.fixture()
    def root(self, template, tmp_path) -> str:
        """A private copy of one 3-batch root, for each test to damage."""
        source, self.fired_item = template
        root = str(tmp_path / "run")
        shutil.copytree(source, root)
        return root

    def _edit_checkpoint(self, root: str, **fields) -> None:
        path = os.path.join(root, CHECKPOINT_NAME)
        with open(path) as handle:
            state = json.load(handle)
        state.update(fields)
        with open(path, "w") as handle:
            json.dump(state, handle)

    def _assert_refused(self, root: str, match: str) -> None:
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match=match):
            service.start()
        service.store.close()

    def test_untampered_root_resumes(self, root):
        with StreamService(root, fsync=False) as service:
            assert service.resumed and service.ordinal == 3

    def test_journal_altered_below_offset(self, root):
        """Same byte length, so the offset check passes; but a rule stops
        matching, so the rebuilt fired map no longer chains to the head."""
        path = os.path.join(root, JOURNAL_NAME)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        size = os.path.getsize(path)
        for record in records:
            for item in record["items"]:
                if item["item_id"] == self.fired_item:
                    item["title"] = "x" * len(item["title"])
        with open(path, "w") as handle:
            for record in records:
                handle.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                )
        assert os.path.getsize(path) == size
        self._assert_refused(root, "digest mismatch")

    def test_change_log_altered_below_head(self, root):
        """The other log: a rule that fired is recorded as added disabled."""
        path = os.path.join(root, "repo", "changelog.jsonl")
        with open(path) as handle:
            text = handle.read()
        enabled = '"rule":{"__enabled_at_add__":true,'
        before, entry, after = text.partition(
            next(line for line in text.splitlines() if '"pattern":"rugs?"' in line)
        )
        assert enabled in entry
        with open(path, "w") as handle:
            handle.write(before + entry.replace(enabled, enabled.replace("true", "false")) + after)
        self._assert_refused(root, "digest mismatch")

    def test_digest_chain_edited(self, root):
        self._edit_checkpoint(root, digest_chain="0" * 64)
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match="digest mismatch") as excinfo:
            service.start()
        service.store.close()
        # Both digests are named: the re-derived one and the recorded one.
        assert "0" * 64 in str(excinfo.value)
        assert str(excinfo.value).count("chains to") == 1

    def test_link_over_another_fingerprint_refused(self, root):
        """A well-formed head that commits to a different fired map:
        one row's hash away from the rebuilt one."""
        with open(os.path.join(root, CHECKPOINT_NAME)) as handle:
            state = json.load(handle)
        with StreamService(root, fsync=False) as service:
            fingerprint = service.incremental.fired_fingerprint()
        assert state["digest_chain"] == _chain_link(
            state["prev_digest_chain"], state["last_batch_id"], fingerprint
        )
        tampered = _chain_link(
            state["prev_digest_chain"], state["last_batch_id"],
            f"{int(fingerprint, 16) ^ 1:064x}",
        )
        self._edit_checkpoint(root, digest_chain=tampered)
        service = StreamService(root, fsync=False)
        with pytest.raises(ValueError, match="digest mismatch") as excinfo:
            service.start()
        service.store.close()
        assert tampered in str(excinfo.value)
        assert state["digest_chain"] in str(excinfo.value)

    def test_v1_checkpoint_refused(self, root):
        self._edit_checkpoint(root, version=1, executor={"store": {}})
        self._assert_refused(root, "version 1 is not supported")

    def test_v2_checkpoint_refused(self, root):
        """A v2 head chains over whole-map JSON and carries the health
        windows: this code can neither verify the one nor wants the other."""
        self._edit_checkpoint(root, version=2, tracker={"alerts": []})
        self._assert_refused(root, r"version 2 is not supported \(expected 4\)")

    def test_v3_checkpoint_refused(self, root):
        """v3 held the same state in the long encoding; there is no
        converter, so the refusal names both versions."""
        self._edit_checkpoint(root, version=3)
        self._assert_refused(root, r"version 3 is not supported \(expected 4\)")

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda s: s["generator"].pop("rng"), r"'generator\.rng' is missing"),
            (lambda s: s.pop("analyst_rng"), r"'analyst_rng' is missing"),
            (lambda s: s["metrics"].pop("counters"), r"'metrics\.counters' is missing"),
            (
                lambda s: s["metrics"].pop("rule_label_exceptions"),
                r"'metrics\.rule_label_exceptions' is missing",
            ),
            (
                lambda s: s["stream"]["rng"].__setitem__(
                    1, base64.b64encode(base64.b64decode(s["stream"]["rng"][1])[:-4]).decode()
                ),
                r"'stream\.rng': state is 2496 bytes \(expected 2500\)",
            ),
            (
                lambda s: s["generator"]["rng"].__setitem__(0, 2),
                r"'generator\.rng' holds Mersenne Twister state version 2 \(expected 3\)",
            ),
            (
                lambda s: s["metrics"]["counters"][0][2][0].pop(),
                r"'metrics\.counters\[0\]\.rows\[0\]' has \d+ values; family .* needs",
            ),
            (
                lambda s: s["metrics"]["histograms"][0][2][0].append(0),
                r"'metrics\.histograms\[0\]\.rows\[0\]' has \d+ values; family .* needs",
            ),
        ],
        ids=[
            "rng-missing", "analyst-rng-missing", "metrics-section-missing",
            "rule-label-exceptions-missing", "rng-short-blob", "rng-version",
            "counter-row-narrow", "histogram-row-wide",
        ],
    )
    def test_damaged_rng_or_metrics_refused(self, root, damage, match):
        """A truncated or hand-edited section fails naming the field — it
        used to resume with zeroed counters or die in a bare TypeError."""
        self._damage(root, damage)
        self._assert_refused(root, match)

    def _damage(self, root: str, damage) -> None:
        path = os.path.join(root, CHECKPOINT_NAME)
        with open(path) as handle:
            state = json.load(handle)
        damage(state)
        with open(path, "w") as handle:
            json.dump(state, handle)

    @pytest.mark.parametrize(
        "damage, match",
        [
            # The root runs the default training=120, so a dropped key would
            # silently resume with the same value: refused all the same.
            (lambda s: s["config"].pop("training"), r"'config\.training' is missing"),
            (
                lambda s: s["config"].__setitem__("shards", 4),
                r"'config\.shards' is not a config field",
            ),
            (
                lambda s: s["config"].__setitem__("training", 0),
                r"'config' fingerprints to [0-9a-f]{16}, the checkpoint recorded",
            ),
        ],
        ids=["key-missing", "key-unknown", "value-edited"],
    )
    def test_damaged_config_refused(self, root, damage, match):
        """A config section that is not the one the checkpoint fingerprinted
        is refused naming the field — it used to resume as another
        deployment (or die in a bare TypeError on an unknown key)."""
        self._damage(root, damage)
        self._assert_refused(root, match)
