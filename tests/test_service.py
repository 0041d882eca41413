"""Unit and console coverage for the durable streaming service.

Companion to ``test_service_resume.py`` (which owns the crash-kill
identity property). Here: the checkpoint store's offset/rollback
mechanics, the series ring, the metrics snapshot/delta sampling API
(sampling must never perturb the registry), the HTTP console routes,
the disk-only dashboard, and the serve/dashboard/scenario-diff CLI.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.observability.metrics import MetricsRegistry
from repro.service import (
    CheckpointStore,
    SeriesStore,
    ServiceConfig,
    ServiceHttpServer,
    StreamService,
    render_dashboard,
)
from repro.service.checkpoint import CHECKPOINT_VERSION, truncate_file
from repro.service.series import load_series


# -- checkpoint store ----------------------------------------------------------


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        with CheckpointStore(str(tmp_path), fsync=False) as store:
            assert store.load() is None
            store.save({"version": CHECKPOINT_VERSION, "ordinal": 3})
            assert store.load()["ordinal"] == 3

    def test_version_mismatch_raises(self, tmp_path):
        with CheckpointStore(str(tmp_path), fsync=False) as store:
            store.save({"version": 999})
            with pytest.raises(ValueError, match="version"):
                store.load()

    def test_journal_append_and_offsets(self, tmp_path):
        with CheckpointStore(str(tmp_path), fsync=False) as store:
            assert store.journal_offset() == 0
            store.append_batch({"ordinal": 1})
            first = store.journal_offset()
            store.append_batch({"ordinal": 2})
            assert store.journal_offset() > first
            assert [r["ordinal"] for r in store.read_journal()] == [1, 2]

    def test_truncate_rolls_back_unacknowledged_tail(self, tmp_path):
        root = str(tmp_path)
        with CheckpointStore(root, fsync=False) as store:
            store.append_batch({"ordinal": 1})
            keep = store.journal_offset()
            store.append_batch({"ordinal": 2})
        with CheckpointStore(root, fsync=False) as store:
            dropped = store.truncate({"journal": keep})
            assert dropped["journal"] > 0
            assert dropped["spool"] == 0 and dropped["series"] == 0
            assert [r["ordinal"] for r in store.read_journal()] == [1]

    def test_truncate_after_journal_open_is_refused(self, tmp_path):
        with CheckpointStore(str(tmp_path), fsync=False) as store:
            store.append_batch({"ordinal": 1})
            with pytest.raises(RuntimeError, match="before the journal"):
                store.truncate({"journal": 0})

    def test_truncate_file_edge_cases(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert truncate_file(missing, 0) == 0
        with pytest.raises(FileNotFoundError):
            truncate_file(missing, 5)
        path = str(tmp_path / "log.jsonl")
        with open(path, "w") as handle:
            handle.write("x" * 10)
        with pytest.raises(ValueError, match="ahead of its logs"):
            truncate_file(path, 11)
        assert truncate_file(path, 10) == 0
        assert truncate_file(path, 4) == 6


class TestFsyncFlagReachesEveryWriter:
    """``fsync=False`` used to silence the journal, series and change-log
    appenders only: the checkpoint's atomic replace (temp file + directory)
    and the spool's offset read still synced, three times a batch."""

    def _count(self, root: str, fsync: bool, monkeypatch) -> int:
        calls = []
        real_fsync = os.fsync
        with StreamService(root, fsync=fsync) as service:
            service.run_to(1)  # every log file exists from here on
            monkeypatch.setattr(
                os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd)
            )
            changes = len(service.repository.log)
            service.run_to(4)
            monkeypatch.undo()
            assert len(service.repository.log) == changes  # no edit in these three
        return len(calls)

    def test_no_sync_at_all_when_off(self, tmp_path, monkeypatch):
        assert self._count(str(tmp_path / "off"), False, monkeypatch) == 0

    def test_same_syncs_as_ever_when_on(self, tmp_path, monkeypatch):
        # Per batch: journal line, spool offset, checkpoint temp file,
        # checkpoint directory, series line.
        assert self._count(str(tmp_path / "on"), True, monkeypatch) == 3 * 5


# -- series store --------------------------------------------------------------


class TestSeriesStore:
    def test_ring_and_reload(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        with SeriesStore(path, window=3, fsync=False) as series:
            for ordinal in range(5):
                series.append({"ordinal": ordinal, "items": ordinal * 10})
            assert series.total_samples == 5
            assert [s["ordinal"] for s in series.tail(10)] == [2, 3, 4]
            assert series.column("items", 2) == [30.0, 40.0]
        # Reopen: the durable file replays the full history; the ring
        # keeps only the window.
        with SeriesStore(path, window=3, fsync=False) as series:
            assert series.total_samples == 5
            assert [s["ordinal"] for s in series.tail(10)] == [2, 3, 4]
        assert len(load_series(path)) == 5
        assert [s["ordinal"] for s in load_series(path, window=2)] == [3, 4]

    def test_reload_decodes_only_the_window(self, tmp_path, monkeypatch):
        """A resume counts every line of the history but decodes at most
        ``window`` of them, and a torn last line is not a sample."""
        from repro.service import series as series_module

        path = str(tmp_path / "series.jsonl")
        with open(path, "w") as handle:
            for ordinal in range(2000):
                handle.write(json.dumps({"ordinal": ordinal}) + "\n")
            handle.write('{"ordinal": 20')  # crashed mid-append
        decoded = []
        real_loads = json.loads
        monkeypatch.setattr(
            series_module.json, "loads",
            lambda line: decoded.append(line) or real_loads(line),
        )
        series = SeriesStore(path, window=512, fsync=False)
        monkeypatch.undo()
        try:
            assert series.total_samples == 2000
            assert [s["ordinal"] for s in series.samples] == list(range(1488, 2000))
            assert len(decoded) <= 512
        finally:
            series.close()

    def test_rejects_bad_window_and_count(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        with pytest.raises(ValueError):
            SeriesStore(path, window=0)
        with SeriesStore(path, window=2, fsync=False) as series:
            with pytest.raises(ValueError):
                series.tail(-1)
            assert series.tail(0) == []


# -- metrics sampling (satellite: snapshot/delta must not perturb) -------------


class TestMetricsSampling:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("batches").inc()
        registry.counter("items", vendor="northstar").inc(40)
        registry.gauge("open_incidents").set(2)
        registry.histogram("latency").observe(0.25)
        return registry

    def test_delta_reports_interval_increase(self):
        registry = self._populated()
        prev = registry.snapshot()
        registry.counter("batches").inc(2)
        registry.histogram("latency").observe(0.75)
        delta = registry.delta(prev)
        assert delta["counters"]["batches"] == 2
        assert delta["counters"]["items{vendor=northstar}"] == 0
        assert delta["histograms"]["latency"]["count"] == 1
        assert delta["histograms"]["latency"]["sum"] == pytest.approx(0.75)
        assert delta["gauges"]["open_incidents"] == 2

    def test_delta_from_a_snapshot_in_hand_is_the_same_delta(self):
        """The daemon samples once per batch: ``delta(prev, current)``
        reuses the snapshot it already took instead of walking the
        registry again, and reports exactly what ``delta(prev)`` does."""
        registry = self._populated()
        prev = registry.snapshot()
        registry.counter("batches").inc(2)
        registry.counter("fresh").inc(5)
        registry.gauge("open_incidents").set(1)
        registry.histogram("latency").observe(0.75)
        walks = []
        real_snapshot = registry.snapshot
        registry.snapshot = lambda: walks.append(1) or real_snapshot()
        current = registry.snapshot()
        assert registry.delta(prev, current) == registry.delta(prev)
        assert len(walks) == 2  # ours + the one delta(prev) takes itself

    def test_sampling_leaves_values_untouched(self):
        """A poller may snapshot/delta every batch without resetting anything."""
        registry = self._populated()
        before = registry.snapshot()
        prev = registry.snapshot()
        for _ in range(10):
            registry.delta(prev)
            prev = registry.snapshot()
        assert registry.snapshot() == before
        assert registry.counter("batches").value == 1
        assert registry.histogram("latency").count == 1

    def test_dump_load_roundtrip_continues_accumulating(self):
        registry = self._populated()
        registry.max_rule_labels = 2
        registry.counter("exec_runs_total", executor="a,b", stage="ünï{=}").inc(3)
        registry.histogram("sizes", buckets=(1, 10, 100), vendor="x").observe(7)
        registry.histogram("never_observed")  # min/max stay None
        registry.rule_label("r-silent")  # admitted, never fired: no series
        registry.observe_rule_fires({"r1": 4, "r2": 2, "r3": 1})  # cap: r2, r3 -> __other__
        document = json.loads(json.dumps(registry.dump()))
        assert document["rule_label_exceptions"] == ["__other__", "r-silent"]
        clone = MetricsRegistry.load(document)
        assert clone.snapshot() == registry.snapshot()
        assert clone.dump() == registry.dump()
        assert clone.histogram("sizes", vendor="x").buckets == (1, 10, 100)
        assert clone.histogram("never_observed").min is None
        clone.counter("batches").inc()
        assert clone.counter("batches").value \
            == registry.counter("batches").value + 1
        # The admission set came back: r3 still folds into __other__.
        clone.observe_rule_fires({"r3": 5, "r1": 1})
        assert clone.counter("rule_fired_total", rule_id="__other__").value == 8
        assert clone.counter("rule_fired_total", rule_id="r1").value == 5


# -- live console + dashboard --------------------------------------------------


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    """One running 4-batch service shared by the read-only console tests."""
    root = str(tmp_path_factory.mktemp("service-live") / "run")
    service = StreamService(root, fsync=False)
    service.start()
    service.run_to(4)
    yield service
    service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestHttpConsole:
    @pytest.fixture(scope="class")
    def server(self, live_service):
        with ServiceHttpServer(live_service) as server:
            yield server

    def test_health(self, server):
        status, doc = _get(server.url + "/health")
        assert status == 200
        assert doc["status"] == "ok" and doc["ordinal"] == 4
        assert "rule-based" in doc["stages"]

    def test_health_resident_block(self, server, live_service):
        """What the process holds, as lengths and counters: every item of
        this stream (it re-lists none) is held, the ring is within its cap."""
        _, doc = _get(server.url + "/health")
        resident = doc["resident"]
        assert sorted(resident) == [
            "items_held", "match_rows", "peak_rss_mb",
            "provenance_capacity", "provenance_retained", "rss_mb",
        ]
        assert resident["items_held"] == doc["totals"]["items"] > 0
        assert 0 < resident["match_rows"] <= resident["items_held"]
        assert resident["provenance_retained"] == min(
            doc["provenance_records"], resident["provenance_capacity"]
        )
        assert resident["provenance_capacity"] == (
            live_service.config.provenance_capacity
        )
        # Two kernel counters read at different instants: sane, not ordered.
        assert resident["rss_mb"] > 0 and resident["peak_rss_mb"] > 0

    def test_metrics(self, server):
        status, doc = _get(server.url + "/metrics")
        assert status == 200
        assert any(k.startswith("classify") or k for k in doc["counters"])

    def test_incidents_and_series(self, server):
        status, incidents = _get(server.url + "/incidents")
        assert status == 200 and isinstance(incidents, list)
        status, samples = _get(server.url + "/series?n=2")
        assert status == 200 and len(samples) == 2
        assert samples[-1]["ordinal"] == 4

    def test_rule_view_and_404(self, server):
        status, doc = _get(server.url + "/rules/svc-wl-0001")
        assert status == 200
        assert doc["stage"] == "rule-based" and doc["enabled"] is True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/rules/no-such-rule")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/no-such-route")
        assert excinfo.value.code == 404

    def test_index(self, server):
        status, doc = _get(server.url + "/")
        assert status == 200 and "/health" in doc["endpoints"]


class _RequestAtBarrier:
    """A crash plan that never crashes: at ``point`` it issues one console
    request and waits for the reply, so the handler thread runs while the
    batch loop stands between ``next_batch()`` and its own fired-map read."""

    def __init__(self, point: str):
        self.point = point
        self.url = None
        self.replies = []

    def reached(self, point: str) -> None:
        if point == self.point and self.url is not None:
            self.replies.append(_get(self.url))


class TestConsoleLeavesEngineStateAlone:
    """``GET /rules/<id>`` mid-batch: the handler used to call
    ``fired_map()``, whose memo miss rebuilt the snapshot, stored it and fed
    the observe hook from the request thread."""

    RULE = "svc-wl-0007"

    def _run(self, root: str, request: bool):
        plan = _RequestAtBarrier("journal-appended")
        service = StreamService(root, fsync=False, crash_plan=plan)
        with service, ServiceHttpServer(service) as server:
            service.run_to(2)
            if request:
                plan.url = f"{server.url}/rules/{self.RULE}"
            service.run_to(4)
            stats = service.incremental.stats
            return plan.replies, {
                "memo": (stats.cache_hits, stats.cache_misses),
                "fired_counters": {
                    key: value
                    for key, value in service.obs.metrics.snapshot()["counters"].items()
                    if key.startswith("rule_fired_total")
                },
                "tracker": service.tracker.state_dict(),
                "identity": service.identity_json(),
            }

    def test_mid_batch_request_changes_nothing(self, tmp_path):
        replies, with_request = self._run(str(tmp_path / "a"), request=True)
        _, without = self._run(str(tmp_path / "b"), request=False)
        assert [status for status, _ in replies] == [200, 200]
        assert with_request == without

    def test_rule_view_document(self, tmp_path):
        """Same document as the fired-map scan it replaced: sorted items of
        an enabled tracked rule, nothing for a disabled one."""
        with StreamService(str(tmp_path / "run"), fsync=False) as service:
            service.run_to(3)
            fired = service.incremental.fired_map()
            expected = sorted(i for i, rules in fired.items() if self.RULE in rules)
            view = service.rule_view(self.RULE)
            assert expected and view["fired_items"] == expected
            assert view["fired_count"] == len(expected)
            service.chimera.rule_stage.rules.disable(self.RULE)
            view = service.rule_view(self.RULE)
            assert view["enabled"] is False and view["fired_items"] == []


class TestDashboard:
    def test_renders_from_disk(self, live_service):
        text = render_dashboard(live_service.root)
        assert "ordinal 4" in text
        assert "items/batch" in text and "coverage" in text

    def test_missing_root(self, tmp_path):
        text = render_dashboard(str(tmp_path / "empty"))
        assert "has the service run?" in text


# -- config fingerprint guard --------------------------------------------------


def test_resume_with_mismatched_config_raises(tmp_path):
    root = str(tmp_path / "run")
    service = StreamService(root, fsync=False)
    service.start()
    service.run_to(1)
    service.close()
    conflicting = StreamService(
        root, config=ServiceConfig(seed=99), fsync=False
    )
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        conflicting.start()
    conflicting.close()


# -- close() releases the world ------------------------------------------------


def test_close_releases_the_world_without_the_cycle_collector(tmp_path):
    """``start()`` hangs bound methods of the service on the tracer's and
    the health tracker's listener lists; ``close()`` must take them off,
    or service <-> world cycles keep the closed world (match store, data
    index, prepared cache, provenance ring) alive until a gen-2 GC — and
    every resume in one process stacks another dead world."""
    import gc
    import weakref

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        service = StreamService(
            str(tmp_path / "run"), config=ServiceConfig(training=0), fsync=False
        ).start()
        service.run_to(2)
        probes = {
            name: weakref.ref(target)
            for name, target in {
                "incremental": service.incremental,
                "store": service.incremental.store,
                "chimera": service.chimera,
                "rule_stage": service.chimera.rule_stage,
                "rules": service.chimera.rule_stage.rules,
                "tracker": service.tracker,
                "repository": service.repository,
                "provenance": service.provenance,
                "manager": service.manager,
                "obs": service.obs,
            }.items()
        }
        service.close()
        del service
        alive = sorted(name for name, ref in probes.items() if ref() is not None)
        assert not alive, f"kept alive by a reference cycle: {alive}"
    finally:
        if was_enabled:
            gc.enable()


# -- CLI -----------------------------------------------------------------------


class TestServiceCli:
    def test_dashboard_out(self, live_service, tmp_path, capsys):
        out = str(tmp_path / "dash.txt")
        assert cli_main(
            ["dashboard", "--root", live_service.root, "--out", out]
        ) == 0
        with open(out) as handle:
            assert "repro stream service" in handle.read()

    def test_serve_runs_batches_then_exits(self, tmp_path, capsys):
        root = str(tmp_path / "run")
        assert cli_main(
            ["serve", "--root", root, "--batches", "2",
             "--no-fsync", "--quiet"]
        ) == 0
        captured = capsys.readouterr()
        assert "serving" in captured.err
        assert os.path.exists(os.path.join(root, "checkpoint.json"))
