"""Tests of the ledger's own machinery.

Run with ``python -m pytest benchmarks/ledger -q``; tier-1's ``testpaths``
stays ``tests``, so these ride outside it.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from stats import percentile, samples_beyond, spread, supported_percentile  # noqa: E402
from workloads import WorkloadRun, sized_workload  # noqa: E402


# -- the percentile-support rule ------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50), (40, 75), (60, 80), (99, 80),
    (100, 90), (199, 90), (200, 95), (1000, 99),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_reported_tail_is_the_one_the_smallest_sample_supports():
    smallest = min(w.batches for w in workloads.WORKLOADS.values())
    assert smallest >= workloads.MIN_TIMED_BATCHES
    assert workloads.TAIL == supported_percentile(smallest) == 80


def test_seconds_scales_sizes_up_and_never_below_the_floor():
    for name, workload in workloads.WORKLOADS.items():
        assert sized_workload(name, 5, smoke=False) == workload
        assert sized_workload(name, 40, smoke=False).batches == 2 * workload.batches
    churn = sized_workload("churn", 40, smoke=False)
    assert churn.edits == 2 * workloads.WORKLOADS["churn"].edits


def test_percentile_interpolates_and_spread_is_iqr_over_median():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([10, 20], 75) == 17.5
    assert spread([10, 10, 10, 10]) == 0
    assert spread(list(range(1, 12))) == pytest.approx(6 / 6)


# -- SpanRecorder self-time arithmetic ------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Layered:
    """outer -> (inner, inner, again) ; again -> outer(depth-1)"""

    def __init__(self, clock):
        self.clock = clock

    def outer(self, depth=0):
        self.clock.now += 1          # outer's own work
        self.inner()
        self.inner()
        if depth:
            self.outer(depth - 1)    # re-entrancy
        self.clock.now += 2
        return depth

    def inner(self):
        self.clock.now += 10


def test_self_time_subtracts_child_coverage_under_nesting_siblings_and_reentry():
    clock = FakeClock()
    target = Layered(clock)
    recorder = SpanRecorder(clock=clock)
    recorder.section = "timed"
    recorder.wrap_path(target, "outer", "layer.outer", count=lambda depth: {"calls": 1})
    recorder.wrap_path(target, "inner", "layer.inner")
    with recorder.span("root"):
        clock.now += 5               # unattributed: inside the root, outside any wrap
        target.outer(depth=1)
    totals = recorder.totals(section="timed")
    # two outer frames x (1 + 2) own work; four inner calls x 10; root keeps its 5
    assert totals["layer.outer"] == (pytest.approx(6.0), 2)
    assert totals["layer.inner"] == (pytest.approx(40.0), 4)
    assert totals["root"] == (pytest.approx(5.0), 1)
    assert sum(seconds for seconds, _ in totals.values()) == pytest.approx(clock.now)
    assert recorder.counts["calls"] == 2
    parents = [recorder.spans[p][0] if p >= 0 else None for *_, p, _, _ in recorder.spans]
    assert parents == [None, "root", "layer.outer", "layer.outer",
                       "layer.outer", "layer.outer", "layer.outer"]
    recorder.unwrap_all()
    assert "outer" not in vars(target) and "inner" not in vars(target)


def test_totals_filter_by_section_and_ordinal():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    for ordinal, section in ((1, "setup"), (2, "timed"), (3, "timed")):
        recorder.ordinal, recorder.section = ordinal, section
        with recorder.span("op"):
            clock.now += ordinal
    assert recorder.totals(section="timed")["op"] == (5.0, 2)
    assert recorder.totals(section="timed", min_ordinal=3)["op"] == (3.0, 1)


def test_missing_name_is_a_warning_not_a_crash():
    recorder = SpanRecorder()
    assert not recorder.wrap_path(object(), "no.such.method", "gone")
    assert not recorder.wrap_path(None, "repro.no_such_module:Thing.method", "gone2")
    assert len(recorder.warnings) == 2 and "gone" in recorder.warnings[0]


# -- determinism, failure accounting, API drift (smoke sizes, in process) ------------

def smoke_run(tmp_path, seed, name="serve_soak", trace=False):
    return WorkloadRun(
        sized_workload(name, workloads.RUN_SECONDS, smoke=True),
        seed, str(tmp_path), trace=trace,
    ).run()


def identity_of(record):
    return {key: record[key] for key in compare.IDENTITY_KEYS}


def test_same_seed_same_digest_other_seed_other_digest(tmp_path):
    first = smoke_run(tmp_path / "a", 7).result()
    again = smoke_run(tmp_path / "b", 7).result()
    other = smoke_run(tmp_path / "c", 8).result()
    assert first["correct"] and again["correct"] and other["correct"]
    assert identity_of(first) == identity_of(again)
    assert first["digest_chain"] != other["digest_chain"]


def test_raising_call_is_counted_not_fatal(tmp_path, monkeypatch):
    from repro.service import StreamService

    original = StreamService.process_batch
    calls = {"n": 0}

    def flaky(self):
        calls["n"] += 1
        if calls["n"] == 6:
            raise RuntimeError("injected fault")
        return original(self)

    monkeypatch.setattr(StreamService, "process_batch", flaky)
    record = smoke_run(tmp_path, 7).result()
    assert record["failed"] == 1 and not record["correct"]
    assert "injected fault" in record["failures"][0]
    assert record["sizes"]["batches"] == 7          # the other timed batches still ran
    assert record["measured"]["items_per_s"]["value"] > 0


def test_naive_executor_is_the_failing_oracle(tmp_path, monkeypatch):
    excused = smoke_run(tmp_path / "a", 7).result()
    assert excused["correct"] and excused["known_index_misses"] > 0
    # Without the one excuse, the same disagreements are failed operations.
    monkeypatch.setattr(workloads, "KNOWN_INDEX_MISSES", frozenset())
    strict = smoke_run(tmp_path / "b", 7).result()
    assert strict["failed"] == excused["known_index_misses"] and not strict["correct"]
    assert strict["known_index_misses"] == 0
    assert "NaiveExecutor" in strict["failures"][0]


def test_serve_workloads_edit_nothing_and_churn_reports_its_edits(tmp_path):
    serve = smoke_run(tmp_path / "a", 7).result()
    assert serve["sizes"]["edits"] == 0
    assert serve["measured"]["edits_per_s"]["value"] is None
    churn = smoke_run(tmp_path / "b", 7, name="churn").result()
    assert churn["sizes"] == {"batches": 4, "edits": 40, "resumes": workloads.RESUMES,
                              "tail_percentile": workloads.TAIL}
    assert churn["measured"]["edits_per_s"]["value"] > 0
    assert all(entry["value"] > 0 for entry in churn["end_to_end"].values())


def test_deleted_api_yields_null_metric_and_one_warning(tmp_path, monkeypatch):
    drifted = tuple(
        (name, "series.renamed_away" if name == "service.series_append" else path)
        for name, path in workloads.SERVICE_WRAPS
    )
    monkeypatch.setattr(workloads, "SERVICE_WRAPS", drifted)
    record = smoke_run(tmp_path, 7, name="churn", trace=True).result()
    assert record["correct"]
    layers = record["per_layer"]
    assert layers["service.series_append_s"]["value"] is None
    assert sum("service.series_append" in w for w in record["warnings"]) == 1
    assert set(layers) == set(workloads.PER_LAYER_UNITS)
    others = [v["value"] for k, v in layers.items() if k != "service.series_append_s"]
    assert all(value is not None for value in others)
    assert layers["execution.rule_delta_evals"]["value"] > 0
    assert layers["repository.changes"]["value"] >= 40


# -- compare.py -----------------------------------------------------------------------

BOUNDS = {
    "items_per_s": {"better": "higher", "bound": 0.10},
    "batch_ms_p50": {"better": "lower", "bound": 0.10},
}


def fake_ledger(seed, items_per_s, batch_ms, digest="d"):
    return {"smoke": False, "workloads": {"w": {"plain": {
        "seed": seed, "digest_chain": digest, "totals": {"items": 1}, "attempted": 5,
        "failed": 0, "sizes": {"batches": 3}, "known_index_misses": 0,
        "host_probe_ms": [9.0, 9.0],
        "measured": {
            "checkpoint_kb": {"value": 100.0},
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "batch_ms_p50": {"value": batch_ms, "unit": "ms"},
        },
    }}}}


def test_compare_verdicts(capsys):
    base = [fake_ledger(s, 100 + s, 50.0) for s in range(4)]
    assert compare.compare(base, [fake_ledger(s, 95 + s, 52.0) for s in range(4)], BOUNDS) == 0
    assert " regressed" not in capsys.readouterr().out
    assert compare.compare(base, [fake_ledger(s, 80 + s, 50.0) for s in range(4)], BOUNDS) == 1
    assert "items_per_s" in [
        line.split()[1] for line in capsys.readouterr().out.splitlines()
        if line.endswith("regressed")
    ]
    noisy = [fake_ledger(s, 100.0, 50.0 + 6 * s) for s in range(4)]
    compare.compare(noisy, noisy, BOUNDS)
    assert "unresolved" in capsys.readouterr().out
    # every run of the change beats every run of the base: resolved despite the spread
    better = [fake_ledger(s, 100.0, 20.0 + s) for s in range(4)]
    compare.compare(noisy, better, BOUNDS)
    assert "unresolved" not in capsys.readouterr().out


def test_compare_refuses_differing_digests_and_failures(capsys):
    base = [fake_ledger(7, 100.0, 50.0)]
    assert compare.compare(base, [fake_ledger(7, 100.0, 50.0, digest="other")], BOUNDS) == 1
    assert "digest_chain differs" in capsys.readouterr().out
    failed = fake_ledger(7, 100.0, 50.0)
    failed["workloads"]["w"]["plain"]["failed"] = 2
    assert compare.compare(base, [failed], BOUNDS) == 1


# -- the command line -----------------------------------------------------------------

def test_smoke_ledger_runs_all_four_under_thirty_seconds(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - started < 30
    with open(tmp_path / "ledger.json", encoding="utf-8") as handle:
        ledger = json.load(handle)
    assert ledger["smoke"] is True
    assert set(ledger["workloads"]) == {"serve_learned", "serve_rules", "serve_soak", "churn"}
    for entry in ledger["workloads"].values():
        assert entry["plain"]["correct"] and entry["plain"]["smoke"]
    assert {"git_hash", "src_dirty", "python", "numpy", "scipy", "cpu_count",
            "seed", "fsync", "temp_fs"} <= set(ledger["environment"])
    with pytest.raises(SystemExit):
        compare.load_side(str(tmp_path))        # smoke results never feed a comparison


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert {f"e2e.{name}" for name in workloads.DEMOTED} <= set(workloads.PER_LAYER_UNITS)
    bounds = compare.load_bounds()
    assert set(bounds) == set(workloads.END_TO_END) | set(workloads.DEMOTED)
    assert spec["run_seconds"] == workloads.RUN_SECONDS
    assert tuple(m["name"] for m in spec["end_to_end"]) == workloads.END_TO_END
