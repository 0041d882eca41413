"""Scenario report diffing and wall-clock exit conditions.

Two satellites of the durable-service work: ``repro scenario diff``
(compare two health-report JSONs structurally) and the
``max_batch_latency_ms`` / ``max_wall_seconds`` exit checks (the only
wall-clock measurements allowed anywhere near a report — they live in
``exit_checks`` and never perturb the deterministic report body).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.scenario import (
    diff_reports,
    load_report,
    loads,
    render_diff,
    run_scenario,
)

_SMALL_SPEC = """
name: diff-probe
description: Tiny two-batch run for diff tests.
seed: 31
catalog:
  obvious_rule_types: ["*"]
traffic:
  batches: 2
  vendors:
    - name: probe
      min_batch: 20
      max_batch: 30
executor:
  kind: incremental
exit:
  min_batches: 2
"""


@pytest.fixture(scope="module")
def report_a():
    return run_scenario(loads(_SMALL_SPEC)).to_dict()


@pytest.fixture(scope="module")
def report_b():
    return run_scenario(loads(_SMALL_SPEC.replace("seed: 31", "seed: 99"))).to_dict()


class TestDiffReports:
    def test_self_diff_is_clean(self, report_a):
        diff = diff_reports(report_a, report_a)
        assert diff["fired_digest"]["match"]
        assert diff["totals"] == {}
        assert diff["exit_checks"] == {}
        assert diff["incidents"]["count"]["delta"] == 0
        text = render_diff(diff)
        assert "MATCH" in text and "totals: identical" in text

    def test_seed_change_shows_up(self, report_a, report_b):
        diff = diff_reports(report_a, report_b)
        assert not diff["fired_digest"]["match"]
        assert diff["identity"]["seed"] == {"left": 31, "right": 99}
        assert "items" in diff["totals"] or "classified" in diff["totals"]
        for entry in diff["totals"].values():
            assert entry["delta"] == pytest.approx(
                entry["right"] - entry["left"], abs=1e-6
            )
        assert "DIFFER" in render_diff(diff)

    def test_exit_check_changes_tracked(self, report_a):
        mutated = json.loads(json.dumps(report_a))
        mutated["exit_checks"][0]["passed"] = False
        mutated["exit_checks"][0]["actual"] = 0
        mutated["exit_checks"].append(
            {"name": "extra", "expected": 1, "actual": 1, "passed": True}
        )
        diff = diff_reports(report_a, mutated)
        assert "min_batches" in diff["exit_checks"]
        assert diff["exit_checks"]["extra"]["left"] is None
        rendered = render_diff(diff)
        assert "exit checks that changed" in rendered
        assert "(absent)" in rendered

    def test_incident_rule_membership(self, report_a):
        mutated = json.loads(json.dumps(report_a))
        mutated["incidents"] = [{
            "ordinal": 1, "kind": "rule-health", "status": "open",
            "opened_at": 1.0, "affected_types": [],
            "rule_ids": ["wl-boots-0001"],
        }]
        diff = diff_reports(report_a, mutated)
        assert diff["incidents"]["count"]["delta"] == 1
        assert diff["incidents"]["rules_only_right"] == ["wl-boots-0001"]
        assert diff["incidents"]["rules_only_left"] == []

    def test_load_report_rejects_non_reports(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError, match="not a scenario report"):
            load_report(str(path))


class TestDiffCli:
    def test_identical_rc0_different_rc2(self, report_a, report_b, tmp_path,
                                         capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(report_a))
        b.write_text(json.dumps(report_b))
        assert cli_main(["scenario", "diff", str(a), str(a)]) == 0
        assert cli_main(["scenario", "diff", str(a), str(b)]) == 2
        out = capsys.readouterr().out
        assert "MATCH" in out and "DIFFER" in out

    def test_json_output(self, report_a, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(report_a))
        assert cli_main(["scenario", "diff", str(a), str(a), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fired_digest"]["match"] is True

    def test_missing_second_path_errors(self, report_a, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(report_a))
        assert cli_main(["scenario", "diff", str(a)]) == 1
        assert "two health JSON" in capsys.readouterr().err


class TestReportCli:
    def test_missing_file_is_an_error_line(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli_main(["scenario", "report", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.json" in err
        assert "Traceback" not in err

    def test_non_report_json_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "health.json"
        path.write_text('{"rules": {}}')
        assert cli_main(["scenario", "report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a scenario report" in err


class TestWallClockExit:
    def test_generous_budgets_pass_without_touching_report_body(self):
        plain = run_scenario(loads(_SMALL_SPEC)).to_dict()
        walled = run_scenario(loads(
            _SMALL_SPEC
            + "  max_batch_latency_ms: 60000\n  max_wall_seconds: 300\n"
        )).to_dict()
        checks = {c["name"]: c for c in walled["exit_checks"]}
        assert checks["max_batch_latency_ms"]["passed"]
        assert checks["max_wall_seconds"]["passed"]
        assert 0 < checks["max_batch_latency_ms"]["actual"] < 60000
        # Everything except the wall checks (and the spec fingerprint,
        # which hashes the spec text) is byte-identical to the plain run.
        walled["exit_checks"] = [
            c for c in walled["exit_checks"]
            if c["name"] not in ("max_batch_latency_ms", "max_wall_seconds")
        ]
        walled["fingerprint"] = plain["fingerprint"]
        assert json.dumps(walled, sort_keys=True) \
            == json.dumps(plain, sort_keys=True)

    def test_blown_latency_budget_fails_the_run(self):
        report = run_scenario(loads(
            _SMALL_SPEC + "  max_batch_latency_ms: 0.000001\n"
        ))
        checks = {c.name: c.passed for c in report.exit_checks}
        assert checks["max_batch_latency_ms"] is False
        assert report.passed is False

    def test_wall_budget_stops_scheduling_early(self):
        spec_text = _SMALL_SPEC.replace("batches: 2", "batches: 6").replace(
            "min_batches: 2", "min_batches: 0"
        ) + "  max_wall_seconds: 0.000001\n"
        report = run_scenario(loads(spec_text))
        assert report.totals["batches"] < 6

    def test_spec_validation_rejects_bad_values(self):
        from repro.scenario import SpecError

        with pytest.raises(SpecError):
            loads(_SMALL_SPEC + "  max_batch_latency_ms: nope\n")
        with pytest.raises(SpecError):
            loads(_SMALL_SPEC + "  max_wall_seconds: true\n")
