"""The scenario runner and the shipped library.

Tier-1 runs the ``smoke``-tagged scenarios plus targeted event-loop
checks; the full 14-scenario library runs under ``-m slow`` (the CI
scenario matrix) so tier-1 wall-clock stays flat.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.execution import PartitionedExecutor
from repro.scenario import ScenarioError, loads, run_scenario
from repro.scenario.library import (
    SMOKE_TAG,
    library_paths,
    load_library,
    load_library_scenario,
)

SMOKE_NAMES = sorted(
    name for name, spec in
    ((s.name, s) for s in load_library())
    if SMOKE_TAG in spec.tags
)
ALL_NAMES = sorted(library_paths())


class TestSmokeScenarios:
    @pytest.mark.parametrize("name", SMOKE_NAMES)
    def test_smoke_scenario_passes_its_exit_conditions(self, name):
        report = run_scenario(load_library_scenario(name))
        failed = [c.to_dict() for c in report.exit_checks if not c.passed]
        assert report.passed, f"{name} failed exit checks: {failed}"

    def test_report_shape_is_complete(self):
        report = run_scenario(load_library_scenario(SMOKE_NAMES[0]))
        data = report.to_dict()
        for key in ("scenario", "seed", "fingerprint", "executor", "passed",
                    "totals", "batches", "precision_trajectory", "incidents",
                    "alerts", "drift_events", "taxonomy_changes", "crowd",
                    "faults", "rules", "fired_digest", "exit_checks"):
            assert key in data
        assert data["totals"]["items"] > 0
        assert data["totals"]["items_per_sim_hour"] > 0
        assert len(data["precision_trajectory"]) == data["totals"]["batches"]
        json.dumps(data)  # JSON-safe throughout


@pytest.mark.slow
class TestFullLibrary:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_library_scenario_passes_its_exit_conditions(self, name):
        spec = load_library_scenario(name)
        report = run_scenario(spec)
        failed = [c.to_dict() for c in report.exit_checks if not c.passed]
        assert report.passed, f"{name} failed exit checks: {failed}"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_library_scenario_is_deterministic(self, name):
        spec = load_library_scenario(name)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.to_json() == second.to_json()


class TestEventLoop:
    def test_seed_override_changes_the_run(self):
        spec = load_library_scenario("baseline-steady-state")
        default = run_scenario(spec)
        overridden = run_scenario(spec, seed=spec.seed + 1)
        assert default.seed != overridden.seed
        assert default.to_json() != overridden.to_json()

    def test_unknown_drift_type_raises_scenario_error(self):
        spec = loads(
            "name: bad\n"
            "traffic:\n"
            "  batches: 2\n"
            "drift:\n"
            "  - at_batch: 0\n"
            "    op: shift_heads\n"
            "    type: no-such-type\n"
            "    heads: [x]\n"
        )
        with pytest.raises(ScenarioError, match="no-such-type"):
            run_scenario(spec)

    def test_unknown_obvious_rule_type_raises(self):
        spec = loads(
            "name: bad\n"
            "catalog:\n"
            "  obvious_rule_types: [no-such-type]\n"
        )
        with pytest.raises(ScenarioError, match="no-such-type"):
            run_scenario(spec)

    def test_unknown_vendor_department_raises(self):
        spec = loads(
            "name: bad\n"
            "traffic:\n"
            "  vendors:\n"
            "    - name: specialist\n"
            "      departments: [no-such-department]\n"
        )
        with pytest.raises(ScenarioError, match="traffic.vendors: .*no-such-department"):
            run_scenario(spec)

    def test_rule_churn_disables_and_reenables(self):
        spec = loads(
            "name: churny\n"
            "seed: 5\n"
            "catalog:\n"
            "  obvious_rule_types: ['*']\n"
            "traffic:\n"
            "  batches: 3\n"
            "rule_churn:\n"
            "  - at_batch: 0\n"
            "    disable_count: 10\n"
            "    reenable_after: 2\n"
            "exit:\n"
            "  min_rules_disabled: 10\n"
        )
        report = run_scenario(spec)
        assert report.passed
        assert report.rules["disabled"] >= 10

    def test_taxonomy_split_report_row(self):
        report = run_scenario(load_library_scenario("taxonomy-split-work-pants"))
        rows = report.taxonomy_changes
        assert len(rows) == 1
        assert rows[0]["op"] == "split"
        assert "cargo pants" in rows[0]["detail"]
        assert rows[0]["disabled"] >= 1

    def test_taxonomy_merge_retargets_rules(self):
        spec = loads(
            "name: mergey\n"
            "seed: 6\n"
            "catalog:\n"
            "  obvious_rule_types: ['*']\n"
            "traffic:\n"
            "  batches: 2\n"
            "taxonomy_changes:\n"
            "  - at_batch: 1\n"
            "    op: merge\n"
            "    types: [area rugs, bath rugs]\n"
            "    merged: rugs\n"
            "exit:\n"
            "  min_taxonomy_changes: 1\n"
        )
        report = run_scenario(spec)
        assert report.passed
        row = report.taxonomy_changes[0]
        assert row["op"] == "merge"
        assert row["invalidated"] >= 2
        assert row["retargeted"] == row["invalidated"]
        assert row["disabled"] == 0

    def test_incident_ordinals_are_run_local(self):
        """Incident ids come from a process-global counter; reports must
        use per-run ordinals so two runs in one process stay identical."""
        spec = load_library_scenario("vendor-vocabulary-storm")
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.incidents == second.incidents
        assert [i["ordinal"] for i in first.incidents] == list(
            range(1, len(first.incidents) + 1)
        )

    def test_partitioned_run_is_checked_against_the_engine(self, monkeypatch):
        """The fault model's output must equal the engine's rows for the
        items it did not skip: one fired entry dropped from a run is a
        ScenarioError naming the batch and the item."""
        run = PartitionedExecutor.run
        dropped = []

        def dropping(self, items):
            result = run(self, items)
            if result.fired and not dropped:
                dropped.append(min(result.fired))
                del result.fired[dropped[0]]
            return result

        monkeypatch.setattr(PartitionedExecutor, "run", dropping)
        with pytest.raises(ScenarioError, match=r"batch batch-\d+: .*engine") as error:
            run_scenario(load_library_scenario("hot-key-skew"))
        assert str(error.value).endswith(f"at item {dropped[0]!r}")


class TestScenarioCli:
    def test_list_smoke(self, capsys):
        assert cli_main(["scenario", "list", "--tag", "smoke"]) == 0
        out = capsys.readouterr().out
        for name in SMOKE_NAMES:
            assert name in out

    def test_list_json(self, capsys):
        assert cli_main(["scenario", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} == set(ALL_NAMES)

    def test_run_writes_report_and_renders(self, tmp_path, capsys):
        out = tmp_path / "health.json"
        code = cli_main([
            "scenario", "run", "baseline-steady-state", "--out", str(out),
        ])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "baseline-steady-state" in rendered
        assert "[PASS]" in rendered
        data = json.loads(out.read_text())
        assert data["scenario"] == "baseline-steady-state"

    def test_run_twice_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert cli_main([
                "scenario", "run", "baseline-steady-state",
                "--quiet", "--out", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_rerenders_saved_json(self, tmp_path, capsys):
        out = tmp_path / "health.json"
        cli_main(["scenario", "run", "baseline-steady-state",
                  "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["scenario", "report", str(out)]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_run_unknown_scenario_errors(self, capsys):
        assert cli_main(["scenario", "run", "no-such-scenario"]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_run_spec_from_file_path(self, tmp_path, capsys):
        spec_path = tmp_path / "mini.yaml"
        spec_path.write_text(
            "name: mini\n"
            "catalog:\n"
            "  obvious_rule_types: ['*']\n"
            "traffic:\n"
            "  batches: 2\n"
            "exit:\n"
            "  min_batches: 2\n"
        )
        assert cli_main(["scenario", "run", str(spec_path)]) == 0
        assert "[PASS]" in capsys.readouterr().out


def test_report_round_trips_through_its_dict_form():
    """``to_dict`` / ``from_dict`` are derived from the report's fields:
    every field is written once, under its own name, and read back."""
    import dataclasses

    from repro.scenario import ExitCheck, ScenarioReport

    report = ScenarioReport(
        scenario="s", seed=3, fingerprint="f", executor="indexed", passed=False,
        totals={"items": 4}, batches=[{"batch": 0}], precision_trajectory=[0.5],
        incidents=[{"ordinal": 1}], alerts=[{"kind": "drift"}],
        drift_events=[{"at_batch": 0}], taxonomy_changes=[{"op": "split"}],
        crowd={"spent": 1.0}, faults={"triggered": 2}, rules={"added": 1},
        repository={"changes": 5}, fired_digest="d",
        exit_checks=[ExitCheck("min_batches", 1, 2, True)],
    )
    data = json.loads(report.to_json())
    assert list(data) == sorted(f.name for f in dataclasses.fields(ScenarioReport))
    assert data["exit_checks"] == [
        {"name": "min_batches", "expected": 1, "actual": 2, "passed": True}]
    assert ScenarioReport.from_dict(data) == report
    sparse = ScenarioReport.from_dict({"scenario": "s", "seed": 3})
    assert (sparse.fingerprint, sparse.executor, sparse.passed) == ("", "", True)
