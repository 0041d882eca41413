"""Declarative scenario harness (ROADMAP item 4).

YAML scenario specs, a validating loader, a fully deterministic runner
over the ``BatchStream`` → Chimera → executor stack, and per-scenario
health reports. See DESIGN.md §10 for the schema reference and the
determinism contract, and ``src/repro/scenario/library/`` for the
starter scenarios.
"""

from repro.scenario.diff import (
    diff_report_files,
    diff_reports,
    load_report,
    render_diff,
)
from repro.scenario.report import ExitCheck, ScenarioReport, round6
from repro.scenario.runner import ScenarioError, ScenarioRunner, run_scenario
from repro.scenario.spec import (
    DRIFT_OPS,
    EXECUTOR_KINDS,
    ScenarioSpec,
    SpecError,
    load_scenario,
    loads,
)
from repro.scenario.yamlio import YamlError, safe_load
from repro.world import sub_seed

__all__ = [
    "DRIFT_OPS",
    "EXECUTOR_KINDS",
    "ExitCheck",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "SpecError",
    "YamlError",
    "diff_report_files",
    "diff_reports",
    "load_report",
    "load_scenario",
    "loads",
    "render_diff",
    "round6",
    "run_scenario",
    "safe_load",
    "sub_seed",
]
