"""The scenario determinism contract, property-tested.

Same YAML + same seed ⇒ byte-identical health report (which embeds the
incident log and the fired-map digest) across independent runs, and the
fired digest is executor-independent where the spec allows (indexed vs
partitioned over identical rule state). Plus the unseeded-randomness
guard: no module under ``src/repro`` or ``examples/`` may call the
module-level ``random`` API — every draw must flow through an explicit
``random.Random(seed)``.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenario import loads, run_scenario

REPO = pathlib.Path(__file__).parent.parent


def make_spec_text(seed, batches, min_batch, mean_gap, with_drift,
                   with_churn, executor):
    lines = [
        "name: prop",
        f"seed: {seed}",
        "catalog:",
        "  obvious_rule_types: ['*']",
        "traffic:",
        f"  batches: {batches}",
        f"  mean_gap_hours: {mean_gap}",
        "  vendors:",
        "    - name: prop-vendor",
        f"      min_batch: {min_batch}",
        f"      max_batch: {min_batch + 10}",
        "executor:",
        f"  kind: {executor}",
    ]
    if with_drift:
        lines += [
            "drift:",
            "  - at_batch: 1",
            "    op: extend_slot",
            "    type: jeans",
            "    slot: fit",
            "    phrases: [paperbag, balloon fit]",
        ]
    if with_churn:
        lines += [
            "rule_churn:",
            "  - at_batch: 1",
            "    disable_count: 5",
            "    reenable_after: 1",
        ]
    return "\n".join(lines) + "\n"


class TestByteIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        batches=st.integers(min_value=2, max_value=3),
        min_batch=st.integers(min_value=15, max_value=30),
        with_drift=st.booleans(),
        with_churn=st.booleans(),
    )
    def test_same_yaml_same_seed_byte_identical(
            self, seed, batches, min_batch, with_drift, with_churn):
        text = make_spec_text(seed, batches, min_batch, 6.0,
                              with_drift, with_churn, "incremental")
        first = run_scenario(loads(text))
        second = run_scenario(loads(text))
        assert first.to_json() == second.to_json()
        assert first.fired_digest == second.fired_digest
        assert first.incidents == second.incidents

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        min_batch=st.integers(min_value=15, max_value=25),
    )
    def test_indexed_and_partitioned_fired_digests_agree(self, seed, min_batch):
        """Per-batch fired maps are executor-independent, so the digest
        chain must match between indexed and (fault-free) partitioned."""
        indexed = run_scenario(loads(make_spec_text(
            seed, 2, min_batch, 6.0, False, False, "indexed")))
        partitioned = run_scenario(loads(make_spec_text(
            seed, 2, min_batch, 6.0, False, False, "partitioned")))
        assert indexed.fired_digest == partitioned.fired_digest

    def test_seed_cli_override_equals_spec_seed(self):
        """`--seed S` must behave exactly like writing `seed: S` in YAML."""
        base = make_spec_text(0, 2, 20, 6.0, True, False, "incremental")
        edited = run_scenario(loads(base.replace("seed: 0", "seed: 77")))
        overridden = run_scenario(loads(base), seed=77)
        assert edited.to_json() == overridden.to_json()

    def test_faulted_partitioned_run_is_deterministic(self):
        text = (
            "name: faulted\n"
            "seed: 9\n"
            "catalog:\n"
            "  obvious_rule_types: ['*']\n"
            "traffic:\n"
            "  batches: 2\n"
            "  vendors:\n"
            "    - name: v\n"
            "      min_batch: 25\n"
            "      max_batch: 35\n"
            "executor:\n"
            "  kind: partitioned\n"
            "  n_workers: 4\n"
            "faults:\n"
            "  plan:\n"
            "    - kind: crash\n"
            "      worker: 0\n"
            "  random:\n"
            "    rate: 0.2\n"
        )
        first = run_scenario(loads(text))
        second = run_scenario(loads(text))
        assert first.to_json() == second.to_json()
        assert first.faults["triggered"] > 0


class TestUnseededRandomnessGuard:
    """The satellite audit, frozen as a test: module-level ``random.*``
    calls (seeded implicitly by the process) are banned everywhere the
    runner can reach. Only ``random.Random(seed)`` construction is
    allowed."""

    ROOTS = ("src/repro", "examples")

    @staticmethod
    def offending_calls(tree):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr != "Random"):
                yield node

    def test_no_module_level_random_anywhere_the_runner_touches(self):
        offenders = []
        for root in self.ROOTS:
            for path in sorted((REPO / root).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                for node in self.offending_calls(tree):
                    offenders.append(
                        f"{path.relative_to(REPO)}:{node.lineno} "
                        f"random.{node.attr}"
                    )
        assert not offenders, (
            "module-level random API used (breaks scenario replay):\n"
            + "\n".join(offenders)
        )

    def test_guard_detects_a_violation(self):
        tree = ast.parse("import random\nx = random.choice([1, 2])\n")
        assert list(self.offending_calls(tree))

    def test_guard_permits_seeded_construction(self):
        tree = ast.parse("import random\nrng = random.Random(7)\n")
        assert not list(self.offending_calls(tree))


class TestOneWorldImportGuard:
    """The seeded startup lives in ``repro/world.py`` alone: the daemon
    must not reach up into the harness for it, the world must not depend
    on either caller, and nothing in ``src/`` spawns a process pool."""

    @staticmethod
    def imported_modules(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module

    def importers(self, where, banned):
        """``where`` is a file or a directory under the repo root."""
        target = REPO / where
        paths = [target] if target.is_file() else sorted(target.rglob("*.py"))
        assert paths, f"nothing to check under {where}"
        return [
            f"{path.relative_to(REPO)} imports {module}"
            for path in paths
            for module in self.imported_modules(path)
            if any(module == b or module.startswith(b + ".") for b in banned)
        ]

    def test_service_does_not_import_the_harness(self):
        assert not self.importers("src/repro/service", ["repro.scenario"])

    def test_world_imports_neither_caller(self):
        assert not self.importers(
            "src/repro/world.py", ["repro.scenario", "repro.service"]
        )

    def test_no_process_pools_in_src(self):
        assert not self.importers("src", ["concurrent", "multiprocessing"])


class TestServedPathNeverScansGuard:
    """``RuleSet.apply`` — every active rule against the item — is the
    reference the tests compare against. The served path classifies from
    the engine's hit ids (``RuleSetMatcher.verdict``), so nothing under
    ``repro/chimera`` or ``repro/service`` may call an ``.apply(...)``."""

    ROOTS = ("src/repro/chimera", "src/repro/service")

    @staticmethod
    def apply_calls(tree):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "apply"):
                yield node

    def test_no_apply_call_on_the_served_path(self):
        offenders = []
        for root in self.ROOTS:
            paths = sorted((REPO / root).rglob("*.py"))
            assert paths, f"nothing to check under {root}"
            for path in paths:
                tree = ast.parse(path.read_text(), filename=str(path))
                offenders += [
                    f"{path.relative_to(REPO)}:{node.lineno}"
                    for node in self.apply_calls(tree)
                ]
        assert not offenders, "RuleSet.apply on the served path:\n" + "\n".join(offenders)

    def test_guard_detects_a_violation(self):
        tree = ast.parse("verdict = self.stage.rules.apply(item)\n")
        assert list(self.apply_calls(tree))
