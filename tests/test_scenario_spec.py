"""Scenario spec loading and validation, plus the in-repo YAML parser.

Every install reads specs with the dependency-free parser in
:mod:`repro.scenario.yamlio`; PyYAML, where installed, is only the oracle
that the shipped library parses as YAML reads it.
"""

import pathlib

import pytest

from repro.scenario import ScenarioSpec, SpecError, YamlError, loads
from repro.scenario.library import SMOKE_TAG, library_paths, load_library
from repro.scenario.yamlio import safe_load

try:
    import yaml as pyyaml
except ImportError:  # pragma: no cover - exercised on bare installs
    pyyaml = None

GOLDEN_SCENARIOS = pathlib.Path(__file__).parent / "golden" / "scenarios"

MINIMAL = """
name: tiny
traffic:
  batches: 2
"""


def all_spec_paths():
    paths = list(library_paths().values())
    paths.extend(str(p) for p in sorted(GOLDEN_SCENARIOS.glob("*.yaml")))
    return paths


class TestYamlFallback:
    def test_scalars(self):
        text = "a: 1\nb: 2.5\nc: true\nd: null\ne: plain text\nf: 'quoted: text'"
        assert safe_load(text) == {
            "a": 1, "b": 2.5, "c": True, "d": None,
            "e": "plain text", "f": "quoted: text",
        }

    def test_nested_blocks_and_lists(self):
        text = (
            "outer:\n"
            "  inner:\n"
            "    - name: x\n"
            "      n: 1\n"
            "    - name: y\n"
            "  flags: [a, b]\n"
            "  map: {k: v, n: 3}\n"
        )
        assert safe_load(text) == {
            "outer": {
                "inner": [{"name": "x", "n": 1}, {"name": "y"}],
                "flags": ["a", "b"],
                "map": {"k": "v", "n": 3},
            }
        }

    def test_comments_stripped_outside_strings(self):
        text = "a: 1  # trailing\n# full line\nb: 'kept # inside'\n"
        assert safe_load(text) == {"a": 1, "b": "kept # inside"}

    def test_rejects_tabs_in_indentation(self):
        with pytest.raises(YamlError, match="tabs"):
            safe_load("a:\n\tb: 1")

    def test_rejects_duplicate_keys(self):
        with pytest.raises(YamlError, match="duplicate"):
            safe_load("a: 1\na: 2")

    def test_error_carries_line_number(self):
        with pytest.raises(YamlError) as exc:
            safe_load("ok: 1\nbroken junk without colon\n")
        assert exc.value.line == 2

    @pytest.mark.skipif(pyyaml is None, reason="PyYAML not installed")
    @pytest.mark.parametrize("path", all_spec_paths(),
                             ids=lambda p: pathlib.Path(p).stem)
    def test_fallback_agrees_with_pyyaml_on_every_shipped_spec(self, path):
        text = pathlib.Path(path).read_text()
        assert safe_load(text) == pyyaml.safe_load(text)


class TestSpecValidation:
    def test_minimal_spec_defaults(self):
        spec = loads(MINIMAL)
        assert spec.name == "tiny"
        assert spec.traffic.batches == 2
        assert spec.executor.kind == "incremental"
        assert spec.seed == 0
        assert len(spec.exit) == 0

    def test_unknown_top_key_is_an_error(self):
        with pytest.raises(SpecError, match="unknown keys"):
            loads("name: x\nbogus: 1\n")

    def test_name_is_required(self):
        with pytest.raises(SpecError, match="name.*required"):
            loads("traffic:\n  batches: 2\n")

    def test_event_past_last_batch_is_an_error(self):
        with pytest.raises(SpecError, match="past the last"):
            loads(
                "name: x\n"
                "traffic:\n"
                "  batches: 2\n"
                "drift:\n"
                "  - at_batch: 5\n"
                "    op: surge_department\n"
                "    department: home\n"
            )

    def test_fault_plan_requires_partitioned_executor(self):
        with pytest.raises(SpecError, match="partitioned"):
            loads(
                "name: x\n"
                "faults:\n"
                "  plan:\n"
                "    - kind: crash\n"
                "      worker: 0\n"
            )

    @pytest.mark.parametrize("key", ["worker", "shard", "attempt"])
    def test_fault_coordinate_past_the_workers_is_an_error(self, key):
        text = (
            "name: x\n"
            "executor:\n"
            "  kind: partitioned\n"
            "  n_workers: 2\n"
            "faults:\n"
            "  plan:\n"
            "    - kind: crash\n"
            "      worker: 0\n"
            "    - kind: hang\n"
            f"      {key}: 1\n"
        )
        loads(text)  # every coordinate in [0, n_workers) is reachable
        with pytest.raises(SpecError, match=rf"faults\.plan\[1\]\.{key}: 2 is out of range"):
            loads(text.replace(f"{key}: 1", f"{key}: 2"))

    def test_spare_workers_past_the_workers_is_an_error(self):
        text = (
            "name: x\n"
            "executor:\n"
            "  kind: partitioned\n"
            "  n_workers: 2\n"
            "faults:\n"
            "  random:\n"
            "    rate: 0.5\n"
            "    spare_workers: 2\n"
        )
        loads(text)
        with pytest.raises(SpecError, match=r"faults\.random\.spare_workers: 9 exceeds"):
            loads(text.replace("spare_workers: 2", "spare_workers: 9"))

    def test_burst_must_name_a_declared_vendor(self):
        with pytest.raises(SpecError, match="unknown vendor"):
            loads(
                "name: x\n"
                "traffic:\n"
                "  batches: 3\n"
                "  vendors:\n"
                "    - name: a\n"
                "  bursts:\n"
                "    - at_batch: 1\n"
                "      vendor: ghost\n"
            )

    def test_split_needs_two_new_types(self):
        with pytest.raises(SpecError, match="split needs"):
            loads(
                "name: x\n"
                "traffic:\n"
                "  batches: 3\n"
                "taxonomy_changes:\n"
                "  - at_batch: 1\n"
                "    op: split\n"
                "    type: jeans\n"
                "    into:\n"
                "      only-one: [a]\n"
            )

    def test_even_crowd_votes_rejected(self):
        with pytest.raises(SpecError, match="odd"):
            loads("name: x\ncrowd:\n  votes_per_pair: 4\n")

    def test_unknown_exit_key_rejected(self):
        with pytest.raises(SpecError, match="unknown keys"):
            loads("name: x\nexit:\n  min_bananas: 3\n")

    def test_drift_op_requires_its_fields(self):
        with pytest.raises(SpecError, match="extend_slot needs"):
            loads(
                "name: x\n"
                "drift:\n"
                "  - at_batch: 0\n"
                "    op: extend_slot\n"
                "    type: jeans\n"
            )

    def test_fingerprint_is_stable_and_seed_independent_fields_change_it(self):
        spec_a = loads(MINIMAL)
        spec_b = loads(MINIMAL)
        assert spec_a.fingerprint() == spec_b.fingerprint()
        assert spec_a.fingerprint() != loads(
            MINIMAL.replace("batches: 2", "batches: 3")
        ).fingerprint()

    def test_to_dict_is_json_safe_and_key_complete(self):
        import json

        spec = loads(MINIMAL)
        data = spec.to_dict()
        json.dumps(data)  # must not raise
        assert set(data) == set(ScenarioSpec.TOP_KEYS)


class TestLibrary:
    def test_library_has_at_least_twelve_scenarios(self):
        assert len(library_paths()) >= 12

    def test_every_library_spec_loads_and_declares_exits(self):
        specs = load_library()
        for spec in specs:
            assert spec.name
            assert spec.description
            assert len(spec.exit) >= 1, f"{spec.name} declares no exit conditions"

    def test_smoke_subset_is_nonempty_and_small(self):
        smoke = [s for s in load_library() if SMOKE_TAG in s.tags]
        assert 2 <= len(smoke) <= 6

    def test_library_names_match_file_stems(self):
        for stem, path in library_paths().items():
            from repro.scenario import load_scenario

            assert load_scenario(path).name == stem
