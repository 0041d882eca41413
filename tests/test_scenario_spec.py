"""Scenario spec loading and validation, plus the in-repo YAML parser.

Every install reads specs with the dependency-free parser in
:mod:`repro.scenario.yamlio`; PyYAML, where installed, is only the oracle
that the shipped library parses as YAML reads it.
"""

import copy
import dataclasses
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioSpec, SpecError, YamlError, load_scenario, loads
from repro.scenario.library import SMOKE_TAG, library_dir, library_paths, load_library
from repro.scenario.yamlio import safe_load

try:
    import yaml as pyyaml
except ImportError:  # pragma: no cover - exercised on bare installs
    pyyaml = None

TESTS = pathlib.Path(__file__).parent
GOLDEN_SCENARIOS = TESTS / "golden" / "scenarios"

# Two tables pinned before the section readers were derived from the
# dataclass fields: every shipped spec's canonical dict and fingerprint,
# and invalid documents (one field of a valid base document set or
# removed) with the exact SpecError each one raises.
SPEC_TABLE = json.loads((TESTS / "golden" / "spec_table.json").read_text())
REFUSALS = json.loads((TESTS / "golden" / "spec_refusals.json").read_text())

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


# Scalars where a hand-written reader and YAML 1.1 are likely to part:
# special floats, exponents without a dot or a sign, leading zeros,
# bases, grouped digits, YAML 1.1 booleans, dates, indicators, escapes.
_ATOMS = [
    "nan", "NaN", ".nan", ".NaN", ".inf", "-.inf", "+.Inf", "inf", "-inf",
    "1e5", "1.5e3", "1.5e+3", "1e400", "1.0e+400", "010", "08", "0x10", "0b11",
    "0o10", "1_000", "1_0.5", "190:20:30", "0:30", "yes", "No", "on", "OFF",
    "y", "n", "true", "True", "TRUE", "tRUE", "false", "null", "Null", "NULL",
    "nULL", "~", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "=", "<<", "-1",
    "+1", "0", "-0", "1.", ".5", "-.5", "+.5", "3.14", "-", "?", ":", "-a",
    "?a", ":a", "a:", "a:b", "a: b", "a #b", "a#b", "#a", "&a", "*a", "!a",
    "|", ">", "%a", "@a", "`a", "a,b", "[a", "a]", "{a", "a}", "it's",
    "'it''s'", '"a\\nb"', '"\\q"', '"\\x41"', '"\\u263A"', '"\\U0001F600"',
    "''", '""', "'", '"', "a\\b", "a b", "\u00e9", "\xa0a", "a\xa0",
]
_CHARS = st.sampled_from(list("abXY019 -_.+:#,'\"\\[]{}?!&*|>%@`~=<\t/()")
                         + ["\u00e9", "\xa0", "\u2014", "\u3000", "\ufeff", "\U0001f600"])
_TEXT = st.lists(_CHARS, max_size=8).map("".join)
_PIECE = st.one_of(st.sampled_from(_ATOMS), _TEXT)
_SCALAR = st.one_of(
    st.sampled_from(_ATOMS),
    st.integers().map(str),
    st.floats().map(repr),
    _TEXT,
    _TEXT.map(lambda t: "'" + t.replace("'", "''") + "'"),
    _TEXT.map(lambda t: '"' + t + '"'),
    st.lists(_PIECE, min_size=2, max_size=3).map("".join),
)
_DOCUMENT = st.one_of(
    _SCALAR.map(lambda s: f"k: {s}"),
    st.lists(_SCALAR, max_size=4).map(lambda ss: "k: [" + ", ".join(ss) + "]"),
    st.lists(_SCALAR, max_size=4).map(lambda ss: "k: [" + ",".join(ss) + "]"),
    st.tuples(_SCALAR, _SCALAR).map(lambda p: f"k: {{a: {p[0]}, b: {p[1]}}}"),
    st.tuples(_SCALAR, _SCALAR).map(lambda p: f"k: {{{p[0]}: {p[1]}}}"),
    _SCALAR.map(lambda s: f"- {s}"),
    _SCALAR.map(lambda s: f"{s}: 1"),
)


def _typed(value):
    """``value`` with every leaf's type spelled out (``1 != True != 1.0``)."""
    if isinstance(value, dict):
        return [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value).__name__, repr(value)


class TestYamlAgreement:
    """The contract: a document is read as YAML reads it, or refused."""

    @pytest.mark.skipif(pyyaml is None, reason="PyYAML not installed")
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENT)
    @example("- nan '\t")
    @example("k: a 'b # c")
    def test_scalars_and_inline_collections_read_as_pyyaml_or_refuse(self, text):
        try:
            ours = safe_load(text)
        except YamlError:
            return
        assert _typed(ours) == _typed(pyyaml.safe_load(text))

    @pytest.mark.parametrize("text, expected", [
        ("nan", "nan"), (".nan", math.nan), ("-.inf", -math.inf), ("1e5", "1e5"),
        ("1.5e3", "1.5e3"), ("1.5e+3", 1500.0), ("1e400", "1e400"),
        ("'it''s'", "it's"), ('"a\\nb"', "a\nb"), ('"\\x41\\u263a"', "A\u263a"),
        ("-.5", "-.5"), ("TRUE", True),
    ])
    def test_scalar_resolves_as_yaml_does(self, text, expected):
        value = safe_load(f"k: {text}")["k"]
        assert type(value) is type(expected)
        assert repr(value) == repr(expected)

    @pytest.mark.parametrize("text", [
        "010", "0x10", "0b11", "1_000", "190:20:30", "yes", "on", "Off",
        "2001-12-14", "=", '"\\q"', "'a' b", "a: b", "&anchor", "[a, , b]",
    ])
    def test_scalar_yaml_reads_otherwise_is_refused_with_its_line(self, text):
        with pytest.raises(YamlError) as refused:
            safe_load(f"ok: 1\nk: {text}\n")
        assert refused.value.line == 2

    def test_unprintable_character_is_refused_with_its_line(self):
        with pytest.raises(YamlError, match="unprintable") as refused:
            safe_load("a: 1\nb: x\x07y\n")
        assert refused.value.line == 2


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


def _refused_document(entry):
    doc = copy.deepcopy(REFUSALS["base"])
    path = entry["path"]
    if not path:
        return entry["value"]
    target = doc
    for part in path[:-1]:
        target = target[part]
    if "value" in entry:
        target[path[-1]] = entry["value"]
    else:
        del target[path[-1]]
    return doc


class TestPinnedTables:
    @pytest.mark.parametrize("key", sorted(SPEC_TABLE))
    def test_shipped_spec_matches_its_pinned_dict_and_fingerprint(self, key):
        root = pathlib.Path(library_dir()).parent if key.startswith("library/") else TESTS
        spec = load_scenario(str(root / key))
        pinned = SPEC_TABLE[key]
        assert json.dumps(spec.to_dict(), sort_keys=True) == \
            json.dumps(pinned["spec"], sort_keys=True)
        assert spec.fingerprint() == pinned["fingerprint"]

    def test_table_covers_every_shipped_spec(self):
        assert len(SPEC_TABLE) == len(all_spec_paths()) == 16

    def test_base_document_is_valid(self):
        ScenarioSpec.from_dict(copy.deepcopy(REFUSALS["base"]))

    @pytest.mark.parametrize(
        "entry", REFUSALS["refusals"],
        ids=[f"{i:03d}-" + ".".join(map(str, e["path"])) for i, e in
             enumerate(REFUSALS["refusals"])])
    def test_invalid_document_raises_its_pinned_message(self, entry):
        with pytest.raises(SpecError) as refused:
            ScenarioSpec.from_dict(_refused_document(entry))
        assert str(refused.value) == entry["error"]


SPLIT = """
name: x
traffic:
  batches: 5
taxonomy_changes:
  - at_batch: 1
    op: split
    type: jeans
    into: {into}
"""


class TestSplitTypeNames:
    """A split's new type names load as strings, in sorted order; a map
    whose names mix kinds cannot be sorted and is refused by name."""

    @pytest.mark.parametrize("into, names", [
        ("{b: [x], a: [y]}", ("a", "b")),
        ("{10: [x], 9: [y]}", ("9", "10")),
    ])
    def test_names_of_one_kind_load(self, into, names):
        change = loads(SPLIT.format(into=into)).taxonomy_changes[0]
        assert tuple(name for name, _ in change.into) == names

    @pytest.mark.parametrize("into, got", [
        ("{1: [a], b: [c]}", "'b', 1"),
        ('{1: [a], "1": [b]}', "'1', 1"),
    ])
    def test_names_of_mixed_kinds_are_refused(self, into, got):
        with pytest.raises(SpecError) as refused:
            loads(SPLIT.format(into=into))
        assert str(refused.value) == (
            "taxonomy_changes[0].into: names must be all strings or all numbers, "
            f"got {got}")


# Every float a spec holds, by its path in the base document of
# spec_refusals.json; weight maps are keyed by type.
FLOAT_FIELDS = {
    ("traffic", "mean_gap_hours"): ("TrafficSpec", "mean_gap_hours"),
    ("traffic", "hot_keys", 0, "weights", "jeans"): ("HotKeySpec", "weights"),
    ("drift", 0, "weights", "w"): ("DriftOp", "weights"),
    ("drift", 0, "factor"): ("DriftOp", "factor"),
    ("rule_churn", 0, "disable_fraction"): ("RuleChurn", "disable_fraction"),
    ("faults", "random", "rate"): ("FaultsSpec", "random_rate"),
    ("crowd", "budget"): ("CrowdSpec", "budget"),
    ("quality", "precision_floor"): ("QualitySpec", "precision_floor"),
    ("incidents", "monitor_floor"): ("IncidentPolicy", "monitor_floor"),
    ("analyst", "verification_accuracy"): ("AnalystSpec", "verification_accuracy"),
    ("analyst", "labeling_accuracy"): ("AnalystSpec", "labeling_accuracy"),
    ("exit", "final_precision_at_least"): ("ExitConditions", "checks"),
}


def _dotted(path):
    """``("drift", 0, "factor")`` as the loader names it: ``drift[0].factor``."""
    named = ""
    for part in path:
        named += f"[{part}]" if isinstance(part, int) else f".{part}" if named else part
    return named


class TestFiniteNumbers:
    def test_every_declared_float_field_is_listed(self):
        from repro.scenario import spec as spec_module

        declared = {
            (cls.__name__, f.name)
            for cls in vars(spec_module).values() if dataclasses.is_dataclass(cls)
            for f in dataclasses.fields(cls) if "float" in str(f.type)
        }
        assert declared <= set(FLOAT_FIELDS.values())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    @pytest.mark.parametrize("path", list(FLOAT_FIELDS), ids=_dotted)
    def test_non_finite_number_is_refused_naming_its_field(self, path, value):
        doc = _refused_document({"path": list(path), "value": value})
        with pytest.raises(SpecError, match="must be a finite number") as refused:
            ScenarioSpec.from_dict(doc)
        assert str(refused.value).startswith(_dotted(path) + ":")

    def test_nan_mean_gap_fails_at_load_not_at_open_world(self):
        with pytest.raises(SpecError, match=r"^traffic\.mean_gap_hours: must be a finite"):
            loads("name: x\ntraffic:\n  mean_gap_hours: .nan\n")


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
