"""Tests for the extension features: DSL UDFs, persistence, crowd synonym
judging, merge planning, and the CLI."""

import json
import os

import pytest

from repro.catalog import CatalogGenerator
from repro.catalog.types import ProductItem
from repro.core import (
    RuleParseError,
    RuleSet,
    UdfRegistry,
    UnknownUdfError,
    WhitelistRule,
    load_ruleset,
    parse_rule,
    save_ruleset,
)
from repro.crowd import CrowdBudget, CrowdSynonymJudge, WorkerPool
from repro.maintenance import apply_plan, plan_for_merge
from repro.repository import RuleRepository


def item(title, **attributes):
    return ProductItem(item_id=title[:24], title=title, attributes=attributes)


class TestUdfClauses:
    def test_udf_in_conjunction(self):
        udfs = UdfRegistry({"long_title": lambda i: len(i.title.split()) >= 5})
        rule = parse_rule("udf(long_title) & rings? -> rings", udfs=udfs)
        assert rule.matches(item("five word gold diamond ring"))
        assert not rule.matches(item("gold ring"))

    def test_udf_alone_builds_predicate_rule(self):
        udfs = UdfRegistry({"always": lambda i: True})
        rule = parse_rule("udf(always) -> NOT medicine", udfs=udfs)
        assert rule.is_blacklist
        assert rule.matches(item("anything"))

    def test_unknown_udf(self):
        with pytest.raises(UnknownUdfError):
            parse_rule("udf(missing) -> t", udfs=UdfRegistry())

    def test_udf_without_registry(self):
        with pytest.raises(RuleParseError):
            parse_rule("udf(x) -> t")

    def test_registry_rejects_noncallable(self):
        with pytest.raises(ValueError):
            UdfRegistry({"bad": 42})

    def test_names_listing(self):
        udfs = UdfRegistry({"b": lambda i: True, "a": lambda i: False})
        assert udfs.names() == ["a", "b"]
        assert "a" in udfs


class TestPersistence:
    def test_ruleset_round_trip(self, tmp_path):
        path = str(tmp_path / "rules.json")
        original = RuleSet([
            WhitelistRule("rings?", "rings", confidence=0.8),
            WhitelistRule("jeans?", "jeans"),
        ], name="mine")
        original.disable(list(original)[1].rule_id)
        save_ruleset(original, path)
        loaded = load_ruleset(path)
        assert loaded.name == "mine"
        assert len(loaded) == 2
        assert len(loaded.active_rules()) == 1
        assert loaded.apply(item("gold ring")).labels == ["rings"]

    def test_ruleset_file_is_plain_json(self, tmp_path):
        path = str(tmp_path / "rules.json")
        save_ruleset(RuleSet([WhitelistRule("a", "t")]), path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["kind"] == "ruleset"

    def test_registry_round_trip(self, tmp_path):
        root = str(tmp_path / "repo")
        deployed = WhitelistRule("rings?", "rings")
        draft = WhitelistRule("jeans?", "jeans")
        with RuleRepository.open(root) as repo:
            repo.add("chimera", deployed, author="kay")
            repo.add("chimera", draft, author="kay")
            repo.set_enabled("chimera", draft.rule_id, False, reason="unvalidated")

        with RuleRepository.open(root) as loaded:
            assert loaded.is_enabled("chimera", deployed.rule_id)
            assert not loaded.is_enabled("chimera", draft.rule_id)
            # Audit trail restored verbatim (blame is newest first).
            actions = [(e.author, e.op) for e in loaded.blame(draft.rule_id)]
            assert actions == [("direct", "disable"), ("kay", "add")]

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "rules.json")
        with open(path, "w") as handle:
            json.dump({"format": 1, "kind": "registry", "entries": []}, handle)
        with pytest.raises(ValueError):
            load_ruleset(path)

    def test_loaded_registry_keeps_working(self, tmp_path):
        root = str(tmp_path / "repo")
        rule = WhitelistRule("rings?", "rings")
        with RuleRepository.open(root) as repo:
            repo.add("chimera", rule)
            repo.set_enabled("chimera", rule.rule_id, False)
        with RuleRepository.open(root) as loaded:
            assert not loaded.materialize("chimera").apply(item("a ring")).labels
            loaded.set_enabled("chimera", rule.rule_id, True)
            assert loaded.materialize("chimera").apply(item("a ring")).labels == ["rings"]


class TestCrowdSynonymJudge:
    @pytest.fixture()
    def judge(self, taxonomy):
        return CrowdSynonymJudge(taxonomy, WorkerPool(seed=1),
                                 budget=CrowdBudget(10_000), seed=2)

    def test_statistically_sound(self, judge):
        yes = sum(judge.judge_synonym("motor oil", "vehicle", "truck")
                  for _ in range(60))
        no = sum(judge.judge_synonym("motor oil", "vehicle", "olive")
                 for _ in range(60))
        assert yes >= 50
        assert no <= 10

    def test_budget_charged(self, taxonomy):
        budget = CrowdBudget(9)
        judge = CrowdSynonymJudge(taxonomy, WorkerPool(seed=1), budget=budget)
        for _ in range(3):
            judge.judge_synonym("motor oil", "vehicle", "truck")
        assert budget.remaining == 0

    def test_slot_none_uses_all_modifiers(self, judge):
        yes = sum(judge.judge_synonym("motor oil", None, "synthetic")
                  for _ in range(30))
        assert yes >= 24  # "synthetic" is in the grade family

    def test_even_votes_rejected(self, taxonomy):
        with pytest.raises(ValueError):
            CrowdSynonymJudge(taxonomy, WorkerPool(seed=1), votes_per_candidate=2)

    def test_drives_discovery_session(self, taxonomy):
        from repro.synonym import DiscoverySession, SynonymTool
        generator = CatalogGenerator(taxonomy, seed=91)
        corpus = [i.title for i in generator.generate_items(4000)]
        tool = SynonymTool(r"(motor | engine | \syn) oils? -> motor oil", corpus)
        judge = CrowdSynonymJudge(taxonomy, WorkerPool(seed=3), seed=4)
        report = DiscoverySession(tool, judge, slot="vehicle", patience=2).run()
        family = set(taxonomy.get("motor oil").slot("vehicle"))
        assert len(set(report.synonyms_found) & family) >= 5


class TestMergePlanning:
    def test_merge_retargets_everything(self):
        rules = [WhitelistRule("work pants?", "work pants"),
                 WhitelistRule("jeans?", "jeans"),
                 WhitelistRule("rings?", "rings")]
        plan = plan_for_merge(rules, ["work pants", "jeans"], "pants")
        assert len(plan.invalidated) == 2
        assert set(plan.retargets.values()) == {"pants"}
        assert plan.undecidable == []
        apply_plan(rules, plan)
        assert rules[0].target_type == "pants"
        assert rules[1].target_type == "pants"
        assert rules[2].target_type == "rings"

    def test_needs_old_types(self):
        with pytest.raises(ValueError):
            plan_for_merge([], [], "x")


class TestCli:
    def test_catalog_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "items.jsonl")
        assert main(["catalog", "--items", "25", "--out", out]) == 0
        with open(out) as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == 25
        assert all("title" in row and "true_type" in row for row in rows)

    def test_rulegen_then_classify(self, tmp_path, capsys):
        from repro.cli import main
        rules_path = str(tmp_path / "rules.json")
        assert main(["rulegen", "--training", "2500", "--quota", "30",
                     "--out", rules_path]) == 0
        assert os.path.exists(rules_path)
        assert main(["classify", "--rules", rules_path, "--items", "300",
                     "--training", "1000"]) == 0
        output = capsys.readouterr().out
        metrics = json.loads(output[output.index("{"):])
        assert metrics["items"] == 300
        assert metrics["true_precision"] >= 0.85

    def test_synonyms_command(self, capsys):
        from repro.cli import main
        code = main(["synonyms", "--rule",
                     r"(motor | engine | \syn) oils? -> motor oil",
                     "--slot", "vehicle", "--corpus", "3000"])
        assert code == 0
        output = capsys.readouterr().out
        assert "synonyms found" in output

    def test_synonyms_bad_rule_errors(self, capsys):
        from repro.cli import main
        assert main(["synonyms", "--rule", r"(zzz | \syn) qqq -> nothing",
                     "--corpus", "500"]) == 1
