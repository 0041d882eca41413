"""The rule lifecycle the deleted ``RuleRegistry`` managed, asked of the one
store that remains.

On a :class:`~repro.repository.RuleRepository` a "draft" is a rule added
disabled, deploy / disable are enabled flips, retire is a remove, a
revision is a replace, and the audit trail is the change log (``blame``).
"""

import pytest

from repro.catalog.types import ProductItem
from repro.core import DuplicateRuleError, UnknownRuleError, WhitelistRule
from repro.repository import RuleRepository

NS = "chimera"


@pytest.fixture()
def repo(clock):
    return RuleRepository(clock=clock)


def draft(pattern, target, **kwargs):
    rule = WhitelistRule(pattern, target, **kwargs)
    rule.enabled = False
    return rule


class TestLifecycle:
    def test_submit_starts_draft(self, repo):
        rule = draft("rings?", "rings")
        repo.add(NS, rule)
        assert not repo.is_enabled(NS, rule.rule_id)
        assert not repo.materialize(NS).is_enabled(rule.rule_id)

    def test_full_happy_path(self, repo):
        rule = draft("rings?", "rings")
        repo.add(NS, rule)
        repo.set_enabled(NS, rule.rule_id, True, reason="precision=0.950")
        assert repo.is_enabled(NS, rule.rule_id)
        repo.set_enabled(NS, rule.rule_id, False, reason="incident")
        assert not repo.materialize(NS).active_rules()
        repo.set_enabled(NS, rule.rule_id, True)  # re-enable after incident
        repo.remove(NS, rule.rule_id)
        assert repo.rule_ids(NS) == []

    def test_retired_is_terminal(self, repo):
        rule = WhitelistRule("a", "t")
        repo.add(NS, rule)
        repo.remove(NS, rule.rule_id)
        with pytest.raises(UnknownRuleError):
            repo.set_enabled(NS, rule.rule_id, True)
        with pytest.raises(UnknownRuleError):
            repo.replace(NS, rule)

    def test_duplicate_submit(self, repo):
        rule = WhitelistRule("a", "t")
        repo.add(NS, rule)
        with pytest.raises(DuplicateRuleError):
            repo.add(NS, rule)

    def test_unknown_rule(self, repo):
        with pytest.raises(UnknownRuleError):
            repo.set_enabled(NS, "nope", True)


class TestRevision:
    def test_revise_bumps_version_and_resets_validation(self, repo):
        rule = WhitelistRule("rings?", "rings")
        repo.add(NS, rule)
        revised = WhitelistRule("(wedding )?rings?", "rings", rule_id=rule.rule_id)
        repo.replace(NS, revised)
        assert repo.revision(NS, rule.rule_id) == 2
        assert repo.materialize(NS).get(rule.rule_id).pattern == "(wedding )?rings?"
        # the enabled flag belongs to the id, not the revision
        assert repo.is_enabled(NS, rule.rule_id)


class TestQueries:
    def test_query_filters(self, repo):
        a = WhitelistRule("a", "rings", author="kay")
        b = WhitelistRule("b", "books", author="lee")
        repo.add("chimera", a)
        repo.add("em", b)
        assert [e.rule_id for e in repo.changes("chimera")] == [a.rule_id]
        assert [e.rule_id for e in repo.changes("em")] == [b.rule_id]
        assert repo.blame(a.rule_id, namespace="em") == []
        assert repo.namespaces() == ["chimera", "em"]

    def test_deployed_ruleset(self, repo):
        repo.add(NS, WhitelistRule("rings?", "rings"))
        repo.add(NS, draft("b", "books"))
        deployed = repo.materialize(NS)
        assert len(deployed.active_rules()) == 1
        item = ProductItem(item_id="i", title="gold ring")
        assert deployed.apply(item).labels == ["rings"]


class TestAudit:
    def test_audit_records_actor_and_time(self, repo, clock):
        rule = WhitelistRule("a", "t")
        repo.add(NS, rule, author="kay")
        clock.advance(days=1)
        repo.set_enabled(NS, rule.rule_id, False, author="crowd-pipeline")
        trail = repo.blame(rule.rule_id)  # newest first
        assert [(e.author, e.op) for e in trail] == [
            ("crowd-pipeline", "disable"), ("kay", "add"),
        ]
        assert trail[0].at == 1.0
