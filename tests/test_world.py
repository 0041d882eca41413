"""One world: the daemon and the scenario harness stand on the same
seeded startup (``repro.world.build_world``), and run-local ids do not
depend on what else the process has done."""

from hypothesis import given, settings, strategies as st

from repro.chimera import Chimera, IncidentManager
from repro.core import WhitelistRule
from repro.core.serialize import rule_to_dict
from repro.scenario import ScenarioRunner, loads
from repro.service import ServiceConfig, StreamService
from repro.world import RunIds, build_world


def payloads(rules, prefix):
    """Rule payloads with the run prefix cut off the id."""
    out = []
    for rule in rules:
        payload = rule_to_dict(rule)
        assert payload["rule_id"].startswith(prefix + "-")
        payload["rule_id"] = payload["rule_id"][len(prefix):]
        out.append(payload)
    return out


def open_incidents(manager, script):
    for kind in script:
        if kind == "type":
            manager.open_incident(["rings"])
        elif kind == "stage":
            manager.open_stage_incident("learning")
        else:
            manager.open_rule_incident(["r-1"])
    return [incident.incident_id for incident in manager.incidents]


class TestProcessTrafficCannotShiftAWorld:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        prefix=st.sampled_from(["svc", "scn", "x"]),
        noise_rules=st.integers(0, 5),
        noise_incidents=st.integers(0, 3),
        script=st.lists(st.sampled_from(["type", "stage", "rule"]), max_size=4),
    )
    def test_same_seed_same_world_and_ids(
        self, seed, prefix, noise_rules, noise_incidents, script
    ):
        def world():
            return build_world(
                seed, RunIds(prefix),
                training=30, min_examples=2, mean_gap_hours=6.0, rules_per_day=40,
            )

        first = world()
        first_incidents = open_incidents(IncidentManager(first.chimera), script)
        # unrelated traffic on the process-global counters
        for _ in range(noise_rules):
            WhitelistRule("noise", "rings")
        bystander = IncidentManager(Chimera.build())
        for _ in range(noise_incidents):
            bystander.open_incident(["rings"])
        second = world()
        second_incidents = open_incidents(IncidentManager(second.chimera), script)

        assert [r.rule_id for r in first.startup_rules] == [
            r.rule_id for r in second.startup_rules
        ]
        assert payloads(first.startup_rules, prefix) == payloads(
            second.startup_rules, prefix
        )
        assert first.chimera.training_data == second.chimera.training_data
        assert first.stream.next_batch() == second.stream.next_batch()
        assert first_incidents == second_incidents
        assert first_incidents == [
            f"incident-{n:04d}" for n in range(1, len(script) + 1)
        ]


class TestDaemonAndHarnessAgree:
    def test_same_seed_same_first_batch_and_startup_rules(self, tmp_path):
        config = ServiceConfig(seed=23, training=40)
        spec = loads(
            "name: agree\n"
            f"seed: {config.seed}\n"
            "catalog:\n"
            f"  training: {config.training}\n"
            f"  min_examples: {config.min_examples}\n"
            "  obvious_rule_types: ['*']\n"
            "traffic:\n"
            f"  mean_gap_hours: {config.mean_gap_hours}\n"
            "analyst:\n"
            f"  rules_per_day: {config.rules_per_day}\n"
        )
        world = ScenarioRunner(spec).open_world()
        with StreamService(str(tmp_path / "run"), config, fsync=False) as service:
            served = list(service.chimera.rule_stage.rules)
            assert payloads(served, "svc") == payloads(world.startup_rules, "scn")
            assert service.chimera.training_data == world.chimera.training_data
            batch, _result = service.process_batch()
        assert batch == world.stream.next_batch()
