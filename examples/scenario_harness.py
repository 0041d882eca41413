"""The declarative scenario harness, end to end (DESIGN.md §10).

Where examples/incident_response.py hand-wires §2.2's incident, the
scenario harness makes the whole operational story data: a YAML spec
names the traffic, drift, incident policy, and exit conditions, and the
runner executes it fully deterministically from its seed. This example
runs a library scenario, shows the health report, proves byte-identical
replay, and then runs an inline spec authored right here.

Run:  python examples/scenario_harness.py
"""

from repro.scenario import loads, run_scenario
from repro.scenario.library import load_library_scenario

INLINE_SPEC = """
name: inline-onboarding
description: Authored inline — onboard home goods mid-run, coverage must climb.
seed: 31
catalog:
  obvious_rule_types: [jeans, work pants, running shoes]
traffic:
  batches: 4
  vendors:
    - name: assorted
      min_batch: 25
      max_batch: 40
  hot_keys:
    # The home-goods push: traffic shifts to the types being onboarded.
    - at_batch: 2
      weights:
        area rugs: 8.0
        bed sheets: 8.0
        table lamps: 8.0
        coffee makers: 8.0
scale_ups:
  - at_batch: 2
    types: [area rugs, bed sheets, table lamps, coffee makers]
exit:
  min_batches: 4
  mean_precision_at_least: 0.85
"""


def main() -> None:
    # 1. A shipped scenario: §2.2's vendor-vocabulary incident as data.
    spec = load_library_scenario("vendor-vocabulary-storm")
    print(f"=== library scenario: {spec.name} (seed {spec.seed}) ===\n")
    report = run_scenario(spec)
    print(report.render_text())

    # 2. The determinism contract: same spec + seed => byte-identical.
    replay = run_scenario(spec)
    identical = replay.to_json() == report.to_json()
    print(f"replay byte-identical: {identical}")
    assert identical

    # 3. A spec authored inline: coverage climbs as types onboard.
    inline = loads(INLINE_SPEC)
    print(f"\n=== inline scenario: {inline.name} ===\n")
    inline_report = run_scenario(inline)
    first, last = inline_report.batches[0], inline_report.batches[-1]
    print(inline_report.render_text())
    print(f"coverage climbed: {first['coverage']:.3f} -> {last['coverage']:.3f} "
          f"after onboarding home goods at batch 2")


if __name__ == "__main__":
    main()
