"""Command-line interface: drive the library without writing Python.

Subcommands::

    repro catalog  --items 1000 --out items.jsonl        # synthetic items
    repro rulegen  --training 8000 --out rules.json      # §5.2 generation
    repro classify --rules rules.json --items 1000       # Chimera metrics
    repro synonyms --rule "(motor | engine | \\syn) oils? -> motor oil" \\
                   --slot vehicle                        # §5.1 tool session
    repro trace classify --out trace.json               # traced run + report
    repro monitor --rules rules.json --catalog items.json \
                  --json health.json                    # rule-quality telemetry

``trace`` re-runs one of the instrumented paths (classify / exec /
rulegen / synonyms) with observability enabled, prints the plain-text
span + metrics report, and optionally writes the trace as Chrome-trace
JSON (load it at chrome://tracing or https://ui.perfetto.dev) or
JSON-lines.

Every command is seeded and deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analyst import SimulatedAnalyst
from repro.catalog import CatalogGenerator, build_seed_taxonomy, synthesize_types
from repro.chimera import Chimera
from repro.core import RuleSet, load_ruleset, save_ruleset
from repro.synonym import DiscoverySession, SynonymTool


def _build_generator(seed: int, extra_types: int) -> CatalogGenerator:
    import random

    taxonomy = build_seed_taxonomy()
    if extra_types:
        for product_type in synthesize_types(extra_types, random.Random(seed)):
            taxonomy.add(product_type)
    return CatalogGenerator(taxonomy, seed=seed)


def _cmd_catalog(args: argparse.Namespace) -> int:
    generator = _build_generator(args.seed, args.extra_types)
    items = generator.generate_items(args.items)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for item in items:
            out.write(json.dumps({
                "item_id": item.item_id,
                "title": item.title,
                "attributes": dict(item.attributes),
                "true_type": item.true_type,
            }) + "\n")
    finally:
        if args.out:
            out.close()
    print(f"wrote {len(items)} items "
          f"({len(generator.taxonomy)} types)", file=sys.stderr)
    return 0


def _cmd_rulegen(args: argparse.Namespace) -> int:
    # Induction imports numpy; only the subcommands that induce load it.
    from repro.rulegen import RuleGenerator

    generator = _build_generator(args.seed, args.extra_types)
    training = generator.generate_labeled(args.training)
    result = RuleGenerator(
        min_support=args.min_support, q=args.quota, alpha=args.alpha,
        dedupe=args.dedupe,
    ).generate(training)
    extra = f" [{result.n_deduped} deduped]" if args.dedupe else ""
    ruleset = RuleSet(result.rules, name="rulegen")
    save_ruleset(ruleset, args.out)
    print(f"mined {result.n_mined}, clean {result.n_clean}, "
          f"selected {result.n_selected} "
          f"(high {len(result.high_confidence)}, low {len(result.low_confidence)}) "
          f"-> {args.out}{extra}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    generator = _build_generator(args.seed, args.extra_types)
    chimera = Chimera.build(seed=args.seed)
    if args.rules:
        ruleset = load_ruleset(args.rules)
        chimera.add_whitelist_rules(
            [r for r in ruleset if not r.is_blacklist and not r.is_constraint])
        chimera.add_blacklist_rules([r for r in ruleset if r.is_blacklist])
    if args.training:
        chimera.add_training(generator.generate_labeled(args.training))
        chimera.retrain(min_examples_per_type=args.min_examples)
    batch = generator.generate_items(args.items)
    result = chimera.classify_batch(batch)
    print(json.dumps({
        "items": len(batch),
        "classified": len(result.classified_pairs),
        "declined": len(result.declined),
        "coverage": round(result.coverage, 4),
        "true_precision": round(result.true_precision(), 4),
        "true_recall": round(result.true_recall(), 4),
        "rule_counts": chimera.rule_count(),
    }, indent=2))
    return 0


def _cmd_synonyms(args: argparse.Namespace) -> int:
    generator = _build_generator(args.seed, 0)
    corpus = [item.title for item in generator.generate_items(args.corpus)]
    try:
        tool = SynonymTool(args.rule, corpus)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    analyst = SimulatedAnalyst(generator.taxonomy, seed=args.seed)
    session = DiscoverySession(tool, analyst, slot=args.slot, patience=2)
    report = session.run(corpus_titles=len(corpus))
    print(f"candidates mined : {tool.n_candidates}")
    print(f"synonyms found   : {', '.join(sorted(report.synonyms_found)) or '(none)'}")
    print(f"iterations       : {report.iterations} "
          f"(first find at {report.first_find_iteration})")
    print(f"analyst effort   : {report.candidates_reviewed} candidates "
          f"(~{report.review_minutes():.1f} min)")
    print(f"expanded rule    : {report.expanded_pattern}")
    return 0


def _load_catalog_items(path: str):
    """Items from a JSON array or JSON-lines file (the catalog formats)."""
    from repro.catalog.types import ProductItem

    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        rows = json.loads(text)
    else:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [
        ProductItem(
            item_id=row["item_id"],
            title=row["title"],
            attributes=dict(row.get("attributes", {})),
            true_type=row.get("true_type", ""),
            vendor=row.get("vendor", ""),
            description=row.get("description", ""),
        )
        for row in rows
    ]


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Classify with rule-quality telemetry on; report per-rule health."""
    from repro.chimera.incidents import IncidentManager
    from repro.crowd import VerificationTask, WorkerPool
    from repro.evaluation.per_rule import PerRuleCrowdEvaluator
    from repro.observability import (
        Observability,
        RuleHealthTracker,
        render_health_report,
        write_health_json,
    )

    generator = _build_generator(args.seed, args.extra_types)
    observability = Observability()
    chimera = Chimera.build(seed=args.seed, observability=observability)
    loaded_rules = None
    if args.rules:
        with open(args.rules) as handle:
            payload = json.load(handle)
        if isinstance(payload, list):
            # Bare rule-dict list (the golden-corpus format).
            from repro.core.serialize import rules_from_dicts

            loaded_rules = rules_from_dicts(payload)
        else:
            loaded_rules = load_ruleset(args.rules)
        chimera.add_whitelist_rules(
            [r for r in loaded_rules if not r.is_blacklist and not r.is_constraint])
        chimera.add_blacklist_rules([r for r in loaded_rules if r.is_blacklist])
    if args.training:
        chimera.add_training(generator.generate_labeled(args.training))
        chimera.retrain(min_examples_per_type=args.min_examples)

    tracker = RuleHealthTracker(
        window=args.window,
        baseline_batches=args.baseline_batches,
        precision_floor=args.floor,
        metrics=observability.metrics,
    )
    chimera.enable_quality_telemetry(rule_health=tracker)
    manager = IncidentManager(chimera)
    manager.watch_quality(tracker)

    batches = max(1, args.batches)
    if args.catalog:
        items = _load_catalog_items(args.catalog)
        per_batch = max(1, (len(items) + batches - 1) // batches)
        batched = [items[i:i + per_batch] for i in range(0, len(items), per_batch)]
    else:
        batched = [generator.generate_items(args.items) for _ in range(batches)]
    if args.drift:
        if args.catalog:
            print("--drift needs a synthesized catalog; ignoring", file=sys.stderr)
        else:
            from repro.catalog.drift import DriftInjector

            # Shift the head vocabulary of the busiest type after the
            # baseline window so the drift detector has something to catch.
            injector = DriftInjector(generator, seed=args.seed)
            counts = {}
            for batch in batched:
                for item in batch:
                    counts[item.true_type] = counts.get(item.true_type, 0) + 1
            target = max(sorted(counts), key=lambda name: counts[name])
            injector.shift_head_vocabulary(
                target, ["zorblax", "quuxine", "fremdel"]
            )
            drift_from = max(args.baseline_batches, batches // 2)
            batched[drift_from:] = [
                generator.generate_items(args.items)
                for _ in range(len(batched) - drift_from)
            ]
            print(f"injected head-vocabulary drift into {target!r} "
                  f"from batch {drift_from}", file=sys.stderr)

    classified = []
    for index, batch in enumerate(batched):
        result = chimera.classify_batch(batch, batch_id=f"monitor-{index:04d}")
        classified.extend(result.classified_pairs)

    if args.crowd_sample:
        rules = [
            rule
            for ruleset in (chimera.rule_stage.rules, chimera.attr_stage.rules)
            for rule in ruleset.active_rules()
        ]
        task = VerificationTask(WorkerPool(seed=args.seed), seed=args.seed)
        evaluator = PerRuleCrowdEvaluator(task, sample_per_rule=args.crowd_sample)
        all_items = [item for batch in batched for item in batch]
        report = evaluator.evaluate(rules, all_items)
        breaches = tracker.ingest_precision(report, batch_id="crowd")
        print(f"crowd: {len(report.estimates)} rules estimated, "
              f"{report.crowd_answers} answers, "
              f"{len(breaches)} below floor", file=sys.stderr)

    print(render_health_report(
        tracker, provenance=chimera.provenance,
        title="rule health", top=args.top,
    ))
    if manager.incidents:
        print()
        print(f"incidents ({len(manager.incidents)}):")
        for incident in manager.incidents:
            print(f"  {incident.incident_id} [{incident.kind}] "
                  f"{incident.status}: {', '.join(incident.rule_ids)}")
            for note in incident.notes:
                print(f"    {note}")
    if args.json:
        write_health_json(tracker, args.json, provenance=chimera.provenance)
        print(f"wrote health report -> {args.json}", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability import Observability

    observability = Observability()
    generator = _build_generator(args.seed, 0)
    if args.run == "classify":
        chimera = Chimera.build(seed=args.seed, observability=observability)
        chimera.add_training(generator.generate_labeled(args.training))
        chimera.retrain(min_examples_per_type=5)
        batch = generator.generate_items(args.items)
        chimera.classify_batch(batch)
        title = f"chimera classify ({len(batch)} items)"
    elif args.run == "exec":
        from repro.execution import IncrementalExecutor
        from repro.rulegen import RuleGenerator

        training = generator.generate_labeled(args.training)
        rules = RuleGenerator(min_support=0.02, q=200).generate(training).rules
        items = generator.generate_items(args.items)
        IncrementalExecutor(rules, items, observability=observability).fired_map()
        title = f"delta engine ({len(rules)} rules x {len(items)} items)"
    elif args.run == "rulegen":
        from repro.rulegen import RuleGenerator

        training = generator.generate_labeled(args.training)
        RuleGenerator(
            min_support=0.02, q=200, observability=observability
        ).generate(training)
        title = f"rulegen ({len(training)} examples)"
    else:  # synonyms
        corpus = [item.title for item in generator.generate_items(args.items)]
        rule = args.rule or r"(motor | engine | \syn) oils? -> motor oil"
        try:
            tool = SynonymTool(rule, corpus)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        analyst = SimulatedAnalyst(generator.taxonomy, seed=args.seed)
        DiscoverySession(
            tool, analyst, patience=2, observability=observability
        ).run(corpus_titles=len(corpus))
        title = f"synonym session ({len(corpus)} titles)"
    print(observability.report(title=f"trace: {title}"))
    if args.out:
        if args.format == "chrome":
            count = observability.write_chrome_trace(args.out)
        else:
            count = observability.write_trace_jsonl(args.out)
        print(f"wrote {count} {args.format} events -> {args.out}", file=sys.stderr)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import (
        ScenarioError,
        ScenarioReport,
        ScenarioRunner,
        SpecError,
        YamlError,
        load_report,
        load_scenario,
    )
    from repro.scenario.library import library_paths, load_library_scenario

    if args.action == "list":
        rows = []
        for name, path in library_paths().items():
            try:
                spec = load_scenario(path)
            except (SpecError, YamlError) as error:
                print(f"error: {name}: {error}", file=sys.stderr)
                return 1
            if args.tag and args.tag not in spec.tags:
                continue
            rows.append(spec)
        if args.json:
            print(json.dumps([
                {
                    "name": spec.name,
                    "tags": list(spec.tags),
                    "seed": spec.seed,
                    "batches": spec.traffic.batches,
                    "executor": spec.executor.kind,
                    "exit_checks": len(spec.exit),
                    "fingerprint": spec.fingerprint(),
                    "description": spec.description,
                }
                for spec in rows
            ], indent=2))
        else:
            for spec in rows:
                tags = f" [{','.join(spec.tags)}]" if spec.tags else ""
                print(f"{spec.name}{tags}")
                print(f"    {spec.description}")
                print(f"    seed {spec.seed} · {spec.traffic.batches} batches · "
                      f"executor {spec.executor.kind} · "
                      f"{len(spec.exit)} exit check(s)")
        return 0

    if args.spec is None:
        print(f"error: scenario {args.action} needs a spec argument",
              file=sys.stderr)
        return 1

    if args.action == "diff":
        from repro.scenario import diff_report_files, render_diff

        if args.spec2 is None:
            print("error: scenario diff needs two health JSON paths",
                  file=sys.stderr)
            return 1
        try:
            diff = diff_report_files(args.spec, args.spec2)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff(diff), end="")
        identical = (
            diff["fired_digest"]["match"]
            and not diff["totals"]
            and not diff["exit_checks"]
            and diff["incidents"]["count"]["delta"] == 0
        )
        return 0 if identical else 2

    if args.action == "report":
        try:
            report = ScenarioReport.from_dict(load_report(args.spec))
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(report.render_text(), end="")
        return 0 if report.passed else 2

    # run
    try:
        if os.path.exists(args.spec):
            spec = load_scenario(args.spec)
        else:
            spec = load_library_scenario(args.spec)
    except (SpecError, YamlError, KeyError) as error:
        message = error.args[0] if isinstance(error, KeyError) else error
        print(f"error: {message}", file=sys.stderr)
        return 1
    try:
        report = ScenarioRunner(spec, seed=args.seed).run()
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        report.write_json(args.out)
        print(f"wrote health report -> {args.out}", file=sys.stderr)
    if not args.quiet:
        print(report.render_text(), end="")
    return 0 if report.passed else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the durable streaming daemon with the HTTP console attached."""
    import time

    from repro.service import ServiceConfig, ServiceHttpServer, StreamService

    config = ServiceConfig(seed=args.seed) if args.seed is not None else None
    service = StreamService(args.root, config=config, fsync=not args.no_fsync)
    try:
        service.start()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        service.close()
        return 1
    server = ServiceHttpServer(service, host=args.host, port=args.port)
    server.start()
    print(f"serving {args.root} on {server.url} "
          f"(resumed at ordinal {service.ordinal})",
          file=sys.stderr, flush=True)
    try:
        target = args.batches
        if target is not None:
            while service.ordinal < target:
                service.process_batch()
                if not args.quiet:
                    print(f"batch {service.ordinal}/{target} "
                          f"digest {service.digest_chain[:16]}…",
                          file=sys.stderr, flush=True)
                if args.interval > 0:
                    time.sleep(args.interval)
        if target is None or args.hold:
            print("holding — ctrl-c to stop", file=sys.stderr, flush=True)
            while True:
                time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close()
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.service import render_dashboard

    text = render_dashboard(args.root, window=args.window, width=args.width)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote dashboard -> {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _cmd_repo(args: argparse.Namespace) -> int:
    from repro.repository import RepositoryError, RuleRepository

    try:
        with RuleRepository.open(args.root) as repository:
            return _run_repo_action(repository, args)
    except RepositoryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_repo_action(repository, args: argparse.Namespace) -> int:
    if args.action == "log":
        entries = repository.changes(namespace=args.ns, limit=args.limit)
        if args.json:
            print(json.dumps([entry.to_dict() for entry in entries], indent=2))
        else:
            for entry in entries:
                print(entry.describe())
        return 0

    if args.action == "blame":
        entries = repository.blame(args.rule_id, namespace=args.ns)
        if not entries:
            print(f"error: no recorded changes for rule {args.rule_id!r}",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps([entry.to_dict() for entry in entries], indent=2))
        else:
            for entry in entries:
                line = entry.describe()
                if entry.provenance:
                    line += f" <- {entry.provenance}"
                print(line)
        return 0

    if args.action == "snapshot":
        taken = repository.snapshot(
            args.name, author=args.author, reason=args.reason,
            namespaces=[args.ns] if args.ns else None,
        )
        for namespace, snap in sorted(taken.items()):
            print(f"snapshot {args.name!r} [{namespace}]: "
                  f"{len(snap.entries)} rules")
        return 0

    if args.action == "diff":
        refs = [None if ref in ("HEAD", "-") else ref for ref in (args.a, args.b)]
        diffs = repository.diff(
            refs[0], refs[1],
            namespaces=[args.ns] if args.ns else None,
        )
        if args.json:
            print(json.dumps(
                {ns: diff.to_dict() for ns, diff in sorted(diffs.items())},
                indent=2,
            ))
            return 0
        clean = True
        for namespace, diff in sorted(diffs.items()):
            if diff.empty:
                continue
            clean = False
            print(f"[{namespace}]")
            for label in ("added", "removed", "replaced", "enabled", "disabled"):
                for rule_id in getattr(diff, label):
                    print(f"  {label:<9} {rule_id}")
        if clean:
            print("no differences")
        return 0

    if args.action == "rollback":
        result = repository.rollback(
            args.name, author=args.author, reason=args.reason,
            namespaces=[args.ns] if args.ns else None,
        )
        print(
            f"rolled back to {args.name!r}: "
            f"{result.flips} flips, {result.replaced} replaced, "
            f"{result.added} re-added, {result.removed} removed "
            f"across {len(result.namespaces)} namespace(s)"
        )
        return 0

    if args.action == "import":
        from repro.core.ruleset import RuleSet  # noqa: F811 — local alias

        ruleset = load_ruleset(args.ruleset)
        state_ids = set(repository.rule_ids(args.ns or "chimera"))
        namespace = args.ns or "chimera"
        count = 0
        with repository.attribution(args.author, f"import {args.ruleset}"):
            for rule in ruleset:
                if rule.rule_id in state_ids:
                    continue
                repository.add(namespace, rule, author=args.author,
                               reason=f"import {args.ruleset}")
                count += 1
        print(f"imported {count} rules into [{namespace}]")
        return 0

    print(f"error: unknown repo action {args.action!r}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rule management for Big Data systems (SIGMOD 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--extra-types", type=int, default=0,
                       help="synthesize N extra product types")

    catalog = sub.add_parser("catalog", help="generate synthetic product items")
    common(catalog)
    catalog.add_argument("--items", type=int, default=1000)
    catalog.add_argument("--out", default=None, help="jsonl path (default stdout)")
    catalog.set_defaults(func=_cmd_catalog)

    rulegen = sub.add_parser("rulegen", help="generate rules from labeled data (§5.2)")
    common(rulegen)
    rulegen.add_argument("--training", type=int, default=8000)
    rulegen.add_argument("--min-support", type=float, default=0.02)
    rulegen.add_argument("--quota", type=int, default=200)
    rulegen.add_argument("--alpha", type=float, default=0.7)
    rulegen.add_argument("--out", required=True, help="ruleset JSON path")
    rulegen.add_argument("--dedupe", action="store_true",
                         help="prune subsumed rules from the selection")
    rulegen.set_defaults(func=_cmd_rulegen)

    classify = sub.add_parser("classify", help="run the Chimera pipeline on a batch")
    common(classify)
    classify.add_argument("--rules", default=None, help="ruleset JSON to load")
    classify.add_argument("--training", type=int, default=3000)
    classify.add_argument("--min-examples", type=int, default=5)
    classify.add_argument("--items", type=int, default=1000)
    classify.set_defaults(func=_cmd_classify)

    synonyms = sub.add_parser("synonyms", help="run the §5.1 synonym tool")
    synonyms.add_argument("--seed", type=int, default=0)
    synonyms.add_argument("--rule", required=True,
                          help=r'e.g. "(motor | engine | \syn) oils? -> motor oil"')
    synonyms.add_argument("--slot", default=None,
                          help="modifier family to judge against (default: any)")
    synonyms.add_argument("--corpus", type=int, default=8000)
    synonyms.set_defaults(func=_cmd_synonyms)

    trace = sub.add_parser(
        "trace", help="re-run an instrumented path and dump its trace"
    )
    trace.add_argument("run", choices=("classify", "exec", "rulegen", "synonyms"),
                       help="which instrumented run to trace")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--items", type=int, default=200)
    trace.add_argument("--training", type=int, default=1000)
    trace.add_argument("--rule", default=None,
                       help="synonym rule (trace synonyms only)")
    trace.add_argument("--out", default=None, help="trace file path")
    trace.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                       help="trace file format (default chrome)")
    trace.set_defaults(func=_cmd_trace)

    monitor = sub.add_parser(
        "monitor", help="rule-quality telemetry: per-rule health + alerts"
    )
    common(monitor)
    monitor.add_argument("--rules", default=None, help="ruleset JSON to load")
    monitor.add_argument("--catalog", default=None,
                         help="item file (JSON array or JSONL); default synthesize")
    monitor.add_argument("--items", type=int, default=300,
                         help="items per synthesized batch")
    monitor.add_argument("--batches", type=int, default=4)
    monitor.add_argument("--training", type=int, default=0,
                         help="train the learning stage on N labeled titles")
    monitor.add_argument("--min-examples", type=int, default=5)
    monitor.add_argument("--floor", type=float, default=0.92,
                         help="precision floor for alerts")
    monitor.add_argument("--window", type=int, default=8)
    monitor.add_argument("--baseline-batches", type=int, default=2)
    monitor.add_argument("--drift", action="store_true",
                         help="inject vocabulary drift after the baseline window")
    monitor.add_argument("--crowd-sample", type=int, default=0,
                         help="crowd-verify N items per rule (precision join)")
    monitor.add_argument("--top", type=int, default=20,
                         help="rules shown in the table (0 = all)")
    monitor.add_argument("--json", default=None, help="health JSON output path")
    monitor.set_defaults(func=_cmd_monitor)

    scenario = sub.add_parser(
        "scenario", help="declarative end-to-end scenarios (list/run/report)"
    )
    scenario.add_argument("action", choices=("list", "run", "report", "diff"),
                          help="list library scenarios, run one, re-render a "
                               "saved health JSON, or diff two health JSONs")
    scenario.add_argument("spec", nargs="?", default=None,
                          help="library scenario name, spec YAML path (run), "
                               "or health JSON path (report/diff)")
    scenario.add_argument("spec2", nargs="?", default=None,
                          help="second health JSON path (diff)")
    scenario.add_argument("--seed", type=int, default=None,
                          help="override the spec's seed")
    scenario.add_argument("--tag", default=None,
                          help="filter `list` by tag (e.g. smoke)")
    scenario.add_argument("--json", action="store_true",
                          help="machine-readable `list` output")
    scenario.add_argument("--out", default=None,
                          help="write the health report JSON here (run)")
    scenario.add_argument("--quiet", action="store_true",
                          help="suppress the rendered text report (run)")
    scenario.set_defaults(func=_cmd_scenario)

    serve = sub.add_parser(
        "serve",
        help="durable streaming daemon + HTTP operations console",
    )
    serve.add_argument("--root", required=True,
                       help="service state directory (created if missing)")
    serve.add_argument("--batches", type=int, default=None,
                       help="run until this many total batches processed "
                            "(default: serve current state only)")
    serve.add_argument("--seed", type=int, default=None,
                       help="service config seed (fresh roots only; a resume "
                            "must match the checkpointed config)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="console port (0 = pick a free port)")
    serve.add_argument("--interval", type=float, default=0.0,
                       help="sleep this many seconds between batches")
    serve.add_argument("--hold", action="store_true",
                       help="keep serving after the batch target is reached")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on appends/checkpoints (tests only)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-batch progress lines")
    serve.set_defaults(func=_cmd_serve)

    dashboard = sub.add_parser(
        "dashboard",
        help="render the operations dashboard from a service root",
    )
    dashboard.add_argument("--root", required=True,
                           help="service state directory")
    dashboard.add_argument("--window", type=int, default=48,
                           help="batches of history to plot")
    dashboard.add_argument("--width", type=int, default=48,
                           help="sparkline width in characters")
    dashboard.add_argument("--out", default=None,
                           help="write the dashboard text here instead of stdout")
    dashboard.set_defaults(func=_cmd_dashboard)

    repo = sub.add_parser(
        "repo",
        help="versioned rule repository (log/diff/snapshot/rollback/blame)",
    )
    repo_sub = repo.add_subparsers(dest="action", required=True)

    def repo_common(p):
        p.add_argument("--root", required=True,
                       help="repository directory (holds changelog.jsonl)")
        p.add_argument("--ns", default=None,
                       help="restrict to one namespace (default: all)")

    repo_log = repo_sub.add_parser("log", help="show the audit log")
    repo_common(repo_log)
    repo_log.add_argument("--limit", type=_count, default=None,
                          help="show only the last N entries (0: none)")
    repo_log.add_argument("--json", action="store_true")
    repo_log.set_defaults(func=_cmd_repo)

    repo_blame = repo_sub.add_parser(
        "blame", help="every change touching one rule, newest first"
    )
    repo_common(repo_blame)
    repo_blame.add_argument("rule_id")
    repo_blame.add_argument("--json", action="store_true")
    repo_blame.set_defaults(func=_cmd_repo)

    repo_snap = repo_sub.add_parser("snapshot", help="take a named snapshot")
    repo_common(repo_snap)
    repo_snap.add_argument("name")
    repo_snap.add_argument("--author", default="cli")
    repo_snap.add_argument("--reason", default="")
    repo_snap.set_defaults(func=_cmd_repo)

    repo_diff = repo_sub.add_parser(
        "diff", help="set-compare two snapshots (use HEAD for live state)"
    )
    repo_common(repo_diff)
    repo_diff.add_argument("a", help="snapshot name or HEAD")
    repo_diff.add_argument("b", help="snapshot name or HEAD")
    repo_diff.add_argument("--json", action="store_true")
    repo_diff.set_defaults(func=_cmd_repo)

    repo_rollback = repo_sub.add_parser(
        "rollback", help="restore namespaces to a named snapshot (delta ops only)"
    )
    repo_common(repo_rollback)
    repo_rollback.add_argument("name")
    repo_rollback.add_argument("--author", default="cli")
    repo_rollback.add_argument("--reason", default="")
    repo_rollback.set_defaults(func=_cmd_repo)

    repo_import = repo_sub.add_parser(
        "import", help="import a ruleset JSON into a namespace"
    )
    repo_common(repo_import)
    repo_import.add_argument("ruleset", help="ruleset JSON (save_ruleset format)")
    repo_import.add_argument("--author", default="cli")
    repo_import.set_defaults(func=_cmd_repo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
