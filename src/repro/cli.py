"""Command-line interface to the elastic-circuit framework.

Usage (after ``pip install -e .``)::

    python -m repro table1   [--cycles 10000] [--seed 2007]
    python -m repro simulate --config active [--cycles 5000] [--seed 0]
    python -m repro verify   [--design diamond|early|vl|all]
                             [--checkpoint dir] [--cache dir] [--no-cache]
                             [--workers host:port,host:port]
    python -m repro worker   [--listen host:port] [--shard-timeout 60]
                             [--once]
    python -m repro export   --format verilog|blif|smv|dot
                             [--config active] [-o out.v]
    python -m repro bound    [--config lazy]
    python -m repro dmg
    python -m repro inject   [--netlist dual_ehb|...|processor]
                             [--fault stuck0,stuck1] [--cycles 400]
                             [--seed 2007] [--report out.json] [--shrink]
                             [--metrics] [--profile]
                             [--progress]
                             [--checkpoint dir] [--resume dir]
                             [--shard-timeout 60] [--max-retries 2]
                             [--cache dir]
                             [--workers host:port,host:port]
    python -m repro profile  [--design early_join|active|pipeline|...]
                             [--cycles 2000] [--seed 2007]
                             [--compare-model] [--tolerance 0.15]
                             [--json out.json] [--cache dir] [--no-cache]
                             [--list]
    python -m repro build    [target ...] [--cache dir] [--stats] [--clear]
    python -m repro lint     [target ...] [--list] [--json out.json]
                             [--file design.blif] [--explain RULEID]
                             [--sarif out.sarif] [--baseline file]
                             [--write-baseline file] [--no-cache]
                             [--cache dir]
    python -m repro trace    [--config active|...|pipeline] [--cycles 64]
                             [--vcd out.vcd] [--events out.jsonl]
    python -m repro stats    [--config active] [--cycles 5000] [--seed 0]
                             [--prometheus]
    python -m repro fuzz     [--seed 7] [--specs 100] [--max-blocks 48]
                             [--budget 60] [--corpus dir] [--mutate name]
                             [--replay dir] [--json out.json]

mirroring the paper's framework, which generated simulation, synthesis
and verification models of the same controllers from one description.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.casestudy.fig9 import MEAN_LATENCY, Config, build_fig9_spec
from repro.casestudy.table1 import format_table, run_table1

_CONFIGS = {c.name.lower(): c for c in Config}


def _config(name: str) -> Config:
    try:
        return _CONFIGS[name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown configuration {name!r}; pick one of {sorted(_CONFIGS)}"
        )


def cmd_table1(args: argparse.Namespace) -> int:
    rows = run_table1(cycles=args.cycles, seed=args.seed)
    print(format_table(rows))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.synthesis.elaborate import to_behavioral

    spec = build_fig9_spec(_config(args.config), seed=args.seed)
    net = to_behavioral(spec, seed=args.seed)
    net.run(args.cycles)
    print(net.report())
    print(f"\nsystem throughput: {net.throughput('Din->S'):.3f} transfers/cycle")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.fabric import serve

    host, sep, port = args.listen.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"bad --listen address {args.listen!r}; expected host:port"
        )

    def announce(bound_host: str, bound_port: int) -> None:
        print(f"fabric worker listening on {bound_host}:{bound_port}",
              flush=True)

    try:
        serve(host or "127.0.0.1", int(port),
              shard_timeout=args.shard_timeout, once=args.once,
              on_ready=announce)
    except KeyboardInterrupt:
        print("worker stopped", file=sys.stderr)
    return 0


def _fabric_verify(args: argparse.Namespace) -> int:
    """``repro verify --workers``: distribute designs over the fabric."""
    if args.checkpoint:
        raise SystemExit(
            "--checkpoint needs a local build; --workers distributes the "
            "Kripke builds, which take no checkpoint"
        )
    from repro.fabric import (
        FabricCoordinator,
        FabricError,
        ShardFailure,
        parse_workers,
    )
    from repro.verif.testbenches import DESIGNS

    designs = sorted(DESIGNS) if args.design == "all" else [args.design]
    params = {
        "designs": designs,
        "max_states": 2_000_000,
        "cache": None if args.no_cache else args.cache,
    }
    try:
        workers = parse_workers(args.workers)
        coordinator = FabricCoordinator(
            "verify", params, list(enumerate(designs)), workers,
        )
        results = coordinator.run()
    except (ValueError, FabricError, ShardFailure) as exc:
        raise SystemExit(f"fabric verify failed: {exc}")
    ok = True
    for index in sorted(results):
        r = results[index]
        verdict = "OK" if r["ok"] else "FAIL " + ", ".join(r["failures"])
        ok = ok and r["ok"]
        print(f"{r['design']:10s} {r['properties']:3d} properties over "
              f"{r['states']} states: {verdict}")
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.resilience import CheckpointMismatch
    from repro.verif.properties import verify_netlist
    from repro.verif.testbenches import DESIGNS, diamond_with_feedback

    if args.workers:
        return _fabric_verify(args)
    if args.design == "all":
        raise SystemExit("--design all needs --workers (the fabric "
                         "distributes one Kripke build per design)")
    nl, chans, fairness = diamond_with_feedback(**DESIGNS[args.design])
    cache = None
    if not args.no_cache:
        from repro.codegen import build_cache

        cache = build_cache(args.cache)
    try:
        result = verify_netlist(
            nl, chans, fairness=fairness, max_states=2_000_000,
            checkpoint=args.checkpoint, cache=cache,
        )
    except CheckpointMismatch as exc:
        raise SystemExit(str(exc))
    print(result)
    return 0 if result.ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    from repro.rtl.export import channel_specs_smv, to_blif, to_smv, to_verilog
    from repro.synthesis.dot import spec_to_dot
    from repro.synthesis.elaborate import to_gates

    spec = build_fig9_spec(_config(args.config))
    if args.format == "dot":
        text = spec_to_dot(spec)
    else:
        elab = to_gates(spec, include_env=True, as_latches=True)
        if args.format == "verilog":
            text = to_verilog(elab.netlist, module="fig9_control")
        elif args.format == "blif":
            text = to_blif(elab.netlist, model="fig9_control")
        else:
            specs = channel_specs_smv(elab.channels.values())
            fairness = [f"{sig} = {'TRUE' if value else 'FALSE'}"
                        for sig, value in elab.fairness.items()]
            text = to_smv(elab.netlist, specs=specs, fairness=fairness)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    from repro.synthesis.abstraction import check_liveness, throughput_bound

    spec = build_fig9_spec(_config(args.config))
    live = check_liveness(spec)
    bound = throughput_bound(spec, mean_latency=MEAN_LATENCY)
    print(f"configuration: {args.config}")
    print(f"structurally live: {live}")
    print(f"lazy throughput bound (min cycle ratio): {bound} = {float(bound):.3f}")
    return 0


def _trace_network(config: str, seed: int):
    """Build the network to trace: a Fig. 9 config or the Fig. 5 chain."""
    if config == "pipeline":
        from repro.obs.analyze import pipeline_network

        return pipeline_network()
    from repro.synthesis.elaborate import to_behavioral

    spec = build_fig9_spec(_config(config), seed=seed)
    return to_behavioral(spec, seed=seed)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        JsonlSink,
        MetricsRegistry,
        TraceRecorder,
        VcdSink,
        collect_network_metrics,
    )

    net = _trace_network(args.config, args.seed)
    registry = MetricsRegistry()
    sinks: list = []
    if args.vcd:
        sinks.append(VcdSink(args.vcd))
    if args.events:
        sinks.append(JsonlSink(args.events))
    recorder = TraceRecorder(
        capacity=args.buffer, sinks=sinks, metrics=registry
    )
    recorder.attach_network(net, include_idle=args.include_idle)
    net.run(args.cycles)
    recorder.close()
    collect_network_metrics(net, registry)
    print(f"traced {net.cycle} cycles of {net.name} "
          f"({len(net.channels)} channels, {recorder.emitted} events)")
    for kind, count in recorder.counts().items():
        print(f"  {kind:12s} {count}")
    metric_transfers = sum(
        c.value for c in registry.series("channel_transfers_total")
    )
    traced = (recorder.counts().get("transfer+", 0)
              + recorder.counts().get("transfer-", 0))
    print(f"reconciliation: {traced} traced transfers vs "
          f"{metric_transfers} counted by metrics "
          f"({'OK' if traced == metric_transfers else 'MISMATCH'})")
    print()
    print(registry.render())
    if args.vcd:
        print(f"wrote waveforms to {args.vcd}")
    if args.events:
        print(f"wrote events to {args.events}")
    return 0 if traced == metric_transfers else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.elastic.behavioral import ElasticBuffer
    from repro.elastic.instrumentation import OccupancyProbe
    from repro.obs import MetricsRegistry, TraceRecorder, collect_network_metrics

    net = _trace_network(args.config, args.seed)
    registry = MetricsRegistry()
    buffers = [c for c in net.controllers if isinstance(c, ElasticBuffer)]
    if buffers:
        net.add(OccupancyProbe("occupancy", buffers, registry=registry))
    # Events go to the registry's EE counters only; keep the ring tiny.
    recorder = TraceRecorder(capacity=1, metrics=registry)
    recorder.attach_network(net)
    net.run(args.cycles)
    collect_network_metrics(net, registry)
    if args.prometheus:
        print(registry.render_prometheus(), end="")
        return 0
    print(f"{net.name}: {net.cycle} cycles, {len(net.channels)} channels, "
          f"{len(buffers)} elastic buffers")
    print(registry.render())
    return 0


def _build_cache(args: argparse.Namespace):
    """``--cache DIR`` / ``--no-cache`` as a build cache for compiled runs.

    ``--no-cache`` gives a cache with no disk tier: generated modules
    are emitted and compiled in-process and never written.
    """
    from repro.codegen import BuildCache, build_cache

    if args.no_cache:
        return BuildCache.in_memory()
    return build_cache(args.cache)


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.analyze import profile_designs, run_profile

    if args.list:
        for name in profile_designs():
            print(name)
        return 0
    try:
        report = run_profile(
            args.design, cycles=args.cycles, seed=args.seed,
            compare_model=args.compare_model, tolerance=args.tolerance,
            cache=_build_cache(args),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote report to {args.json}")
    if args.compare_model and not report.model["within_tolerance"]:
        return 1
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    from time import perf_counter
    from repro.faults import (
        BatchCampaignHarness,
        CampaignConfig,
        ProcessorCampaignConfig,
        enumerate_injections,
        failing_predicate,
        render_failure,
        resolve_target,
        run_campaign,
        run_processor_campaign,
        shrink_schedule,
    )
    from repro.faults.targets import TARGETS

    from repro.faults.models import RTL_FAULT_KINDS

    if args.netlist == "processor" and args.fault is not None:
        raise SystemExit(
            "--fault needs an RTL netlist; the behavioural processor "
            "campaign injects its own channel and buffer faults"
        )
    if args.fault is None:
        kinds = CampaignConfig().kinds
    else:
        kinds = tuple(k.strip() for k in args.fault.split(",") if k.strip())
    unknown_kinds = [k for k in kinds if k not in RTL_FAULT_KINDS]
    if not kinds:
        raise SystemExit(
            f"no fault kinds given; pick from {', '.join(RTL_FAULT_KINDS)}"
        )
    if unknown_kinds:
        raise SystemExit(
            f"unknown fault kind(s) {', '.join(unknown_kinds)}; "
            f"pick from {', '.join(RTL_FAULT_KINDS)}"
        )
    if args.lanes < 1 or args.jobs < 1:
        raise SystemExit("--lanes and --jobs must be positive")
    if ((args.shard_timeout is not None or args.max_retries is not None)
            and args.jobs == 1 and not args.workers):
        raise SystemExit(
            "--shard-timeout/--max-retries: only a campaign with --jobs > 1 "
            "or --workers times out or retries chunks; this one runs in "
            "this process"
        )
    checkpoint = args.checkpoint
    workers = None
    if args.workers:
        if args.netlist == "processor":
            raise SystemExit(
                "--workers needs an RTL netlist; the behavioural "
                "processor campaign is not distributable"
            )
        if args.jobs > 1:
            raise SystemExit(
                "--workers replaces --jobs: chunks go to the named "
                "remote workers instead of local ones"
            )
        from repro.fabric import parse_workers

        try:
            parse_workers(args.workers)
        except ValueError as exc:
            raise SystemExit(f"--workers: {exc}")
        workers = [w.strip() for w in args.workers.split(",") if w.strip()]
    if args.resume:
        if checkpoint and checkpoint != args.resume:
            raise SystemExit(
                "--checkpoint and --resume name different directories; "
                "--resume alone is enough to continue a run"
            )
        from pathlib import Path

        if not (Path(args.resume) / "manifest.json").is_file():
            raise SystemExit(
                f"--resume {args.resume}: no checkpoint manifest found "
                "(start the campaign with --checkpoint first)"
            )
        checkpoint = args.resume
    if args.netlist == "processor" and checkpoint:
        raise SystemExit(
            "--checkpoint/--resume need an RTL netlist; the behavioural "
            "processor campaign is not checkpointed"
        )
    if args.netlist == "processor" and args.cache:
        raise SystemExit(
            "--cache needs an RTL netlist; the behavioural processor "
            "campaign has no gate netlist to compile"
        )
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    progress = None
    if args.progress:
        from repro.obs import ProgressReporter

        progress = ProgressReporter("campaign", every=1)
    t0 = perf_counter()
    if args.netlist == "processor":
        if args.lanes > 1 or args.jobs > 1:
            raise SystemExit(
                "--lanes/--jobs need an RTL netlist; the behavioural "
                "processor campaign only runs sequentially"
            )
        if args.profile:
            raise SystemExit(
                "--profile needs an RTL netlist; profile the behavioural "
                "pipeline directly with 'repro profile --design processor'"
            )
        if args.shrink:
            raise SystemExit(
                "--shrink needs an RTL netlist; the behavioural processor "
                "campaign has no injection schedule to shrink"
            )
        try:
            report = run_processor_campaign(
                ProcessorCampaignConfig(cycles=args.cycles, seed=args.seed),
                progress=progress,
                metrics=registry,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        if args.netlist not in TARGETS:
            raise SystemExit(
                f"unknown netlist {args.netlist!r}; pick one of "
                f"{sorted(TARGETS) + ['processor']}"
            )
        config = CampaignConfig(
            cycles=args.cycles, seed=args.seed, kinds=kinds
        )
        from repro.fabric import FabricConfig, FabricError, ShardFailure
        from repro.resilience import CheckpointMismatch

        try:
            report = run_campaign(
                args.netlist, config, lanes=args.lanes, jobs=args.jobs,
                progress=progress, metrics=registry,
                checkpoint=checkpoint,
                profile=args.profile,
                cache=args.cache,
                workers=workers,
                fabric=FabricConfig(
                    unit_timeout=args.shard_timeout,
                    max_retries=(FabricConfig.max_retries
                                 if args.max_retries is None
                                 else args.max_retries),
                ),
            )
        except KeyboardInterrupt:
            hint = (
                f"; resume with --resume {checkpoint}" if checkpoint else ""
            )
            print(f"\ninterrupted; worker processes terminated{hint}",
                  file=sys.stderr)
            return 130
        except CheckpointMismatch as exc:
            raise SystemExit(str(exc))
        except FabricError as exc:
            raise SystemExit(f"fabric campaign failed: {exc}")
        except ShardFailure as exc:
            raise SystemExit(f"campaign failed: {exc}")
        if args.shrink:
            detected = report.detected()
            if detected:
                target = resolve_target(args.netlist)
                harness = BatchCampaignHarness(
                    target, config, 1, cache=args.cache
                )
                by_label = {
                    i.label(): i for i in enumerate_injections(target, config)
                }
                schedule = [by_label[o.fault] for o in detected]
                minimal = shrink_schedule(schedule, failing_predicate(harness))
                print(render_failure(harness, minimal))
                print()
    wall = perf_counter() - t0
    if args.metrics:
        injections_run = len(report.outcomes)
        report.metrics = {
            "cycles_per_second": round(
                injections_run * report.cycles / wall, 1
            ) if wall > 0 else 0.0,
            "injections": injections_run,
            "jobs": args.jobs,
            "lanes": args.lanes,
            "series": registry.snapshot(),
            "wall_time_s": round(wall, 3),
        }
    print(report.table())
    if args.metrics:
        print(f"wall time: {wall:.3f}s "
              f"({report.metrics['cycles_per_second']:.0f} "
              f"injection-cycles/s, lanes={args.lanes}, jobs={args.jobs})")
        print(registry.render())
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote report to {args.report}")
    return 0 if report.coverage == 1.0 else 1


def cmd_build(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.codegen import build_cache, process_stats

    cache = build_cache(args.cache)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} artifact(s) from {cache.root}")
    targets = args.targets
    if not targets and not args.clear and not args.stats:
        from repro.faults.targets import TARGETS

        targets = sorted(TARGETS)
    if targets:
        from repro.faults.targets import TARGETS

        unknown = [name for name in targets if name not in TARGETS]
        if unknown:
            raise SystemExit(
                f"unknown build target(s) {', '.join(sorted(unknown))}; "
                f"pick from {', '.join(sorted(TARGETS))}"
            )
        for name in targets:
            tgt = TARGETS[name]()
            before = process_stats()["hits"]
            t0 = perf_counter()
            module = cache.load_module(
                tgt.netlist,
                hooks=frozenset(tgt.fault_sites),
                observe=frozenset(tgt.observe),
            )
            ms = (perf_counter() - t0) * 1e3
            verb = "cached" if process_stats()["hits"] > before else "built"
            print(f"{name:18s} {verb:6s} {module.KEY[:16]} {ms:8.1f} ms")
    if args.stats:
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"entries:    {stats['entries']}")
        print(f"bytes:      {stats['bytes']}")
        print(f"process:    {stats['hits']} hit(s), "
              f"{stats['misses']} miss(es) since start")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.baseline import load_baseline, new_findings, write_baseline
    from repro.lint.findings import RULES, Severity, render_witness
    from repro.lint.frontends import FrontendParseError
    from repro.lint.sarif import sarif_json
    from repro.lint.targets import (
        LINT_TARGETS,
        all_targets,
        lint_file,
        run_lint,
    )

    if args.list:
        for name in sorted(LINT_TARGETS):
            print(name)
        return 0
    if args.explain:
        rule = RULES.get(args.explain)
        if rule is None:
            raise SystemExit(
                f"unknown rule {args.explain!r}; pick from "
                f"{', '.join(sorted(RULES))}"
            )
        print(f"{args.explain} [{rule.severity.name}] {rule.title}")
        print(f"  {rule.clause}")
        if not args.targets and not args.file:
            return 0
    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--baseline: {exc}")
    targets = args.targets or ([] if args.file else all_targets())
    cache = None
    if not args.no_cache:
        from repro.codegen import build_cache

        cache = build_cache(args.cache)
    try:
        report = run_lint(targets, cache=cache)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    for path in args.file or []:
        try:
            report.extend(lint_file(path, cache=cache))
        except (OSError, FrontendParseError) as exc:
            raise SystemExit(str(exc))
    if args.explain:
        matched = [f for f in report.findings if f.rule == args.explain]
        print(f"\n{len(matched)} finding(s) for {args.explain}")
        for f in matched:
            print(f"  {f}")
            if f.witness:
                for line in render_witness(f.witness):
                    print(f"    {line}")
        return 0
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote JSON findings to {args.json}")
    if args.sarif:
        with open(args.sarif, "w") as handle:
            handle.write(sarif_json(report))
        print(f"wrote SARIF 2.1.0 log to {args.sarif}")
    if args.write_baseline:
        count = write_baseline(report, args.write_baseline)
        print(f"recorded {count} fingerprint(s) to {args.write_baseline}")
    print(report.render())
    findings = report.findings
    if baseline is not None:
        findings = new_findings(report, baseline)
        suppressed = len(report.findings) - len(findings)
        if suppressed:
            print(f"{suppressed} finding(s) suppressed by {args.baseline}")
    new_errors = [f for f in findings if f.severity == Severity.ERROR]
    if new_errors:
        print(f"{len(new_errors)} new error(s)")
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        MUTATIONS,
        FuzzConfig,
        OracleConfig,
        load_corpus,
        replay_entry,
        run_fuzz,
    )

    if args.mutate and args.mutate not in MUTATIONS:
        raise SystemExit(
            f"unknown mutation {args.mutate!r}; "
            f"pick from {', '.join(sorted(MUTATIONS))}"
        )
    cache = _build_cache(args)

    if args.replay:
        entries = load_corpus(args.replay)
        if not entries:
            raise SystemExit(f"no corpus entries under {args.replay}")
        config = OracleConfig(
            cycles=args.cycles,
            check_gates=not args.no_gates,
            check_verify=not args.no_verify, cache=cache,
        )
        missing = 0
        for entry in entries:
            finding = replay_entry(entry, config)
            if finding is None:
                missing += 1
                print(f"{entry.name}: NO REPRO (expected "
                      f"[{entry.finding['stage']}])")
            else:
                print(f"{entry.name}: reproduced [{finding.stage}] "
                      f"{finding.detail}")
        print(f"replayed {len(entries)} entr(ies), {missing} without repro")
        return 1 if missing else 0

    config = FuzzConfig(
        seed=args.seed, specs=args.specs, max_blocks=args.max_blocks,
        cycles=args.cycles, budget=args.budget,
        corpus=args.corpus, mutation=args.mutate,
        shrink=not args.no_shrink, check_gates=not args.no_gates,
        check_verify=not args.no_verify, cache=cache,
    )
    progress = None
    if args.progress:
        progress = lambda done, found: print(  # noqa: E731
            f"  {done}/{args.specs} spec(s), {found} finding(s)",
            file=sys.stderr)
    report = run_fuzz(config, progress=progress)
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote report to {args.json}")
    if args.corpus and report.findings:
        print(f"wrote {len(report.findings)} corpus entr(ies) to "
              f"{args.corpus}")
    return 1 if report.findings else 0


def cmd_dmg(args: argparse.Namespace) -> int:
    from repro.core.dmg import fig1_dmg
    from repro.core.export import to_dot

    g = fig1_dmg()
    m = g.initial_marking
    for node in ("n2", "n1", "n7"):
        m = g.fire_any(node, m)
    print(to_dot(g, m), end="")
    return 0


def _version() -> str:
    """The installed distribution version, else the in-tree fallback."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elastic circuits with early evaluation and token counterflow",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p.add_argument("--cycles", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=2007)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("simulate", help="simulate one Fig. 9 configuration")
    p.add_argument("--config", default="active")
    p.add_argument("--cycles", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="model check a controller netlist")
    p.add_argument("--design", choices=("diamond", "early", "vl", "all"),
                   default="early",
                   help="one design, or 'all' (needs --workers) to "
                        "distribute every design over the fabric")
    p.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                   help="distribute Kripke builds over running "
                        "'repro worker' daemons instead of building "
                        "locally")
    p.add_argument("--checkpoint", default=None,
                   help="directory for periodic state-space snapshots; "
                        "rerunning with the same directory resumes an "
                        "interrupted build (local builds only, not with "
                        "--workers)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="build-cache directory serving completed "
                        "state-space explorations for unchanged netlists "
                        "(default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro/codegen)")
    p.add_argument("--no-cache", action="store_true",
                   help="re-explore the state space instead of reading "
                        "the cache")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="emit Verilog / BLIF / SMV / DOT")
    p.add_argument("--format", choices=("verilog", "blif", "smv", "dot"),
                   required=True)
    p.add_argument("--config", default="active")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bound", help="structural liveness + throughput bound")
    p.add_argument("--config", default="lazy")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("dmg", help="print the Fig. 1 DMG (DOT, marked)")
    p.set_defaults(func=cmd_dmg)

    p = sub.add_parser(
        "lint",
        help="statically analyze the built-in designs (netlist + elastic "
             "protocol rules); nonzero exit on new errors",
    )
    p.add_argument("targets", nargs="*",
                   help="lint targets (default: every built-in design; "
                        "see --list)")
    p.add_argument("--list", action="store_true",
                   help="print the available targets and exit")
    p.add_argument("--file", action="append", default=None, metavar="PATH",
                   help="re-parse this exported .blif/.v file and lint the "
                        "reconstructed netlist; findings carry file/line/"
                        "column anchors (repeatable, mixes with targets)")
    p.add_argument("--explain", default=None, metavar="RULEID",
                   help="print the catalog entry for one rule; with "
                        "targets or --file also renders that rule's "
                        "findings and their witnesses (exit 0)")
    p.add_argument("--json", default=None,
                   help="write the deterministic JSON findings here")
    p.add_argument("--sarif", default=None,
                   help="write the SARIF 2.1.0 log here")
    p.add_argument("--baseline", default=None,
                   help="suppress the fingerprints recorded in this "
                        "baseline file before deciding the exit code")
    p.add_argument("--write-baseline", default=None,
                   help="record every finding's fingerprint to this file "
                        "(accepting the current findings as intentional)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="build-cache directory serving netlist findings "
                        "for unchanged designs (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro/codegen)")
    p.add_argument("--no-cache", action="store_true",
                   help="re-evaluate every rule instead of reading the "
                        "findings cache")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "build",
        help="pre-compile campaign netlists into the codegen build cache",
    )
    p.add_argument("targets", nargs="*",
                   help="campaign targets to compile (default: all of "
                        "them; with --stats/--clear alone, none)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="build-cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro/codegen)")
    p.add_argument("--stats", action="store_true",
                   help="print cache entries, bytes, and the process "
                        "hit/miss tallies")
    p.add_argument("--clear", action="store_true",
                   help="delete every cached artifact first")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "inject", help="run a fault-injection campaign with online monitors"
    )
    p.add_argument("--netlist", default="dual_ehb",
                   help="campaign target (a controller name, or 'processor' "
                        "for the behavioural Sect. 7 pipeline)")
    p.add_argument("--fault", default=None,
                   help="comma-separated RTL fault kinds "
                        "(stuck0, stuck1, flip; default stuck0,stuck1); "
                        "RTL netlists only")
    p.add_argument("--cycles", type=int, default=400)
    p.add_argument("--seed", type=int, default=2007)
    p.add_argument("--lanes", type=int, default=1,
                   help="injections per chunk, one per bit lane of the "
                        "compiled lane-parallel simulator; a chunk is "
                        "the unit of checkpoints, progress and fabric "
                        "leases (each leased chunk runs as one pass). "
                        "In process, whole chunks share a pass up to "
                        "512 lanes. The report is the same for every "
                        "value")
    p.add_argument("--jobs", type=int, default=1,
                   help="local fabric worker processes leasing the lane "
                        "chunks (a dead one is not replaced; its chunks "
                        "move to the survivors); the report is "
                        "byte-identical for any lanes/jobs split")
    p.add_argument("--report", default=None,
                   help="write the JSON campaign report here")
    p.add_argument("--shrink", action="store_true",
                   help="also ddmin-shrink the detected faults to a minimal "
                        "failing schedule and print its trace")
    p.add_argument("--metrics", action="store_true",
                   help="attach run metadata (wall time, verdict tallies, "
                        "lane utilization, build-cache hits and misses) to "
                        "the report and print it; without this flag the "
                        "report stays byte-identical to the goldens")
    p.add_argument("--profile", action="store_true",
                   help="attach the fault-free performance baseline of "
                        "the target (the 'repro profile' report) as a "
                        "'profile' key; without this flag the report "
                        "stays byte-identical to the goldens")
    p.add_argument("--progress", action="store_true",
                   help="print progress lines while the sweep runs")
    p.add_argument("--checkpoint", default=None,
                   help="directory that receives one atomic file per "
                        "classified chunk, written by this process only "
                        "(also with --jobs/--workers); a rerun with the "
                        "same directory skips completed chunks and "
                        "reproduces the uninterrupted report byte for "
                        "byte")
    p.add_argument("--resume", default=None,
                   help="continue from an existing checkpoint directory "
                        "(errors if no manifest is present; implies "
                        "--checkpoint)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   help="progress deadline in seconds, needs --jobs > 1 "
                        "or --workers: a worker holding chunks that "
                        "returns no result for this long is dropped and "
                        "its chunks requeued (a --jobs campaign with one "
                        "pending chunk runs in this process)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="how many times a crashed/hung/erroring chunk is "
                        "requeued before the campaign fails (default 2), "
                        "needs --jobs > 1 or --workers (a --jobs campaign "
                        "with one pending chunk runs in this process)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="build-cache directory for the generated "
                        "lane-parallel modules of every RTL campaign, "
                        "--lanes 1 included: the campaign's and the "
                        "untestability prover's (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/repro/codegen)")
    p.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                   help="shard chunks over running 'repro worker' "
                        "socket daemons (replaces --jobs); the merged "
                        "report is byte-identical to a local run")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "worker",
        help="serve campaign/verify work units to a fabric coordinator "
             "over a socket",
    )
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind address (port 0 picks a free port, printed "
                        "on startup)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   help="per-unit compute deadline; a unit that blows it "
                        "kills the worker process loudly (exit 17) so "
                        "the coordinator requeues instead of waiting on "
                        "a zombie")
    p.add_argument("--once", action="store_true",
                   help="exit after serving one coordinator connection "
                        "(tests, one-shot campaigns)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "trace",
        help="record waveforms (VCD) and structured events from a simulation",
    )
    p.add_argument("--config", default="pipeline",
                   help="a Fig. 9 configuration name, or 'pipeline' for the "
                        "deterministic Fig. 5 dual-EB chain")
    p.add_argument("--cycles", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vcd", default=None,
                   help="write GTKWave-viewable waveforms here")
    p.add_argument("--events", default=None,
                   help="write the JSONL event stream here")
    p.add_argument("--buffer", type=int, default=65536,
                   help="ring-buffer capacity (oldest events evicted)")
    p.add_argument("--include-idle", action="store_true",
                   help="also record idle channel-cycles")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stats", help="print the metrics snapshot of one simulation"
    )
    p.add_argument("--config", default="active")
    p.add_argument("--cycles", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prometheus", action="store_true",
                   help="emit the Prometheus text exposition format "
                        "(0.0.4) instead of the human-readable dump")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "profile",
        help="cycle accounting, stall attribution and model comparison "
             "for one design (nonzero exit when --compare-model "
             "diverges beyond tolerance)",
    )
    p.add_argument("--design", default="active",
                   help="an RTL campaign target (dual_ehb, early_join, "
                        "...), a Fig. 9 configuration, 'pipeline' (the "
                        "Fig. 5 chain) or 'processor' (see --list)")
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--seed", type=int, default=2007)
    p.add_argument("--compare-model", action="store_true",
                   help="also run the timed DMG abstraction: name the "
                        "critical cycle, predict the throughput, and "
                        "flag divergence beyond --tolerance")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="relative divergence accepted by --compare-model "
                        "(default 0.15)")
    p.add_argument("--json", default=None,
                   help="write the deterministic JSON report here")
    p.add_argument("--list", action="store_true",
                   help="print the available designs and exit")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="build-cache directory for RTL designs "
                        "(default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro/codegen)")
    p.add_argument("--no-cache", action="store_true",
                   help="compile in memory, writing nothing to the "
                        "build cache")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "fuzz",
        help="fuzz random system specs through the differential oracle "
             "(nonzero exit on findings)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; output is byte-identical across "
                        "runs for one seed (unless --budget cuts it short)")
    p.add_argument("--specs", type=int, default=20,
                   help="how many specs to generate and cross-check")
    p.add_argument("--max-blocks", type=int, default=48,
                   help="upper bound on blocks per generated spec")
    p.add_argument("--cycles", type=int, default=96,
                   help="simulated cycles per oracle stage")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds; the campaign "
                        "stops early (and says so) when it runs out")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="write each shrunk counterexample here as a "
                        "replayable JSON entry")
    p.add_argument("--replay", default=None, metavar="DIR",
                   help="replay a corpus directory instead of fuzzing; "
                        "nonzero exit when an entry stops reproducing")
    p.add_argument("--mutate", default=None, metavar="NAME",
                   help="plant a named seeded bug in every behavioural "
                        "network (e.g. broken-early-join); the oracle "
                        "must catch it")
    p.add_argument("--json", default=None,
                   help="write the deterministic JSON report here")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep findings at full size (skip spec-level "
                        "ddmin)")
    p.add_argument("--no-gates", action="store_true",
                   help="skip the gate-level scalar/compiled "
                        "differential stage")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the bounded Kripke/CTL spot check")
    p.add_argument("--progress", action="store_true",
                   help="print progress lines to stderr while fuzzing")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="build-cache directory for compiled modules and "
                        "Kripke structures (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro/codegen)")
    p.add_argument("--no-cache", action="store_true",
                   help="run without the build cache (compiled modules "
                        "are built in memory, nothing is written)")
    p.set_defaults(func=cmd_fuzz)
    return parser


#: the least value of each bounded numeric option, in every subcommand
#: that has the option
_MINIMA = {"cycles": 1, "specs": 1, "buffer": 0}


def _check_minima(args: argparse.Namespace) -> None:
    """Exit with one line naming the first option below its minimum."""
    for name, least in _MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise SystemExit(f"--{name} must be >= {least}, got {value}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_minima(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
