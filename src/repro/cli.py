"""Command-line interface.

Examples::

    csce stats                          # regenerate Table IV
    csce match --dataset dip --pattern-size 6 --variant edge_induced
    csce match --data g.graph --pattern p.graph --engine RapidMatch
    csce --log-level INFO match --dataset dip --trace --report out.json
    csce report out.json                # pretty-print a saved run-report
    csce capabilities                   # Table III
    csce explain --dataset dip --pattern-size 6   # plan EXPLAIN
    csce bench --dataset yeast --sizes 6 8 --engines CSCE GuP
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from repro.baselines import ALL_BASELINES
from repro.bench.harness import ENGINES, make_engine
from repro.bench.tables import print_table
from repro.core.csce import CSCE
from repro.core.variants import Variant
from repro.datasets import DATASET_NAMES, dataset_table, load_dataset
from repro.engine.checkpoint import (
    CheckpointSink,
    decode_query,
    load_checkpoint_set,
)
from repro.engine.physical import compile_plan
from repro.errors import CheckpointError, FormatError
from repro.graph.io import load_graph
from repro.graph.model import Graph
from repro.graph.sampling import sample_pattern
from repro.obs import (
    DEFAULT_INSPECT_INTERVAL,
    InspectorServer,
    JsonlTimeSeriesExporter,
    MatchInspector,
    MetricsPump,
    Observation,
    PrometheusTextfileExporter,
    build_explain,
    build_run_report,
    configure_logging,
    format_explain,
    format_run_report,
    load_run_reports,
    robustness_problems,
    validate_run_report,
    write_perfetto,
    write_run_report,
)


def _install_sigint(token):
    """First Ctrl-C trips the cooperative cancel token (the run returns a
    truncated-but-valid result); a second Ctrl-C aborts hard. Returns the
    previous handler for the caller's ``finally``, or ``None`` when signal
    handlers cannot be installed (non-main thread)."""

    def handler(signum, frame):
        if token.cancelled:
            raise KeyboardInterrupt
        token.trip("SIGINT")
        print(
            "interrupted: finishing the current step and returning the"
            " partial result (Ctrl-C again to abort hard)",
            file=sys.stderr,
        )

    try:
        previous = signal.signal(signal.SIGINT, handler)
    except ValueError:  # not the main thread (e.g. threaded test driver)
        return None
    return previous


def _install_sigusr1(obs):
    """SIGUSR1 dumps the flight recorder to stderr — a live peek at what a
    long run is doing without stopping it. Returns ``(signum, previous)``
    for the caller's ``finally``, or ``None`` on platforms without
    SIGUSR1 (Windows) or off the main thread."""
    signum = getattr(signal, "SIGUSR1", None)
    if signum is None:
        return None

    def handler(_signum, _frame):
        print(obs.recorder.format_dump(), file=sys.stderr)

    try:
        previous = signal.signal(signum, handler)
    except ValueError:  # not the main thread
        return None
    return signum, previous


def _install_sigusr2(inspector):
    """SIGUSR2 queues an on-demand checkpoint, written at the next
    heartbeat tick — suspend-for-migration without a socket. Mirrors the
    SIGUSR1 recorder dump's platform/main-thread guards. The handler only
    appends to the inspector's request queue (no I/O at signal time)."""
    signum = getattr(signal, "SIGUSR2", None)
    if signum is None:
        return None

    def handler(_signum, _frame):
        inspector.request_checkpoint(wait=False)
        print(
            "checkpoint-now queued (SIGUSR2); written at the next"
            " heartbeat tick",
            file=sys.stderr,
        )

    try:
        previous = signal.signal(signum, handler)
    except ValueError:  # not the main thread
        return None
    return signum, previous


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = dataset_table(scale=args.scale)
    if args.json:
        print(json.dumps({"scale": args.scale, "datasets": rows}, indent=2))
        return 0
    print_table(
        rows,
        [
            "Data Graph",
            "Edge Direction",
            "Vertex Count",
            "Edge Count",
            "Label Count",
            "Average Degree",
            "Max In Degree",
            "Max Out Degree",
        ],
        title=f"Table IV (scale={args.scale})",
    )
    return 0


def _cmd_capabilities(_args: argparse.Namespace) -> int:
    rows = [cls.capability_row() for cls in ALL_BASELINES]
    rows.append(
        {
            "Algorithm": "CSCE",
            "Variant": "E, H, V",
            "Vertex Labels": "Yes",
            "Edge Labels": "Yes",
            "Edge Direction": "U and D",
            "Pattern Size": "Up to 2000",
        }
    )
    print_table(rows, title="Table III: algorithm capabilities")
    return 0


def _load_data_graph(
    args: argparse.Namespace, strict: bool = True
) -> Graph | None:
    """The data graph named by ``--data FILE`` or ``--dataset NAME``;
    None (with the error printed) when neither is given."""
    if args.data:
        graph = load_graph(args.data, strict=strict)
    elif args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale)
    else:
        print("error: provide --data FILE or --dataset NAME", file=sys.stderr)
        return None
    if getattr(graph, "parse_warnings", 0):
        print(f"warning     : skipped {graph.parse_warnings} malformed"
              " line(s) in the data graph", file=sys.stderr)
    return graph


def _load_pattern(
    args: argparse.Namespace, graph: Graph, strict: bool = True
) -> Graph:
    """The pattern named by ``--pattern FILE``, else one sampled from
    ``graph`` by ``--pattern-size``/``--pattern-style``/``--seed``."""
    if args.pattern:
        return load_graph(args.pattern, strict=strict)
    return sample_pattern(
        graph, args.pattern_size, rng=args.seed, style=args.pattern_style
    )


def _cmd_match(args: argparse.Namespace) -> int:
    graph = _load_data_graph(args, strict=not args.lenient)
    if graph is None:
        return 2
    robustness = (
        args.memory_limit is not None
        or args.checkpoint is not None
        or args.resume is not None
        or args.inspect is not None
    )
    if robustness and args.engine != "CSCE":
        print(
            "error: --memory-limit/--checkpoint/--resume/--inspect require"
            " --engine CSCE",
            file=sys.stderr,
        )
        return 2
    workers = max(1, args.workers)
    if workers > 1:
        if args.engine != "CSCE":
            print("error: --workers requires --engine CSCE",
                  file=sys.stderr)
            return 2
        if args.stream or args.enumerate:
            print(
                "error: --workers runs in count mode only (embedding"
                " streams are not portable across processes); drop"
                " --stream/--enumerate",
                file=sys.stderr,
            )
            return 2
    variant, planner, restrictions = args.variant, "csce", None
    resume_doc = None
    if args.resume:
        # The query comes from the checkpoint, never from the flags.
        try:
            resume_doc = next(iter(load_checkpoint_set(args.resume).values()))
            pattern, variant, planner, restrictions, _ = decode_query(
                resume_doc
            )
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        pattern = _load_pattern(args, graph, strict=not args.lenient)
    engine = make_engine(args.engine, graph)
    exporters = []
    if args.metrics_prom:
        exporters.append(PrometheusTextfileExporter(args.metrics_prom))
    if args.metrics_jsonl:
        exporters.append(JsonlTimeSeriesExporter(args.metrics_jsonl))
    pump = (
        MetricsPump(
            exporters,
            labels={"engine": args.engine, "dataset": args.dataset or "file"},
        )
        if exporters
        else None
    )
    instrumented = (
        args.trace
        or args.report
        or args.heartbeat is not None
        or args.profile
        or pump is not None
        or args.trace_perfetto is not None
        or args.dump_recorder
        or args.inspect is not None
    )
    heartbeat_interval = args.heartbeat
    if heartbeat_interval is None and args.inspect is not None:
        # The inspector samples on heartbeat ticks — give it a fast pulse
        # (the lines themselves go to logger.info, silent by default).
        heartbeat_interval = DEFAULT_INSPECT_INTERVAL
    obs = (
        Observation(trace=args.trace or bool(args.report)
                    or args.trace_perfetto is not None,
                    heartbeat_interval=heartbeat_interval,
                    profile=args.profile,
                    metrics=pump)
        if instrumented
        else None
    )
    plan = None
    if isinstance(engine, CSCE) and obs is not None:
        # The run-report summarizes the plan the run executes: the
        # session's entry under the key the run (or a resume) compiles.
        plan = engine.session.compile(
            pattern, variant, planner=planner, restrictions=restrictions,
            obs=obs,
        ).logical
    governor = None
    previous_handler = None
    if isinstance(engine, CSCE):
        from repro.engine import Budget, CancelToken, ResourceGovernor

        token = CancelToken()
        governor = ResourceGovernor(
            budget=Budget(memory_limit_mb=args.memory_limit),
            cancel=token,
            obs=obs,
        )
        previous_handler = _install_sigint(token)
    usr1_handler = _install_sigusr1(obs) if obs is not None else None
    # A directory of shard checkpoints (csce match --workers N
    # --checkpoint DIR) always resumes on the worker pool.
    parallel = workers > 1 or bool(args.resume and os.path.isdir(args.resume))
    use_stream = not parallel and (
        args.stream
        or args.checkpoint
        or resume_doc is not None
        or args.inspect is not None
    )
    checkpoint_block = None
    inspector = None
    server = None
    usr2_handler = None
    try:
        if parallel:
            if args.inspect is not None and obs is not None:
                # The pool's heartbeat snapshots carry the per-worker rows;
                # there is no stream, so checkpoint-now answers with an
                # error (pool checkpoints are written at stop time).
                inspector = MatchInspector(
                    None, obs, governor=governor
                ).attach()
                server = InspectorServer(inspector, args.inspect).start()
                print(f"inspector   : listening on {server.endpoint}",
                      file=sys.stderr)
                usr2_handler = _install_sigusr2(inspector)
            if resume_doc is not None:
                result = engine.resume_pool(
                    args.resume,
                    workers=workers,
                    max_embeddings=args.limit,
                    time_limit=args.time_limit,
                    governor=governor,
                    obs=obs,
                    checkpoint_dir=args.checkpoint,
                    stall_timeout=args.stall_timeout,
                    max_respawns=args.max_respawns,
                    max_unit_attempts=args.max_unit_attempts,
                )
            else:
                result = engine.match(
                    pattern,
                    variant,
                    count_only=True,
                    max_embeddings=args.limit,
                    time_limit=args.time_limit,
                    obs=obs,
                    governor=governor,
                    workers=workers,
                    pool_checkpoint_dir=args.checkpoint,
                    stall_timeout=args.stall_timeout,
                    max_respawns=args.max_respawns,
                    max_unit_attempts=args.max_unit_attempts,
                )
            if inspector is not None:
                inspector.finish(result)
            if args.checkpoint:
                # The pool writes shard checkpoints only when it stops
                # early (a completed search leaves nothing to resume).
                checkpoint_block = {
                    "path": str(args.checkpoint),
                    "written": result.stop_reason is not None,
                }
        elif use_stream:
            if not isinstance(engine, CSCE):
                print("error: --stream requires --engine CSCE",
                      file=sys.stderr)
                return 2
            if resume_doc is not None:
                stream = engine.resume(
                    resume_doc,
                    max_embeddings=args.limit,
                    time_limit=args.time_limit,
                    governor=governor,
                    obs=obs,
                    checkpoint_path=args.checkpoint or args.resume,
                )
            else:
                stream = engine.match_iter(
                    pattern,
                    variant,
                    max_embeddings=args.limit,
                    time_limit=args.time_limit,
                    obs=obs,
                    governor=governor,
                    checkpoint_path=args.checkpoint,
                )
            if args.inspect is not None and obs is not None:
                inspector = MatchInspector(
                    stream,
                    obs,
                    governor=governor,
                    checkpoint_factory=lambda path: CheckpointSink(
                        path, engine.store
                    ),
                    default_checkpoint_path=(
                        args.checkpoint
                        or f"csce-checkpoint-{os.getpid()}.json"
                    ),
                ).attach()
                server = InspectorServer(inspector, args.inspect).start()
                print(f"inspector   : listening on {server.endpoint}",
                      file=sys.stderr)
                usr2_handler = _install_sigusr2(inspector)
            shown = 0
            with stream:
                for embedding in stream:
                    if args.stream and shown < args.show and not args.json:
                        print(f"  #{shown}: {embedding}")
                        shown += 1
                result = stream.result()
            if inspector is not None:
                inspector.finish(result)
            sink = stream.checkpoint_sink
            if sink is None and inspector is not None:
                sink = inspector.on_demand_sink
            if sink is not None:
                checkpoint_block = {
                    "path": str(sink.path),
                    "written": sink.written is not None,
                }
                if sink.on_demand:
                    checkpoint_block["on_demand"] = sink.on_demand
        else:
            result = engine.match(
                pattern,
                variant,
                count_only=not args.enumerate,
                max_embeddings=args.limit,
                time_limit=args.time_limit,
                obs=obs,
                **({"governor": governor} if governor is not None else {}),
            )
    except CheckpointError as exc:  # restore refused the checkpoint set
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        if usr1_handler is not None:
            signal.signal(*usr1_handler)
        if usr2_handler is not None:
            signal.signal(*usr2_handler)
    report = None
    if obs is not None:
        obs.finish(result)
        config_block = None
        if parallel:
            # Stamp the supervision knobs a parallel run was launched
            # with — report --validate type-checks them.
            config_block = {
                "workers": workers,
                "stall_timeout": args.stall_timeout,
                "max_respawns": args.max_respawns,
                "max_unit_attempts": args.max_unit_attempts,
            }
        report = build_run_report(
            result,
            engine=args.engine,
            obs=obs,
            plan=plan,
            graph=engine.store if isinstance(engine, CSCE) else graph,
            pattern=pattern,
            dataset=args.dataset or args.data,
            checkpoint=checkpoint_block,
            config=config_block,
        )
    if args.report and report is not None:
        write_run_report(report, args.report)
        print(f"run-report  : {args.report}", file=sys.stderr)
    if args.trace_perfetto and obs is not None:
        write_perfetto(args.trace_perfetto, obs.tracer, obs.recorder)
        print(f"perfetto    : {args.trace_perfetto}", file=sys.stderr)
    if args.dump_recorder and obs is not None:
        print(obs.recorder.format_dump(), file=sys.stderr)
    if pump is not None:
        for exporter in pump.exporters:
            print(f"metrics     : {exporter.path}", file=sys.stderr)
    if args.json:
        payload = {
            "engine": args.engine,
            "variant": str(result.variant),
            "pattern": {
                "name": pattern.name,
                "num_vertices": pattern.num_vertices,
                "num_edges": pattern.num_edges,
            },
            "count": result.count,
            "truncated": result.truncated,
            "timed_out": result.timed_out,
            "stop_reason": result.stop_reason,
            "degradation": list(result.degradation),
            "timings": {
                "read_seconds": result.read_seconds,
                "plan_seconds": result.plan_seconds,
                "execute_seconds": result.elapsed,
                "total_seconds": result.total_seconds,
            },
            "throughput": result.throughput,
            "stats": dict(result.stats),
        }
        if result.progress is not None:
            payload["progress"] = dict(result.progress)
        if result.shards is not None:
            payload["workers"] = workers
            payload["shards"] = dict(result.shards)
        if result.quarantined_units:
            payload["quarantined_units"] = result.quarantined_units
        if checkpoint_block is not None:
            payload["checkpoint"] = checkpoint_block
        if args.profile and obs is not None:
            payload["profile"] = obs.profile.as_dict(
                list(plan.order) if plan is not None else None
            )
        if args.enumerate and result.embeddings is not None:
            payload["embeddings"] = [
                {str(u): v for u, v in emb.items()}
                for emb in result.embeddings[: args.show]
            ]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"engine      : {args.engine}")
    print(f"variant     : {result.variant}")
    print(f"pattern     : |V|={pattern.num_vertices} |E|={pattern.num_edges}")
    suffix = f" (stopped: {result.stop_reason})" if result.stop_reason else ""
    print(f"embeddings  : {result.count}{suffix}")
    if result.shards is not None:
        counts = result.shards.get("counts") or []
        print(
            f"shards      : {len(counts)} worker(s):"
            f" {' + '.join(str(c) for c in counts)}"
            f" = {sum(counts)}"
        )
    if result.quarantined_units:
        print(
            f"quarantined : {result.quarantined_units} unit(s) — replay"
            " with 'csce retry-quarantined'"
        )
    if result.degradation:
        print(f"degradation : {' > '.join(result.degradation)}")
    if checkpoint_block is not None:
        written = " (written)" if checkpoint_block["written"] else ""
        if checkpoint_block.get("on_demand"):
            written = (
                f" (written, {checkpoint_block['on_demand']} on-demand)"
            )
        print(f"checkpoint  : {checkpoint_block['path']}{written}")
    print(f"total time  : {result.total_seconds:.4f} s"
          f" (read {result.read_seconds:.4f}, plan {result.plan_seconds:.4f},"
          f" execute {result.elapsed:.4f})")
    if args.profile and obs is not None:
        print(f"peak memory : {obs.profile.peak_mb} MiB (tracemalloc)")
    if args.trace and report is not None:
        print()
        print(format_run_report(report))
    if args.enumerate and result.embeddings:
        shown = result.embeddings[: args.show]
        for i, embedding in enumerate(shown):
            print(f"  #{i}: {embedding}")
        if len(result.embeddings) > len(shown):
            print(f"  ... {len(result.embeddings) - len(shown)} more")
    return 0


def _cmd_retry_quarantined(args: argparse.Namespace) -> int:
    """Replay the quarantine-NNNN.json residue of a --workers run
    single-process and fold the missing counts (see
    :meth:`repro.core.CSCE.retry_quarantined`)."""
    graph = _load_data_graph(args)
    if graph is None:
        return 2
    engine = CSCE(graph)
    overrides: dict = {}
    if args.limit is not None:
        overrides["max_embeddings"] = args.limit
    if args.time_limit is not None:
        overrides["time_limit"] = args.time_limit
    try:
        replayed = len(load_checkpoint_set(args.directory, quarantine=True))
        result = engine.retry_quarantined(
            args.directory, keep_files=args.keep_files, **overrides
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "directory": str(args.directory),
            "replayed_units": replayed,
            "count": result.count,
            "stop_reason": result.stop_reason,
            "files_deleted": result.stop_reason is None
            and not args.keep_files,
            "timings": {"execute_seconds": result.elapsed},
            "stats": dict(result.stats),
        }, indent=2))
        return 0 if result.stop_reason is None else 1
    print(f"residue     : {replayed} quarantined unit(s) in"
          f" {args.directory}")
    suffix = f" (stopped: {result.stop_reason})" if result.stop_reason else ""
    print(f"embeddings  : {result.count}{suffix}")
    print(f"total time  : {result.total_seconds:.4f} s")
    if result.stop_reason is None:
        print("files       : kept" if args.keep_files
              else "files       : residue deleted (counts folded)")
        print("fold        : add this count to the original match's count"
              " for the exact total")
        return 0
    print("files       : kept (replay incomplete — discard this partial"
          " count and retry)", file=sys.stderr)
    return 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.errors import InspectorError
    from repro.obs import inspect_call

    cmd_args: dict = {}
    if args.limit is not None:
        cmd_args["limit"] = args.limit
    if args.path is not None:
        cmd_args["path"] = args.path
    if args.time_limit is not None:
        cmd_args["time_limit"] = args.time_limit
    if args.max_embeddings is not None:
        cmd_args["max_embeddings"] = args.max_embeddings
    if args.memory_limit is not None:
        cmd_args["memory_limit_mb"] = args.memory_limit
    if args.reason is not None:
        cmd_args["reason"] = args.reason
    try:
        data = inspect_call(
            args.socket, args.cmd, cmd_args, timeout=args.timeout
        )
    except InspectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            print(f"{key:<16}: {value}")
    else:
        print(data)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.errors import InspectorError
    from repro.obs import InspectorClient, render_top

    try:
        client = InspectorClient(args.socket, timeout=args.timeout)
    except InspectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        while True:
            status = client.request("status")
            try:
                progress = client.request("progress")
            except InspectorError:
                progress = None
            if not args.once:
                # ANSI clear-screen + home: a plain-text refresh, no
                # curses dependency.
                print("\x1b[2J\x1b[H", end="")
            print(render_top(status, progress))
            if (
                args.once
                or status.get("state") == "finished"
                or status.get("stop_reason")
            ):
                return 0
            time.sleep(args.interval)
    except InspectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_plan(args: argparse.Namespace) -> int:
    graph = _load_data_graph(args)
    if graph is None:
        return 2
    pattern = _load_pattern(args, graph)
    engine = CSCE(graph)
    plan = engine.build_plan(pattern, args.variant, planner=args.planner)
    print(plan.describe())
    print(f"clusters     : {plan.task_clusters.num_clusters}"
          f" (read {plan.task_clusters.read_seconds:.4f} s)")
    print(f"plan time    : {plan.plan_seconds:.4f} s")
    physical = compile_plan(plan)
    print(f"physical     : {len(physical.ops)} extend ops,"
          f" {physical.num_specs} candidate specs"
          f" (compiled {physical.compile_seconds:.4f} s)")
    stats = engine.sce_report(pattern, args.variant)
    print(f"SCE          : {stats.occurrence:.0%} of pattern vertices,"
          f" cluster share {stats.cluster_ratio:.0%}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    graph = _load_data_graph(args)
    if graph is None:
        return 2
    pattern = _load_pattern(args, graph)
    engine = CSCE(graph)
    # A live tracer makes the planner record its order rationale (the GCF
    # rule firings EXPLAIN renders).
    obs = Observation()
    physical = engine.session.compile(
        pattern, args.variant, planner=args.planner, obs=obs
    )
    run_report = None
    if args.run_report:
        try:
            reports = load_run_reports(args.run_report)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.run_report}: {exc}",
                  file=sys.stderr)
            return 2
        run_report = reports[-1] if reports else None
    info = build_explain(physical.logical, report=run_report, physical=physical)
    if args.json:
        print(json.dumps(info, indent=2, default=str))
        return 0
    print(format_explain(info))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.ccsr.store import CCSRStore
    from repro.engine.session import plan_query
    from repro.engine.verify import verify_physical
    from repro.graph.patterns import CATALOG

    graph = _load_data_graph(args)
    if graph is None:
        return 2
    store = CCSRStore(graph)
    if args.catalog:
        patterns = [(name, factory()) for name, factory in CATALOG.items()]
    else:
        pattern = _load_pattern(args, graph)
        default = "pattern" if args.pattern else "sampled"
        patterns = [(pattern.name or default, pattern)]
    variants = (
        [v.value for v in Variant] if args.variant == "all" else [args.variant]
    )
    rows = []
    failed = 0
    for name, pattern in patterns:
        for variant in variants:
            plan = plan_query(store, pattern, variant, planner=args.planner)
            physical = compile_plan(plan)
            report = verify_physical(physical, store)
            rows.append(
                {
                    "pattern": name,
                    "fingerprint_size": len(pattern.fingerprint()),
                    "variant": variant,
                    "planner": args.planner,
                    **report.as_dict(),
                }
            )
            if not report.ok:
                failed += 1
                print(f"FAIL {name} / {variant}", file=sys.stderr)
                for diagnostic in report.diagnostics:
                    print(f"  {diagnostic.render()}", file=sys.stderr)
    if args.json:
        print(
            json.dumps(
                {"checked": len(rows), "failed": failed, "plans": rows},
                indent=2,
            )
        )
    else:
        print(f"verified    : {len(rows)} plan(s)"
              f" ({len(patterns)} pattern(s) x {len(variants)} variant(s))")
        print(f"result      : {'FAIL' if failed else 'ok'}"
              + (f" ({failed} plan(s) rejected)" if failed else ""))
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import average_by, sweep
    from repro.graph.sampling import sample_pattern_suite

    if not args.dataset:
        print("error: bench requires --dataset NAME", file=sys.stderr)
        return 2
    graph = load_dataset(args.dataset, scale=args.scale)
    suite = sample_pattern_suite(
        graph,
        args.sizes,
        per_size=args.patterns,
        style=args.pattern_style,
        seed=args.seed,
    )
    patterns = [p for size in args.sizes for p in suite[size]]
    for i, p in enumerate(patterns):
        p.name = f"{p.name}#{i}"
    records = sweep(
        "cli",
        graph,
        patterns,
        args.engines,
        args.variant,
        time_limit=args.time_limit,
        max_embeddings=args.limit,
        collect_reports=bool(args.report) or args.trace,
        trace=args.trace,
        workers=max(1, args.workers),
    )
    if args.report:
        from repro.bench.harness import save_reports

        written = save_reports(records, args.report)
        print(f"run-reports : {written} written to {args.report}",
              file=sys.stderr)
    print_table(
        [r.row() for r in records],
        ["engine", "size", "embeddings", "total_s", "throughput", "status"],
        title=f"{args.dataset} / {args.variant} / sizes {args.sizes}",
    )
    summary = average_by(records, key=lambda r: (r.engine, r.pattern_size))
    rows = [
        {
            "engine": engine,
            "size": size,
            "mean_total_s": round(stats["total_s"], 4),
            "mean_throughput": round(stats["throughput"], 1),
            "timeouts": stats["timeouts"],
        }
        for (engine, size), stats in sorted(summary.items())
    ]
    print_table(rows, title="averages")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        reports = load_run_reports(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not reports:
        print(f"error: no run-reports in {args.path}", file=sys.stderr)
        return 2
    if args.validate:
        # Schema mismatches exit 1; robustness-field mismatches (checked
        # only on a schema-valid report) are configuration errors, exit 2.
        schema_count = 0
        robustness_count = 0
        for i, report in enumerate(reports):
            try:
                validate_run_report(report)
            except FormatError as exc:
                schema_count += 1
                print(f"document #{i}: {exc}", file=sys.stderr)
                continue
            bad = robustness_problems(report)
            if bad:
                robustness_count += 1
                for problem in bad:
                    print(f"document #{i}: {problem}", file=sys.stderr)
        problems = schema_count + robustness_count
        if problems:
            print(f"{problems}/{len(reports)} document(s) invalid",
                  file=sys.stderr)
            return 2 if robustness_count else 1
        print(f"{len(reports)} report(s) valid")
        return 0
    for i, report in enumerate(reports):
        if i:
            print()
            print("=" * 60)
        print(format_run_report(report))
    return 0


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    """The data-graph and pattern options of match, plan, explain and
    verify (read by :func:`_load_data_graph` and :func:`_load_pattern`)."""
    parser.add_argument("--data", help="data graph file (.graph format)")
    parser.add_argument(
        "--dataset", choices=DATASET_NAMES, help="built-in dataset stand-in"
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--pattern", help="pattern graph file")
    parser.add_argument("--pattern-size", type=int, default=8)
    parser.add_argument(
        "--pattern-style", choices=("induced", "dense", "sparse"), default="induced"
    )
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csce",
        description="CSCE subgraph matching (ICDE 2024 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="logging level for the repro.* loggers"
        " (DEBUG/INFO/WARNING/ERROR; also REPRO_LOG_LEVEL)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines (also REPRO_LOG_JSON=1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="regenerate Table IV dataset statistics")
    p_stats.add_argument("--scale", type=float, default=0.5)
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_stats.set_defaults(func=_cmd_stats)

    p_caps = sub.add_parser("capabilities", help="print Table III")
    p_caps.set_defaults(func=_cmd_capabilities)

    p_match = sub.add_parser("match", help="match a pattern in a data graph")
    _add_query_args(p_match)
    p_match.add_argument(
        "--variant",
        default="edge_induced",
        choices=[v.value for v in Variant],
    )
    p_match.add_argument("--engine", default="CSCE", choices=sorted(ENGINES))
    p_match.add_argument("--enumerate", action="store_true",
                         help="materialize embeddings instead of counting")
    p_match.add_argument("--stream", action="store_true",
                         help="stream embeddings lazily (CSCE only): print"
                              " the first --show as they are found, then"
                              " drain the rest for the count")
    p_match.add_argument("--show", type=int, default=5,
                         help="embeddings to display with --enumerate")
    p_match.add_argument("--limit", type=int, default=None)
    p_match.add_argument("--time-limit", type=float, default=60.0)
    p_match.add_argument("--memory-limit", type=float, metavar="MIB",
                         default=None,
                         help="soft memory budget in MiB (CSCE only):"
                         " breaches climb the degradation ladder"
                         " (evict memo > disable memo > suspend)")
    p_match.add_argument("--workers", type=int, metavar="N", default=1,
                         help="run the search on N worker processes with"
                         " work-stealing and exact merged counts (CSCE"
                         " count mode only)")
    p_match.add_argument("--stall-timeout", type=float, metavar="SECONDS",
                         default=None,
                         help="with --workers N: SIGKILL a busy worker"
                         " silent this long and re-dispatch its unit"
                         " (default: watchdog off)")
    p_match.add_argument("--max-respawns", type=int, metavar="N",
                         default=None,
                         help="with --workers N: replacement-worker budget"
                         " after deaths/stall kills (default 3*workers)")
    p_match.add_argument("--max-unit-attempts", type=int, metavar="N",
                         default=3,
                         help="with --workers N: attempts a work unit gets"
                         " before it is quarantined to"
                         " quarantine-NNNN.json in the --checkpoint"
                         " directory (replay with 'csce"
                         " retry-quarantined')")
    p_match.add_argument("--checkpoint", metavar="PATH", default=None,
                         help="write a resumable checkpoint here if the"
                         " run suspends (limit/cancel/memory); CSCE only."
                         " With --workers N, PATH is a directory that"
                         " receives one shard checkpoint per unfinished"
                         " work unit")
    p_match.add_argument("--resume", metavar="PATH", default=None,
                         help="resume a suspended run from this checkpoint"
                         " file or shard directory (pattern and variant come"
                         " from the checkpoint; the data graph must be"
                         " unchanged). A directory, or any checkpoint with"
                         " --workers N, resumes on the worker pool")
    p_match.add_argument("--lenient", action="store_true",
                         help="skip malformed graph-file lines with a"
                         " warning instead of failing (strict=False)")
    p_match.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_match.add_argument("--trace", action="store_true",
                         help="collect spans and print the run-report")
    p_match.add_argument("--report", metavar="PATH", default=None,
                         help="write a JSON run-report (.jsonl appends)")
    p_match.add_argument("--heartbeat", type=float, metavar="SECONDS",
                         default=None,
                         help="emit search-progress heartbeats this often")
    p_match.add_argument("--profile", action="store_true",
                         help="tracemalloc per-span memory + per-depth"
                         " search profile in the run-report")
    p_match.add_argument("--metrics-prom", metavar="PATH", default=None,
                         help="export Prometheus textfile metrics here"
                         " (atomically rewritten each sample)")
    p_match.add_argument("--metrics-jsonl", metavar="PATH", default=None,
                         help="append JSONL time-series metric samples here")
    p_match.add_argument("--trace-perfetto", metavar="PATH", default=None,
                         help="export spans + flight-recorder events as a"
                         " Chrome/Perfetto trace-event JSON file")
    p_match.add_argument("--dump-recorder", action="store_true",
                         help="print the flight-recorder ring to stderr"
                         " after the run (SIGUSR1 dumps it live)")
    p_match.add_argument("--inspect", metavar="SOCK", default=None,
                         help="serve a live inspector on this unix-socket"
                         " path (TCP host:port also accepted; CSCE only)."
                         " Attach with 'csce inspect SOCK <command>' or"
                         " 'csce top SOCK'")
    p_match.set_defaults(func=_cmd_match)

    p_retry = sub.add_parser(
        "retry-quarantined",
        help="replay the poison-unit residue a --workers match"
        " quarantined (single-process, exact fold)",
    )
    p_retry.add_argument("directory", help="the pool --checkpoint directory"
                         " holding quarantine-NNNN.json residue")
    p_retry.add_argument("--data", help="data graph file (.graph format)")
    p_retry.add_argument(
        "--dataset", choices=DATASET_NAMES, help="built-in dataset stand-in"
    )
    p_retry.add_argument("--scale", type=float, default=0.5)
    p_retry.add_argument("--lenient", action="store_true",
                         help="skip malformed graph-file lines with a"
                         " warning instead of failing (strict=False)")
    p_retry.add_argument("--limit", type=int, default=None,
                         help="override the recorded embedding cap")
    p_retry.add_argument("--time-limit", type=float, default=None,
                         help="override the recorded wall-clock limit")
    p_retry.add_argument("--keep-files", action="store_true",
                         help="keep the residue files after a complete"
                         " replay instead of deleting them")
    p_retry.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_retry.set_defaults(func=_cmd_retry_quarantined)

    from repro.obs.catalog import KNOWN_COMMANDS

    p_inspect = sub.add_parser(
        "inspect",
        help="query or steer a live match served with --inspect",
        description="Commands: " + "; ".join(
            f"{name} — {text}" for name, text in KNOWN_COMMANDS.items()
        ),
    )
    p_inspect.add_argument("socket", help="inspector address: the --inspect"
                           " socket path or host:port")
    p_inspect.add_argument("cmd", choices=KNOWN_COMMANDS,
                           help="inspector command to run")
    p_inspect.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_inspect.add_argument("--timeout", type=float, default=10.0,
                           help="connection/response timeout in seconds")
    p_inspect.add_argument("--limit", type=int, default=None,
                           help="[recorder] show only the last N events")
    p_inspect.add_argument("--path", default=None,
                           help="[checkpoint-now] write the checkpoint here"
                           " instead of the run's --checkpoint path")
    p_inspect.add_argument("--time-limit", type=float, default=None,
                           help="[budget] tighten the wall-clock limit"
                           " (seconds from now)")
    p_inspect.add_argument("--max-embeddings", type=int, default=None,
                           help="[budget] tighten the embedding cap")
    p_inspect.add_argument("--memory-limit", type=float, metavar="MIB",
                           default=None,
                           help="[budget] tighten the memory ceiling (MiB)")
    p_inspect.add_argument("--reason", default=None,
                           help="[cancel] reason recorded on the token")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_top = sub.add_parser(
        "top",
        help="live plain-text view of a match served with --inspect",
    )
    p_top.add_argument("socket", help="inspector address: the --inspect"
                       " socket path or host:port")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit (no screen clear)")
    p_top.add_argument("--timeout", type=float, default=10.0,
                       help="connection/response timeout in seconds")
    p_top.set_defaults(func=_cmd_top)

    p_plan = sub.add_parser("plan", help="show the optimized matching plan")
    _add_query_args(p_plan)
    p_plan.add_argument(
        "--variant",
        default="edge_induced",
        choices=[v.value for v in Variant],
    )
    p_plan.add_argument("--planner", default="csce",
                        choices=("csce", "ri_cluster", "ri", "rm"))
    p_plan.set_defaults(func=_cmd_plan)

    p_explain = sub.add_parser(
        "explain",
        help="render the optimizer's choices: order, GCF rule firings,"
        " SCE DAG, equivalence pairs, candidate estimates",
    )
    _add_query_args(p_explain)
    p_explain.add_argument(
        "--variant",
        default="edge_induced",
        choices=[v.value for v in Variant],
    )
    p_explain.add_argument("--planner", default="csce",
                          choices=("csce", "ri_cluster", "ri", "rm"))
    p_explain.add_argument("--run-report", metavar="PATH", default=None,
                          help="join actual per-depth candidate counts from"
                          " a saved --profile run-report")
    p_explain.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_explain.set_defaults(func=_cmd_explain)

    p_verify = sub.add_parser(
        "verify",
        help="statically verify compiled plans (order/DAG/cluster/negation"
        " invariants) without executing them",
    )
    _add_query_args(p_verify)
    p_verify.add_argument("--catalog", action="store_true",
                          help="verify every named pattern in the catalog"
                          " instead of one pattern")
    p_verify.add_argument(
        "--variant",
        default="all",
        choices=[v.value for v in Variant] + ["all"],
        help="variant to plan for ('all' sweeps every variant)",
    )
    p_verify.add_argument("--planner", default="csce",
                          choices=("csce", "ri_cluster", "ri", "rm", "cost"))
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="sweep engines over sampled patterns and print a table"
    )
    p_bench.add_argument("--dataset", choices=DATASET_NAMES, default=None)
    p_bench.add_argument("--scale", type=float, default=0.25)
    p_bench.add_argument("--sizes", type=int, nargs="+", default=[4, 8])
    p_bench.add_argument("--patterns", type=int, default=2,
                         help="patterns sampled per size")
    p_bench.add_argument(
        "--pattern-style", choices=("induced", "dense", "sparse"), default="induced"
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--variant",
        default="edge_induced",
        choices=[v.value for v in Variant],
    )
    p_bench.add_argument("--engines", nargs="+", default=["CSCE"],
                         choices=sorted(ENGINES))
    p_bench.add_argument("--limit", type=int, default=20_000)
    p_bench.add_argument("--time-limit", type=float, default=2.0)
    p_bench.add_argument("--workers", type=int, metavar="N", default=1,
                         help="worker processes per CSCE task (count mode)")
    p_bench.add_argument("--trace", action="store_true",
                         help="collect span trees in the run-reports")
    p_bench.add_argument("--report", metavar="PATH", default=None,
                         help="write run-reports (.jsonl streams one/line)")
    p_bench.set_defaults(func=_cmd_bench)

    p_report = sub.add_parser(
        "report", help="pretty-print or validate saved run-reports"
    )
    p_report.add_argument("path", help="a .json run-report or .jsonl stream")
    p_report.add_argument("--validate", action="store_true",
                          help="schema-check only (CI smoke gate)")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging(args.log_level, json_output=args.log_json or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
