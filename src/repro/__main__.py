"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compile FILE [--emit core|opencl] [--no-fusion --no-coalescing ...]
        [--stop-after core|host] [--artifact-dir DIR] [--disable-pass NAME]
    Compile a core-language source file and print the core IR after
    optimisation or the pseudo-OpenCL rendering.  ``--stop-after``
    stops at a stage frontier; ``--artifact-dir`` makes compiles
    resume from (and store) persistent stage artifacts, so a second
    invocation skips the passes whose inputs haven't changed;
    ``--disable-pass`` skips any optional pass by name.

check FILE
    Type-check (including alias and uniqueness analysis) and report.

passes [--no-fusion --disable-pass NAME ...]
    Print the compiler's pass list in plan order: stage, whether the
    given flags enable the pass, and whether it is mandatory.  An
    unknown or mandatory ``--disable-pass`` name exits 2, as it does
    for ``compile``.

run FILE [--size name=value ...] [--device-profile NAME]
    Compile FILE and price it analytically at the given sizes on both
    simulated devices (or one named profile from
    :data:`repro.gpu.device.PROFILES`).  A ``--size`` the entry point
    does not name is caller misuse; the ones left out are listed.

bench table1|figure13|table2|impact --kind K|mem|shard|validate
    All but ``validate`` regenerate a committed artefact
    (:data:`repro.bench.pinned.PINNED`): print its rows and rewrite the
    file.  ``table1``, ``figure13``, ``table2`` and ``impact`` (once
    per ``--kind fusion|coalescing|tiling|inplace``) are the paper's
    evaluation, ours beside the paper's numbers, in
    ``benchmarks/results/<what>.txt``; ``mem`` and ``shard`` the two
    ``BENCH_*.json`` files: peak device-memory footprint with the
    liveness planner on vs off; the shardable benchmarks across
    simulated pools of 1/2/4 devices (bit-identical results
    required).  All are
    deterministic (no wall clock: ``benchmarks/e2e/run.py`` alone
    measures time) and tier-1 compares what they write with what is
    committed and applies the acceptance gates — for the paper's rows,
    the reproduction criteria.  ``validate`` runs the named benchmarks
    on the simulated device against the interpreter and prints each
    run's report and per-pass compile breakdown.  A flag the chosen
    ``<what>`` does not read is caller misuse (exit 2).

serve-bench [--clients N --devices SPEC --chaos --flight-dir DIR ...]
    Drive the resilient serving layer (:mod:`repro.serve`) with N
    concurrent clients over the benchmark suite and print the health
    report: accepted/shed/deadline counts, breaker states and per-lane
    latency percentiles.  With ``--flight-dir`` a flight recorder
    captures every request's trace/metrics; failing or SLO-busting
    requests dump Perfetto-loadable ``flightrec-<id>.json`` bundles.
    Requests run on a device pool (:mod:`repro.sched`): one GTX 780 Ti
    unless ``--devices`` (e.g. ``4`` or ``2xbig,2xsmall``) names more,
    which adds cost-model placement and batch sharding.  The server
    runs one worker per device; ``--chaos`` gives each device its own
    seeded fault plan.  The effective configuration is printed first.

obs replay BUNDLE
    Post-mortem tooling: validates a flight-recorder bundle and renders
    its trace/metrics/run-report in the terminal.

Exit codes
----------
Failures exit with a code naming the failure class: ``2`` caller
misuse (:class:`~repro.errors.ArgumentError`), ``3`` compiler bug,
``4`` device fault or OOM, ``5`` kernel timeout or missed deadline,
``6`` load shed, ``1`` any other toolchain error.

Observability (``compile``, ``run`` and ``bench``)
--------------------------------------------------
``--trace-out trace.json`` records a Chrome trace (one span per
optimisation pass with IR-size deltas, one span per simulated kernel
launch with cycle/traffic attributes) loadable in chrome://tracing or
https://ui.perfetto.dev; ``--metrics-out metrics.json`` dumps the
counters/histograms; either flag also prints the terminal summary.
``--verbose`` prints that summary, with its events section (faults,
rollbacks, jit hand-overs, shard re-placements), and writes no
file.
"""

from __future__ import annotations

import argparse
import sys


def _options_from_flags(args) -> "CompilerOptions":
    from .pipeline import CompilerOptions
    from .runtime import DEFAULT_EXECUTOR

    return CompilerOptions(
        fusion=not args.no_fusion,
        coalescing=not args.no_coalescing,
        tiling=not args.no_tiling,
        interchange=not args.no_interchange,
        memory_planning=not args.no_memory_planning,
        executor=getattr(args, "executor", DEFAULT_EXECUTOR),
        disabled_passes=tuple(args.disable_pass or ()),
    )


def _add_opt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-fusion", action="store_true")
    p.add_argument("--no-coalescing", action="store_true")
    p.add_argument("--no-tiling", action="store_true")
    p.add_argument("--no-interchange", action="store_true")
    p.add_argument(
        "--no-memory-planning",
        action="store_true",
        help="ablation: keep the naive never-free allocation behaviour "
        "(no liveness frees, no block reuse, no copy elision)",
    )
    p.add_argument(
        "--disable-pass",
        action="append",
        metavar="NAME",
        default=None,
        help="skip one optional pass by name (repeatable; 'repro "
        "passes' lists them; disabling a mandatory pass is an error)",
    )


def _add_executor_flag(p: argparse.ArgumentParser) -> None:
    """Only on the commands that execute kernels (``compile`` and
    ``run`` price a program, they run none)."""
    from .runtime import DEFAULT_EXECUTOR, EXECUTORS

    p.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=DEFAULT_EXECUTOR,
        help="kernel engine: kernels transpiled to specialized NumPy "
        "code (jit), or the scalar interpreter per launch (sim, the "
        "cost oracle)",
    )


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome/Perfetto trace.json of the run",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a JSON dump of all runtime metrics",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print the trace summary, events included, to stderr "
        "(writes no file)",
    )


def cmd_compile(args) -> int:
    from .core.pretty import pretty_prog
    from .errors import ArgumentError
    from .pipeline import ArtifactCache, compile_source

    if args.emit == "opencl" and args.stop_after == "core":
        raise ArgumentError(
            "--emit opencl renders the host program, which --stop-after "
            "core does not build (use --emit core, or stop after host)"
        )
    text = open(args.file).read()
    cache = (
        ArtifactCache(args.artifact_dir)
        if args.artifact_dir is not None
        else None
    )
    compiled = compile_source(
        text,
        _options_from_flags(args),
        artifact_cache=cache,
        stop_after=args.stop_after,
    )
    if args.emit == "core" or args.stop_after == "core":
        print(pretty_prog(compiled.core))
    else:
        print(compiled.opencl())
    if compiled.from_artifact:
        print(
            f"// resumed from {compiled.from_artifact} artifact "
            f"{compiled.fingerprints[compiled.from_artifact][:12]}",
            file=sys.stderr,
        )
    if compiled.fusion_stats:
        print(
            f"// fusion: {compiled.fusion_stats.vertical} vertical, "
            f"{compiled.fusion_stats.horizontal} horizontal",
            file=sys.stderr,
        )
    return 0


def cmd_check(args) -> int:
    from .checker import CheckError, check_program
    from .frontend import ParseError, parse
    from .frontend.desugar import DesugarError

    text = open(args.file).read()
    try:
        check_program(parse(text))
    except (CheckError, ParseError, DesugarError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    print(f"{args.file}: OK")
    return 0


def cmd_run(args) -> int:
    from .core.types import Array
    from .errors import ArgumentError
    from .gpu.device import AMD_W8100, NVIDIA_GTX780TI, resolve_profile
    from .pipeline import compile_source

    devices = (
        (resolve_profile(args.device_profile),)
        if args.device_profile
        else (NVIDIA_GTX780TI, AMD_W8100)
    )
    text = open(args.file).read()
    compiled = compile_source(text, _options_from_flags(args))
    # The sizes ``costmodel.size_env_from_args`` would bind from actual
    # arguments: array dimensions and integral scalar parameters.
    known = {}
    for p in compiled.host.params:
        if isinstance(p.type, Array):
            known.update((d, None) for d in p.type.shape if isinstance(d, str))
        elif p.type.t.is_integral:
            known[p.name] = None
    sizes = {}
    for item in args.size or []:
        name, _, value = item.partition("=")
        if name not in known or not value.isdecimal() or int(value) < 1:
            raise ArgumentError(
                f"--size {item}: expected NAME=VALUE, VALUE a positive "
                f"integer and NAME one of this program's sizes "
                f"({', '.join(known) or 'it has none'})"
            )
        sizes[name] = int(value)
    missing = [name for name in known if name not in sizes]
    if missing:
        print(
            f"sizes not given, priced as 1: {', '.join(missing)}",
            file=sys.stderr,
        )
    for device in devices:
        report = compiled.estimate(sizes, device)
        print(
            f"{device.name}: {report.total_ms:10.3f} ms "
            f"({report.launches:.0f} launches, "
            f"transpositions {report.manifest_us / 1000:.3f} ms)"
        )
    return 0


def _benchmark_names(args):
    """``--names`` as a list (None when not given); a name the suite
    does not have is caller misuse."""
    from .bench.suite import BENCHMARKS
    from .errors import ArgumentError

    names = args.names.split(",") if args.names else None
    for name in names or ():
        if name not in BENCHMARKS.names():
            raise ArgumentError(
                f"unknown benchmark {name!r} (valid names: "
                f"{', '.join(BENCHMARKS.names())})"
            )
    return names


def cmd_bench(args) -> int:
    from .bench.pinned import PINNED
    from .bench.suite import BENCHMARKS
    from .errors import ArgumentError

    names = _benchmark_names(args)
    what = args.what
    pinned = PINNED.get(what)
    # A flag either reaches what runs or is caller misuse, never
    # silently ignored.  A pinned row reads the row filter, the
    # observability session, --out and the flags its table entry
    # names; ``validate`` everything but --kind and --out.
    defaults = vars(build_parser().parse_args(["bench", what]))
    reads = (
        {"names", "trace_out", "metrics_out", "verbose", "out", *pinned.flags}
        if pinned is not None
        else set(defaults) - {"kind", "out"}
    )
    for flag, default in defaults.items():
        if flag not in reads and getattr(args, flag) != default:
            raise ArgumentError(
                f"bench {what} does not read --{flag.replace('_', '-')}"
            )
    if pinned is not None:
        flags = {flag: getattr(args, flag) for flag in pinned.flags}
        results = pinned.suite(names=names, **flags)
        print("\n".join(pinned.render(results)))
        out = args.out or pinned.out.format(**flags)
        if names is not None and args.out is None:
            # The committed file holds every row: only a full run
            # writes it.
            print(
                f"--names selects a subset: {out} not written "
                "(pass --out to write one)",
                file=sys.stderr,
            )
            return 0
        with open(out, "w") as f:
            f.write(pinned.dump(results))
        print(f"wrote {out}", file=sys.stderr)
        return 0

    from .bench.runner import validate_benchmark
    from .gpu.faults import FaultPlan, chaos_plans
    from .runtime import ExecutionPolicy

    profiles = {
        "fatal": dict(launch_failure_rate=1.0, fatal_rate=1.0),
        "timeout": dict(
            timeout_rate=1.0, max_consecutive=1_000_000_000
        ),
    }
    fault_plan = None
    if args.chaos:
        fault_plan = (
            chaos_plans(args.seed, 1)[0]
            if args.chaos_profile == "mixed"
            else FaultPlan(seed=args.seed, **profiles[args.chaos_profile])
        )
    policy = (
        ExecutionPolicy(fallback=False, executor=args.executor)
        if args.no_fallback
        else None
    )
    for name in names or list(BENCHMARKS.names()):
        report = validate_benchmark(
            name,
            seed=args.seed,
            fault_plan=fault_plan,
            policy=policy,
            options=_options_from_flags(args),
        )
        print(f"{name}: OK  {report.summary()}")
        for t in report.pass_timings:
            print(f"  {t}")
    return 0


def cmd_passes(args) -> int:
    """Print every pass in plan order, with its stage, whether it is
    enabled under the options the given flags produce, and whether it
    is mandatory."""
    from .pipeline import PASSES, plan

    options = _options_from_flags(args)
    enabled = plan(options)  # rejects a bad --disable-pass name
    rows = [
        (
            p.name,
            p.stage,
            "yes" if p in enabled else "no",
            "" if p.optional else "mandatory",
        )
        for p in PASSES
    ]
    widths = [
        max(len(r[i]) for r in rows + [_PASSES_HEADER])
        for i in range(len(_PASSES_HEADER))
    ]
    try:
        for row in [_PASSES_HEADER] + rows:
            print(
                "  ".join(
                    cell.ljust(w) for cell, w in zip(row, widths)
                ).rstrip()
            )
    except BrokenPipeError:  # `repro passes | head` closed the pipe
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


_PASSES_HEADER = ("pass", "stage", "enabled", "")


def cmd_obs(args) -> int:
    """Post-mortem tooling over observability artefacts: replay a
    flight-recorder bundle in the terminal."""
    from .obs.export import validate_flight_bundle
    from .obs.flight import read_bundle, render_bundle

    bundle = read_bundle(args.file)
    errors = validate_flight_bundle(bundle)
    if errors:
        for e in errors:
            print(f"invalid bundle: {e}", file=sys.stderr)
        return 1
    print(render_bundle(bundle, top=args.limit))
    return 0


def cmd_serve_bench(args) -> int:
    """Hammer the serving layer with concurrent clients and print the
    health report — the CLI face of the service chaos/saturation
    suites in ``tests/serve/``."""
    import json
    import threading

    import numpy as np

    from .bench.suite import BENCHMARKS
    from .errors import ArgumentError
    from .gpu.device import parse_pool_spec
    from .gpu.faults import chaos_plans
    from .serve import Server, ServeRequest

    names = _benchmark_names(args) or list(BENCHMARKS.names())
    if args.flight_dir is None:
        defaults = build_parser().parse_args(["serve-bench"])
        for flag in ("slo_ms", "flight_capacity"):
            if getattr(args, flag) != getattr(defaults, flag):
                raise ArgumentError(
                    f"--{flag.replace('_', '-')} requires --flight-dir"
                )
    devices = parse_pool_spec(args.devices)
    fault_plans = (
        chaos_plans(args.seed, len(devices)) if args.chaos else None
    )
    recorder = None
    dump_failures = 0
    if args.flight_dir is not None:
        from .obs.flight import FlightRecorder

        recorder = FlightRecorder(
            capacity=args.flight_capacity,
            dump_dir=args.flight_dir,
            slo_latency_us=(
                args.slo_ms * 1e3 if args.slo_ms is not None else None
            ),
        )
    server = Server(
        queue_capacity=args.queue_capacity,
        options=_options_from_flags(args),
        flight_recorder=recorder,
        devices=devices,
        fault_plans=fault_plans,
    )
    specs = []
    with server:
        # The effective configuration, read back off the started server.
        pool = server.pool.devices
        breaker = pool[0].breaker
        config = [
            "devices "
            + ", ".join(f"dev{d.id} [{d.profile.name}]" for d in pool),
            f"workers {server.health()['workers']} (one per device)",
            f"queue capacity {server.queue.capacity}",
            f"executor {server.default_executor}",
            f"breaker {breaker.failure_threshold} failures / "
            f"{breaker.recovery_s:g} s",
            f"retries {server.pool.retries}",
            f"min shard {server.pool.planner.min_shard}",
        ]
        if args.chaos:
            config.append(
                "chaos seeds "
                + ", ".join(f"dev{d.id}={d.fault_plan.seed}" for d in pool)
            )
        print("config: " + "; ".join(config))
        for name in names:
            specs.append((name, server.load(BENCHMARKS[name].program())))

        outcomes = {"ok": 0, "shed": 0, "deadline": 0, "error": 0}
        backends = {}
        lock = threading.Lock()

        def client(cid: int) -> None:
            rng = np.random.default_rng(args.seed * 10_007 + cid)
            handles = []
            for k in range(args.requests_per_client):
                name, program = specs[(cid + k) % len(specs)]
                bargs = BENCHMARKS[name].small_args(rng)
                handles.append(
                    server.submit(
                        ServeRequest(
                            program,
                            bargs,
                            deadline_ms=args.deadline_ms,
                            request_id=f"c{cid}-r{k}-{name}",
                        )
                    )
                )
            for h in handles:
                r = h.result(timeout=120)
                with lock:
                    outcomes[r.status] += 1
                    if r.backend:
                        backends[r.backend] = backends.get(r.backend, 0) + 1

        threads = [
            threading.Thread(target=client, args=(cid,))
            for cid in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        health = server.health()

    total = sum(outcomes.values())
    print(
        f"{total} requests from {args.clients} clients: "
        f"{outcomes['ok']} ok, {outcomes['shed']} shed, "
        f"{outcomes['deadline']} deadline, {outcomes['error']} error"
    )
    print(f"backends: {backends}")
    for lane, stats in health["lanes"].items():
        if stats["count"]:
            print(
                f"{lane:12s} p50 {stats['p50_ms']:8.1f} ms   "
                f"p95 {stats['p95_ms']:8.1f} ms   "
                f"p99 {stats['p99_ms']:8.1f} ms   (n={stats['count']})"
            )
    pool = health["pool"]
    print(
        f"pool: {len(pool['devices'])} devices, "
        f"{pool['sharded']} sharded / {pool['whole']} whole, "
        f"{pool['shards_executed']} shards, "
        f"{pool['replacements']} replacements"
    )
    for d in pool["devices"]:  # each with its breaker
        b = d["breaker"]
        print(
            f"  dev{d['id']} [{d['profile']}]: "
            f"{d['executed']} ok / {d['failures']} failed, "
            f"busy {d['busy_us'] / 1e3:.1f}ms; breaker {b['state']} "
            f"({b['trips']} trips, {b['refusals']} refusals)"
        )
    if recorder is not None:
        stats = recorder.stats()
        print(
            f"flight recorder: {stats['occupancy']}/{stats['capacity']} "
            f"records held, {stats['dumps']} bundle(s) dumped"
        )
        for record in recorder.records():
            if record.dump_path:
                print(f"  {record.dump_trigger}: {record.dump_path}")
        dump_failures = stats["dump_failures"]
        if dump_failures:
            print(
                f"flight recorder: {dump_failures} bundle(s) could not be "
                f"written to {args.flight_dir}",
                file=sys.stderr,
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"outcomes": outcomes, "health": health}, f, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if outcomes["error"] == 0 and not dump_failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Futhark (PLDI 2017) reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a source file")
    p.add_argument("file")
    p.add_argument(
        "--emit", choices=("core", "opencl"), default=None,
        help="what to print (default: opencl, or core with --stop-after "
        "core)",
    )
    p.add_argument(
        "--stop-after",
        choices=("core", "host"),
        default=None,
        help="staged compilation: stop at the named stage frontier "
        "(core prints the optimised core IR; with --artifact-dir the "
        "stage artifact is persisted for later compiles to resume from)",
    )
    p.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="persistent stage-artifact cache directory: compiles "
        "resume from the deepest valid artifact found here and store "
        "their own stage frontiers (see also $REPRO_ARTIFACT_DIR)",
    )
    _add_opt_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("check", help="static checking only")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "passes",
        help="print the registered compiler passes (plan order, "
        "stage, enabled-under-flags, requirements)",
    )
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_passes)

    p = sub.add_parser("run", help="price a program on the simulated GPUs")
    p.add_argument("file")
    p.add_argument(
        "--size", action="append", metavar="NAME=VALUE",
        help="bind a size the entry point names (repeatable); one left "
        "out is priced as 1, or as 8 trips where it bounds a loop",
    )
    p.add_argument(
        "--device-profile", default=None,
        help="price on one named profile from "
        "repro.gpu.device.PROFILES (default: both paper GPUs)",
    )
    _add_opt_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="regenerate evaluation artefacts")
    p.add_argument(
        "what",
        # All but ``validate`` are ``repro.bench.pinned.PINNED``'s keys,
        # and ``--kind``'s choices its ``impact`` variants (a test holds
        # them equal; importing the table costs 60 ms of start-up).
        choices=("mem", "shard", "table1", "figure13", "table2", "impact",
                 "validate"),
    )
    p.add_argument(
        "--names", default=None,
        help="comma-separated benchmark subset (default: all; for "
        "bench impact, the ones the paper reports for --kind)",
    )
    p.add_argument(
        "--kind",
        default="fusion",
        choices=("fusion", "coalescing", "tiling", "inplace"),
        help="which optimisation bench impact ablates",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="dataset / fault-plan seed for bench validate/shard",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="run bench validate under an injected-fault plan",
    )
    p.add_argument(
        "--chaos-profile",
        choices=("mixed", "fatal", "timeout"),
        default="mixed",
        help="which fault mix --chaos injects: mixed transient faults, "
        "every launch a fatal fault, or every launch a watchdog "
        "timeout that never clears",
    )
    p.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the interpreter fallback so device failures "
        "surface as typed errors (and exit codes) instead",
    )
    p.add_argument(
        "--out", default=None,
        help="output file (default: the committed artefact the command "
        "regenerates)",
    )
    _add_opt_flags(p)
    _add_executor_flag(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "serve-bench",
        help="hammer the resilient serving layer with concurrent clients",
    )
    p.add_argument(
        "--clients", type=int, default=8,
        help="number of concurrent client threads",
    )
    p.add_argument(
        "--requests-per-client", type=int, default=4,
        help="requests each client submits",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request wall-clock deadline (default: none)",
    )
    p.add_argument(
        "--queue-capacity", type=int, default=32,
        help="admission queue bound (beyond it, requests are shed)",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="inject seeded per-device faults (device i's seed is "
        "--seed + 1000003 * i)",
    )
    p.add_argument(
        "--devices", default="1",
        help="the simulated device pool requests run on: a count "
        "('4'), profile names ('gtx780ti,w8100'), or counted profiles "
        "('2xbig,2xsmall'); see repro.gpu.device.PROFILES (default: "
        "one gtx780ti)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--names", default=None,
        help="comma-separated benchmark subset (default: all)",
    )
    p.add_argument(
        "--out", default=None,
        help="write outcome counts and the health report as JSON",
    )
    p.add_argument(
        "--flight-dir", default=None,
        help="enable the flight recorder; failing requests dump "
        "Perfetto-loadable flightrec-<id>.json bundles here",
    )
    p.add_argument(
        "--flight-capacity", type=int, default=64,
        help="flight-recorder ring capacity (records retained; "
        "requires --flight-dir)",
    )
    p.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency SLO; requests slower than this also dump a "
        "flight bundle (requires --flight-dir)",
    )
    _add_opt_flags(p)
    _add_executor_flag(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_serve_bench)

    p = sub.add_parser(
        "obs",
        help="inspect observability artefacts (flight bundles)",
    )
    p.add_argument(
        "action", choices=("replay",),
        help="replay: render a flight-recorder bundle",
    )
    p.add_argument("file", help="flightrec-<id>.json bundle to replay")
    p.add_argument(
        "--limit", type=int, default=10,
        help="rows per table",
    )
    p.set_defaults(fn=cmd_obs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import ReproError, exit_code_for

    try:
        return _dispatch_observed(args)
    except ReproError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return exit_code_for(ex)


def _dispatch_observed(args) -> int:
    """Run the selected command, wrapped in an observability session
    when any of the ``--trace-out``/``--metrics-out``/``--verbose``
    flags were given; each prints the session's summary to stderr."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not (trace_out or metrics_out or getattr(args, "verbose", False)):
        return args.fn(args)

    from .obs import observe
    from .obs.export import summary, write_chrome_trace, write_metrics

    with observe() as session:
        session.tracer.metadata["argv"] = " ".join(sys.argv[1:])
        rc = args.fn(args)
    if trace_out:
        write_chrome_trace(session.tracer, trace_out)
        print(f"trace written to {trace_out}", file=sys.stderr)
    if metrics_out:
        write_metrics(
            session.metrics,
            metrics_out,
            metadata={"argv": " ".join(sys.argv[1:])},
        )
        print(f"metrics written to {metrics_out}", file=sys.stderr)
    print(summary(session.tracer, session.metrics), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
