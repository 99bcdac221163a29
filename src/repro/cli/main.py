"""``repro`` command-line interface.

Every command works on either freshly generated traces (``--seed/--days/
--scale/--regions``) or a directory of saved bundles (``--load``), so the
whole paper reproduction is drivable without writing Python.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from repro.analysis.report import format_table
from repro.obs import telemetry as obs
from repro.runtime.faults import (
    FAULT_KINDS,
    FAULTS_ENV,
    SHARD_RETRIES_ENV,
    SHARD_TIMEOUT_ENV,
    FaultPlan,
)
from repro.runtime.executor import DEFAULT_SHARD_RETRIES
from repro.core.findings import extract_findings
from repro.core.study import StreamingTraceStudy, TraceStudy
from repro.trace.hashing import IdHasher
from repro.trace.io import load_bundle, save_bundle
from repro.trace.validate import validate_bundle
from repro.viz import figures as viz_figures
from repro.workload.calibration import calibration_passed, check_calibration
from repro.workload.generator import generate_multi_region
from repro.workload.regions import REGION_NAMES

_DEFAULT_REGIONS = ",".join(REGION_NAMES)


def _positive_int(flag: str):
    def parse(value: str) -> int:
        count = int(value)
        if count < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be >= 1")
        return count

    return parse


def _chunk_days_arg(value: str) -> int:
    days = int(value)
    if days < 0:
        raise argparse.ArgumentTypeError("--chunk-days must be >= 0 (0 = whole horizon)")
    return days


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_argument_group("dataset")
    source.add_argument(
        "--load",
        metavar="DIR",
        help="load bundles saved by 'repro generate' instead of generating",
    )
    source.add_argument("--regions", default=_DEFAULT_REGIONS,
                        help=f"comma-separated region names (default {_DEFAULT_REGIONS})")
    source.add_argument("--seed", type=int, default=0, help="RNG root seed")
    source.add_argument("--days", type=int, default=31,
                        help="trace horizon in days (the paper spans 31)")
    source.add_argument("--scale", type=float, default=0.2,
                        help="function-count scale factor (rates stay real)")
    runtime = parser.add_argument_group("runtime (sharded execution)")
    runtime.add_argument("--jobs", "-j", type=_positive_int("--jobs"), default=1,
                         metavar="N",
                         help="worker processes for sharded execution "
                              "(default 1 = in-process)")
    runtime.add_argument("--chunk-days", type=_chunk_days_arg, default=0, metavar="D",
                         help="shard each region's horizon into D-day windows "
                              "(bounded memory per worker; 0 = whole horizon)")
    runtime.add_argument("--channel", choices=("pickle", "shm"), default="pickle",
                         help="shard-result transport for --jobs > 1: pickle "
                              "(default) ships results through the pool pipe; "
                              "shm parks their arrays in shared-memory blocks "
                              "(pickle-free, for very large shards). Never "
                              "changes results, only how they travel")
    runtime.add_argument("--shard-timeout", type=float, default=None, metavar="S",
                         help="wall-clock seconds a shard may run without a "
                              "heartbeat before the supervisor declares it "
                              "hung, rebuilds the pool, and retries it "
                              "(default: no timeout)")
    runtime.add_argument("--shard-retries", type=int, default=None, metavar="N",
                         help="re-executions a failed shard gets before the "
                              "run aborts with a ShardError (default "
                              f"{DEFAULT_SHARD_RETRIES}; retried shards are "
                              "bit-identical, so results never change)")
    runtime.add_argument("--inject-faults", default=None, metavar="SPEC",
                         help="fault-injection plan for the sharded runtime, "
                              "e.g. 'crash@1' or 'hang@*=5,raise@2*2' "
                              "(KIND@TARGET[*TIMES][=VALUE]; kinds: "
                              f"{', '.join(FAULT_KINDS)}). Testing aid: a "
                              "recovered run is bit-identical to a fault-free "
                              "one")
    profiling = parser.add_argument_group("profiling")
    profiling.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="PATH",
        help="collect telemetry (counters, phase spans, memory high-water) "
             "and write a versioned profile JSON plus a Chrome trace-event "
             "companion (PATH.trace.json, loadable in Perfetto). PATH "
             "defaults to profile_<command>.json. Inspect with "
             "'repro profile PATH'. Never changes results",
    )


def _load_study(args: argparse.Namespace):
    """Build the study a command works on.

    ``--stream`` (analyze/figures) computes everything through the
    chunk-incremental accumulators — no full bundle ever exists in memory.
    A ``--load`` directory of npz-chunk subdirectories (written by
    ``repro generate --format npz-chunks``) streams lazily; for commands
    without streaming support it is materialised via
    :func:`load_chunked_bundle`.
    """
    stream = bool(getattr(args, "stream", False))
    if args.load:
        root = Path(args.load)
        directories = sorted(p for p in root.iterdir() if p.is_dir())
        if not directories:
            raise SystemExit(f"no bundles found under {root}")
        if stream:
            # Chunk directories stream lazily; plain bundle directories are
            # loaded once and reduced chunk by chunk — one directory per
            # worker, honouring --jobs/--channel. Same-region accumulators
            # (horizon splits) merge instead of shadowing.
            from repro.core.study import _merge_by_region
            from repro.runtime.executor import (
                ParallelExecutor,
                run_directory_analysis,
            )

            accs = ParallelExecutor(jobs=args.jobs, channel=args.channel).run(
                run_directory_analysis, directories
            )
            return StreamingTraceStudy(_merge_by_region(accs))
        bundles = {}
        for directory in directories:
            if (directory / "manifest.json").is_file():
                from repro.runtime.stream import load_chunked_bundle

                bundle = load_chunked_bundle(directory)
            else:
                bundle = load_bundle(directory)
            bundles[bundle.region] = bundle
        return TraceStudy(bundles)
    regions = tuple(name.strip() for name in args.regions.split(",") if name.strip())
    cls = StreamingTraceStudy if stream else TraceStudy
    # Monotonic span timing (perf_counter underneath) instead of wall-clock
    # time.time(); when --profile is active the span also lands in the
    # profile as cli/<command>/load_study.
    with obs.get_telemetry().span("load_study") as span:
        study = cls.generate(
            regions=regions, seed=args.seed, days=args.days, scale=args.scale,
            jobs=args.jobs, chunk_days=args.chunk_days or None,
            channel=args.channel,
        )
    mode = "streamed" if stream else "generated"
    print(f"{mode} {len(regions)} region(s) in {span.elapsed:.1f}s "
          f"(jobs={args.jobs})",
          file=sys.stderr)
    return study


# --- commands ------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    regions = tuple(name.strip() for name in args.regions.split(",") if name.strip())
    if args.format == "npz-chunks":
        return _generate_chunked(args, regions)
    bundles = generate_multi_region(
        regions, seed=args.seed, days=args.days, scale=args.scale,
        jobs=args.jobs, chunk_days=args.chunk_days or None,
        channel=args.channel,
    )
    out_root = Path(args.output)
    hasher = IdHasher(salt=str(args.seed)) if args.anonymize else None
    rows = []
    for name, bundle in bundles.items():
        directory = save_bundle(bundle, out_root / name, hasher=hasher,
                                fmt=args.format)
        row = {"region": name, "path": str(directory)}
        row.update(bundle.summary())
        rows.append(row)
    print(format_table(rows))
    return 0


def _generate_chunked(args: argparse.Namespace, regions: tuple[str, ...]) -> int:
    """Stream window bundles straight to npz-chunk directories.

    Peak memory is one day-window per in-flight worker — the path for
    generating traces larger than RAM. The output directories feed
    ``repro analyze/figures --stream`` (or any ``--load``).
    """
    from repro.runtime import ChunkedBundleWriter, ShardPlan, StreamingSummary
    from repro.runtime.stream import stream_generation

    if args.anonymize:
        raise SystemExit("--anonymize is not supported with --format npz-chunks")
    plan = ShardPlan.for_generation(
        regions=tuple(dict.fromkeys(regions)), seed=args.seed, days=args.days,
        chunk_days=args.chunk_days or None, scale=args.scale,
    )
    out_root = Path(args.output)
    writers: dict[str, ChunkedBundleWriter] = {}
    summaries: dict[str, StreamingSummary] = {}
    for spec, bundle in stream_generation(plan, jobs=args.jobs, channel=args.channel):
        writer = writers.get(spec.region)
        if writer is None:
            writer = writers[spec.region] = ChunkedBundleWriter(
                out_root / spec.region, region=spec.region
            )
            summaries[spec.region] = StreamingSummary()
        writer.append_bundle(bundle)
        summaries[spec.region].update_bundle(bundle)
    rows = []
    for name in writers:
        path = writers[name].close(
            meta={"seed": args.seed, "days": args.days, "scale": args.scale,
                  "start_day": 0}
        )
        row = {"region": name, "path": str(path.parent)}
        row.update(summaries[name].result())
        rows.append(row)
    print(format_table(rows))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    study = _load_study(args)
    rows = study.fig01_region_sizes()
    print("== dataset overview (Fig. 1 axes) ==")
    print(format_table(rows))
    print()
    print("== paper findings re-derived from this dataset ==")
    findings = extract_findings(study)
    print(format_table([finding.summary_row() for finding in findings]))
    return 0 if all(f.supported for f in findings) else 1


def cmd_figures(args: argparse.Namespace) -> int:
    study = _load_study(args)
    wanted = args.figure or sorted(viz_figures.FIGURES)
    unknown = [fig_id for fig_id in wanted if fig_id not in viz_figures.FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figures {unknown}; available: {sorted(viz_figures.FIGURES)}"
        )
    out_dir = Path(args.output) if args.output else None
    for fig_id in wanted:
        text = viz_figures.render(fig_id, study)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{fig_id}.txt").write_text(text + "\n")
            print(f"wrote {out_dir / f'{fig_id}.txt'}", file=sys.stderr)
        else:
            print(text)
            print()
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    study = _load_study(args)
    lognormal = study.fig10_lognormal_fit()
    weibull = study.fig10_weibull_fit()
    rows = [
        {
            "distribution": "LogNormal (cold-start time)",
            "param1": f"mean={lognormal.mean:.3f}s",
            "param2": f"std={lognormal.std:.3f}s",
            "paper": "mean=3.24 std=7.10",
            "ks": round(lognormal.ks_statistic, 4),
            "n": lognormal.n,
        },
        {
            "distribution": "Weibull (cold-start IAT)",
            "param1": f"k={weibull.k:.3f}",
            "param2": f"lambda={weibull.lam:.3f}",
            "paper": "mean=1.25 std=3.66",
            "ks": round(weibull.ks_statistic, 4),
            "n": weibull.n,
        },
    ]
    print(format_table(rows))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    study = _load_study(args)
    all_ok = True
    for name in study.regions:
        report = validate_bundle(study.region(name), keepalive_s=args.keepalive)
        status = "OK" if report.ok else "FAILED"
        print(f"== {name}: {report.checks_run} checks, {status} ==")
        if report.violations:
            print(format_table(report.summary_rows()))
        all_ok &= report.ok
    return 0 if all_ok else 1


#: Mitigation policies runnable from the CLI, with their §5 labels. All of
#: them — coupled tick-phase policies included — replay bit-identically on
#: either engine.
_MITIGATION_POLICIES = ("baseline", "timer-prewarm", "histogram-prewarm",
                        "dynamic-keepalive", "peak-shaving")


#: Default function groups per mitigation run. Fixed (never derived from
#: --jobs) so any worker count replays the identical shard plan and merges
#: to identical headline metrics.
_EVAL_GROUPS = 8


def cmd_mitigate(args: argparse.Namespace) -> int:
    if args.chunk_days:
        print(
            "note: --chunk-days shards trace *generation*; mitigate shards by "
            "function group and ignores it",
            file=sys.stderr,
        )
    if args.stream:
        if args.policy:
            print(
                "note: --stream replays routing policies (--route), not "
                "-p/--policy mitigation policies; ignoring -p",
                file=sys.stderr,
            )
        return _mitigate_stream(args)
    from repro.runtime import evaluate_policies

    region = args.regions.split(",")[0].strip()
    wanted = args.policy or list(_MITIGATION_POLICIES)
    unknown = [p for p in wanted if p not in _MITIGATION_POLICIES]
    if unknown:
        raise SystemExit(f"unknown policies {unknown}; available: {_MITIGATION_POLICIES}")

    merged = evaluate_policies(
        region,
        wanted,
        seed=args.seed,
        days=args.days,
        scale=args.scale,
        jobs=args.jobs,
        n_groups=args.eval_shards,
        channel=args.channel,
        engine=args.engine,
    )
    first = next(iter(merged.values()))
    print(
        f"replayed {first.requests} {region} requests per policy "
        f"({args.eval_shards} function-group shard(s), jobs={args.jobs}, "
        f"channel={args.channel}, engine={args.engine})",
        file=sys.stderr,
    )
    rows = [merged[policy].summary() for policy in wanted]
    print(format_table(rows))
    return 0


def _mitigate_stream(args: argparse.Namespace) -> int:
    """Sharded cross-region replay: the bounded-memory mitigation surface.

    Function-group shards stream their merged :class:`EvalMetrics` back in
    plan order (optionally through the shared-memory channel), so the
    parent never holds more than the running merge plus one in-flight
    shard — the mitigation counterpart of ``analyze --stream``.
    """
    from repro.runtime import evaluate_cross_region

    home = args.regions.split(",")[0].strip()
    # dedupe: repeated names would build independent evaluator states (and
    # therefore doubled warm capacity) for the same region
    remotes = tuple(dict.fromkeys(
        name.strip() for name in args.remotes.split(",")
        if name.strip() and name.strip() != home
    ))
    if not remotes:
        raise SystemExit(
            f"--stream needs at least one remote region distinct from the "
            f"home region {home!r} (got --remotes {args.remotes!r})"
        )
    routes = args.route or ["best-region"]
    rows = []
    for route in routes:
        result = evaluate_cross_region(
            home,
            remotes=remotes,
            policy=route,
            seed=args.seed,
            days=args.days,
            scale=args.scale,
            jobs=args.jobs,
            n_groups=args.eval_shards,
            rtt_s=args.rtt,
            keepalive_s=args.keepalive,
            channel=args.channel,
            engine=args.engine,
        )
        row = result.metrics.summary()
        row["remote_share"] = round(result.remote_share, 4)
        rows.append(row)
    print(
        f"replayed {rows[0]['requests']} {home} requests against "
        f"{','.join(remotes)} per route ({args.eval_shards} function-group "
        f"shard(s), jobs={args.jobs}, channel={args.channel}, "
        f"engine={args.engine})",
        file=sys.stderr,
    )
    print(format_table(rows))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import render_report, validate_profile

    path = Path(args.path)
    if not path.is_file():
        raise SystemExit(f"no profile at {path}")
    try:
        doc = validate_profile(json.loads(path.read_text()))
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}") from exc
    print(render_report(doc))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    study = _load_study(args)
    results = check_calibration(study)
    print(format_table([result.summary_row() for result in results]))
    passed = calibration_passed(results)
    print()
    print(f"{sum(r.passed for r in results)}/{len(results)} shape targets hold")
    return 0 if passed else 1


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Serverless Cold Starts and Where to "
            "Find Them' (EuroSys '25)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesise per-region traces and save them"
    )
    _add_dataset_arguments(generate)
    generate.add_argument("--output", "-o", required=True, metavar="DIR",
                          help="directory receiving one subdirectory per region")
    generate.add_argument("--anonymize", action="store_true",
                          help="hash all ids on export (one-way, like the release)")
    generate.add_argument("--format", choices=("csv", "npz", "npz-chunks"),
                          default="csv",
                          help="on-disk table format (npz: fast binary round "
                               "trip; csv: the release's text format; "
                               "npz-chunks: bounded-memory part files for "
                               "streamed analysis)")
    generate.set_defaults(func=cmd_generate)

    analyze = commands.add_parser(
        "analyze", help="overview and re-derived paper findings"
    )
    _add_dataset_arguments(analyze)
    analyze.add_argument("--stream", action="store_true",
                         help="compute through chunk-incremental accumulators "
                              "(bounded memory; CDF quantiles to one bin)")
    analyze.set_defaults(func=cmd_analyze)

    figures = commands.add_parser("figures", help="render paper figures as ASCII")
    _add_dataset_arguments(figures)
    figures.add_argument("--figure", "-f", action="append", metavar="figNN",
                         help="figure id (repeatable); default: all")
    figures.add_argument("--output", "-o", metavar="DIR",
                         help="write figN.txt files instead of stdout")
    figures.add_argument("--stream", action="store_true",
                         help="render from chunk-incremental accumulators "
                              "(bounded memory; CDF quantiles to one bin)")
    figures.set_defaults(func=cmd_figures)

    fit = commands.add_parser(
        "fit", help="fit the paper's LogNormal/Weibull distributions"
    )
    _add_dataset_arguments(fit)
    fit.set_defaults(func=cmd_fit)

    validate = commands.add_parser(
        "validate", help="integrity-check trace bundles"
    )
    _add_dataset_arguments(validate)
    validate.add_argument("--keepalive", type=float, default=60.0,
                          help="keep-alive seconds used by consistency checks")
    validate.set_defaults(func=cmd_validate)

    calibrate = commands.add_parser(
        "calibrate", help="check traces against the paper's shape targets"
    )
    _add_dataset_arguments(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    mitigate = commands.add_parser(
        "mitigate", help="replay a region under the §5 mitigation policies"
    )
    _add_dataset_arguments(mitigate)
    mitigate.add_argument("--policy", "-p", action="append",
                          metavar="NAME", help="policy name (repeatable); default: all")
    mitigate.add_argument("--eval-shards", type=_positive_int("--eval-shards"),
                          default=_EVAL_GROUPS,
                          metavar="G",
                          help="function-group shards per replay (fixed per "
                               "run, so any --jobs merges identically; 1 "
                               "reproduces the unsharded evaluator exactly)")
    mitigate.add_argument("--engine", choices=("vector", "event"),
                          default="vector",
                          help="replay engine: vector (structure-of-arrays "
                               "walks; coupled tick-phase policies replay "
                               "tick-partitioned; default) or event "
                               "(sequential reference loop). Bit-identical "
                               "metrics either way — only wall-clock changes")
    stream = mitigate.add_argument_group("streaming cross-region replay")
    stream.add_argument("--stream", action="store_true",
                        help="replay through the sharded cross-region "
                             "evaluator: shards stream merged metrics back "
                             "in plan order (bounded parent memory; combine "
                             "with --channel shm for a pickle-free return "
                             "path)")
    stream.add_argument("--remotes", default="R3", metavar="R,...",
                        help="comma-separated remote regions cold starts may "
                             "be placed in (default R3)")
    stream.add_argument("--route", action="append",
                        choices=("home-only", "best-region"),
                        help="routing policy (repeatable; default "
                             "best-region)")
    stream.add_argument("--rtt", type=float, default=None, metavar="S",
                        help="inter-region round trip in seconds (default: "
                             "the platform's 0.120)")
    stream.add_argument("--keepalive", type=float, default=60.0, metavar="S",
                        help="pod keep-alive seconds for the replay "
                             "(default 60)")
    mitigate.set_defaults(func=cmd_mitigate)

    profile = commands.add_parser(
        "profile", help="summarise a profile JSON written by --profile"
    )
    profile.add_argument("path", metavar="PROFILE.json",
                         help="profile document written by any command's "
                              "--profile flag")
    profile.set_defaults(func=cmd_profile)

    return parser


@contextlib.contextmanager
def _supervision_env(args: argparse.Namespace):
    """Export the supervision flags as env vars for the dispatch.

    Commands build :class:`~repro.runtime.executor.ParallelExecutor`
    instances several layers down (study, generator, stream); rather than
    threading three parameters through every call site, the executor's
    constructor reads ``REPRO_INJECT_FAULTS`` / ``REPRO_SHARD_TIMEOUT`` /
    ``REPRO_SHARD_RETRIES`` as fallbacks. Prior
    values are restored on exit so ``main()`` stays re-entrant for tests.
    """
    pairs: list[tuple[str, str]] = []
    spec = getattr(args, "inject_faults", None)
    if spec is not None:
        try:
            FaultPlan.parse(spec)
        except ValueError as exc:
            raise SystemExit(f"--inject-faults: {exc}") from exc
        pairs.append((FAULTS_ENV, spec))
    timeout = getattr(args, "shard_timeout", None)
    if timeout is not None:
        if timeout <= 0:
            raise SystemExit("--shard-timeout must be > 0 seconds")
        pairs.append((SHARD_TIMEOUT_ENV, repr(timeout)))
    retries = getattr(args, "shard_retries", None)
    if retries is not None:
        if retries < 0:
            raise SystemExit("--shard-retries must be >= 0")
        pairs.append((SHARD_RETRIES_ENV, str(retries)))
    saved = {name: os.environ.get(name) for name, _ in pairs}
    for name, value in pairs:
        os.environ[name] = value
    try:
        yield
    finally:
        for name, previous in saved.items():
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _supervision_env(args):
        return _dispatch(args, argv)


def _dispatch(args: argparse.Namespace, argv: list[str] | None) -> int:
    profile_to = getattr(args, "profile", None)
    if profile_to is None:
        return args.func(args)
    from repro.obs.profile import (
        build_profile,
        write_chrome_trace,
        write_profile,
    )

    tel = obs.enable(track="main")
    try:
        with tel.span(f"cli/{args.command}"):
            status = args.func(args)
        tel.sample_memory()
        snapshot = tel.snapshot()
    finally:
        obs.disable()
    meta = {"command": args.command,
            "argv": list(argv) if argv is not None else sys.argv[1:]}
    for key in ("jobs", "channel", "engine", "seed", "days", "scale",
                "shard_timeout", "shard_retries", "inject_faults"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    doc = build_profile(snapshot, meta)
    path = Path(profile_to) if profile_to else Path(f"profile_{args.command}.json")
    write_profile(doc, path)
    trace = write_chrome_trace(doc, path.with_suffix(".trace.json"))
    print(f"profile: {path} (trace: {trace})", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
