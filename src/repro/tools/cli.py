"""Command-line driver: compile, run, and auto-tune Fortran programs on
the simulated V-Bus cluster.

Usage::

    python -m repro compile PROG.f [--nprocs 4] [--granularity fine]
                                   [--show fortran|plan|log|avpg ...]
    python -m repro run     PROG.f [--nprocs 4] [--granularity fine]
                                   [--backend vbus] [--timing]
                                   [--arrays A,B] [--tune-plan PLAN.json]
                                   [--sanitize]
    python -m repro check   PROG.f [--nprocs 4] [--granularity fine]
                                   [--cache-dir DIR] [--no-cache]
    python -m repro trace   PROG.f [--nprocs 4] [--backend vbus]
                                   [--timing] [--out PREFIX]
    python -m repro autotune PROG.f [--nprocs 4] [--metric comm]
                                    [--backend vbus] [--per-region]
                                    [--plan-out PLAN.json]
                                    [--calibration CAL.json]
    python -m repro calibrate [--backend gige] [--nprocs 4]
                              [-o CAL.json] [--cache-dir DIR] [--no-cache]
    python -m repro sweep   GRID.json [--jobs N] [-o OUT.jsonl]
                                      [--cache-dir DIR] [--no-cache]

``PROG.f`` may also be a workload spec like ``MM-256`` or ``SWIM-64x2``
(the grammar of docs/SWEEP.md) when no such file exists.

``trace`` runs with the observability layer attached and writes
``PREFIX.trace.json`` (Chrome ``trace_event`` JSON — load it at
https://ui.perfetto.dev) plus ``PREFIX.metrics.json`` /
``PREFIX.metrics.csv``; the schema is documented in
``docs/TRACE_FORMAT.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.bugseed import BugSeedError
from repro.compiler.postpass.granularity import GRAINS
from repro.compiler.postpass.partition import PartitionError
from repro.faults.plan import FaultPlan
from repro.mpi2.exceptions import MpiFaultError
from repro.obs.export import (
    timeline_summary,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.runtime.executor import run_program, run_sequential
from repro.tools.autotune import choose_granularity
from repro.tools.tuneplan import DEFAULT_EPSILON, METRICS
from repro.vbus.params import BACKENDS, backend_params

__all__ = ["main"]


class _CliError(Exception):
    """A user-facing CLI failure: printed to stderr, exit status 2.

    Raised instead of letting artifact-loading errors (missing or
    malformed JSON plans) escape as tracebacks — the same discipline
    ``PartitionError`` already gets in :func:`main`.
    """


def _load_artifact(loader, path: str, what: str):
    """Load a JSON artifact, turning I/O and schema errors into
    :class:`_CliError` (``FileNotFoundError`` is an ``OSError``;
    ``json.JSONDecodeError`` is a ``ValueError``)."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise _CliError(f"{what}: cannot load {path!r}: {exc}")


def _nprocs(value: str) -> int:
    """argparse type for --nprocs: a cluster size of at least 1."""
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _epsilon(value: str) -> float:
    """argparse type for --epsilon: a relative margin in [0, 1)."""
    eps = float(value)
    if not 0.0 <= eps < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {eps}")
    return eps


def _partition_spec(value: str) -> str:
    """argparse type for --partition: auto or a concrete strategy spec."""
    if value == "auto":
        return value
    from repro.compiler.postpass.partition import parse_strategy

    try:
        parse_strategy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "source",
        help="Fortran 77 source file, or a workload spec like MM-256",
    )
    p.add_argument("--nprocs", type=_nprocs, default=4, help="cluster size")
    p.add_argument(
        "--granularity",
        choices=GRAINS,
        default="fine",
        help="communication granularity (paper §5.6)",
    )
    p.add_argument(
        "--partition",
        type=_partition_spec,
        default="auto",
        metavar="SPEC",
        help="work partitioning strategy (paper §5.3): auto, block, "
        "cyclic, or block:D / cyclic:D to split dimension D of a "
        "perfect nest (docs/PARTITION.md)",
    )


def _add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="interconnect preset (default: vbus; see docs/SWEEP.md)",
    )


def _add_faults(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="seeded fault plan to inject (schema: docs/FAULTS.md)",
    )


def _load_faults(args) -> Optional[FaultPlan]:
    if getattr(args, "faults", None) is None:
        return None
    return _load_artifact(FaultPlan.load, args.faults, "faults")


def _source_text(source: str) -> str:
    """The Fortran text of a file path or a workload spec string."""
    if os.path.exists(source):
        with open(source) as fh:
            return fh.read()
    from repro.workloads import WorkloadSpecError, is_spec, source_for

    if is_spec(source):
        try:
            return source_for(source)
        except WorkloadSpecError as exc:
            raise _CliError(str(exc))
    raise SystemExit(
        f"repro: {source!r} is neither a file nor a workload spec"
    )


def _cache_dir(args) -> Optional[str]:
    """The artifact cache of ``--cache-dir`` / ``--no-cache``."""
    if args.no_cache:
        return None
    from repro.sweep.cache import DEFAULT_CACHE_DIR

    return args.cache_dir or DEFAULT_CACHE_DIR


def _cluster(args):
    """The resized ClusterParams for ``--backend``, or None (default)."""
    if getattr(args, "backend", None) is None:
        return None
    return backend_params(args.backend, args.nprocs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="V-Bus PC-cluster parallel programming environment "
        "(CLUSTER 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile and show postpass products")
    _add_common(pc)
    pc.add_argument(
        "--show",
        nargs="+",
        choices=("fortran", "plan", "log", "avpg"),
        default=["plan"],
        help="which artifacts to print",
    )

    pr = sub.add_parser("run", help="compile and simulate a run")
    _add_common(pr)
    _add_backend(pr)
    pr.add_argument(
        "--timing",
        action="store_true",
        help="timing mode: skip numeric array work (for large problems)",
    )
    pr.add_argument(
        "--arrays",
        default="",
        help="comma-separated arrays to print after the run",
    )
    pr.add_argument(
        "--compare-sequential",
        action="store_true",
        help="also run sequentially and report the speedup",
    )
    pr.add_argument(
        "--tune-plan",
        default=None,
        metavar="PLAN.json",
        help="mixed-grain TunePlan artifact from "
        "'repro autotune --per-region --plan-out' (docs/AUTOTUNE.md); "
        "overrides --granularity",
    )
    pr.add_argument(
        "--sanitize",
        action="store_true",
        help="shadow-access sanitizer: cross-check every array access "
        "against shadow validity planes (value mode only; docs/CHECK.md); "
        "exits 2 on violations",
    )
    _add_faults(pr)

    pk = sub.add_parser(
        "check",
        help="static comm-plan verifier and race detector: exits 2 with "
        "RV-coded diagnostics, 0 when clean (docs/CHECK.md)",
    )
    _add_common(pk)
    pk.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="CheckReport cache location (default: .sweep-cache, "
        "shared with 'repro sweep')",
    )
    pk.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the CheckReport cache",
    )

    pt = sub.add_parser(
        "trace", help="run with tracing on and export timeline + metrics"
    )
    _add_common(pt)
    _add_backend(pt)
    pt.add_argument(
        "--timing",
        action="store_true",
        help="timing mode: skip numeric array work (for large problems)",
    )
    pt.add_argument(
        "--out",
        default=None,
        metavar="PREFIX",
        help="output file prefix (default: the source file's stem)",
    )
    pt.add_argument(
        "--top",
        type=int,
        default=3,
        help="span names per track in the text timeline",
    )
    _add_faults(pt)

    pa = sub.add_parser(
        "autotune",
        help="pick the best granularity — globally, or per region with "
        "a cached pruned search (docs/AUTOTUNE.md)",
    )
    _add_common(pa)
    _add_backend(pa)
    pa.add_argument("--metric", choices=METRICS, default="comm")
    pa.add_argument(
        "--epsilon",
        type=_epsilon,
        default=DEFAULT_EPSILON,
        help="relative near-tie margin (default 0.05): closer gaps go "
        "to the plan with fewer messages (global mode) or to the "
        "profiled rollup (per-region mode)",
    )
    pa.add_argument(
        "--per-region",
        action="store_true",
        help="tune each parallel region separately (mixed-grain plan) "
        "instead of picking one global grain",
    )
    pa.add_argument(
        "--tune-partition",
        action="store_true",
        help="also tune the §5.3 partition strategy per region "
        "(joint grain x strategy search; needs --per-region; "
        "docs/PARTITION.md)",
    )
    pa.add_argument(
        "--plan-out",
        default=None,
        metavar="PLAN.json",
        help="write the per-region TunePlan artifact (reusable via "
        "'repro run --tune-plan' and the sweep engine)",
    )
    pa.add_argument(
        "--calibration",
        default=None,
        metavar="CAL.json",
        help="trace-calibrated cost-model artifact from 'repro calibrate' "
        "(needs --per-region; docs/AUTOTUNE.md)",
    )
    pa.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="per-region plan cache location (default: .sweep-cache, "
        "shared with 'repro sweep')",
    )
    pa.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the per-region plan cache",
    )
    _add_faults(pa)

    pb = sub.add_parser(
        "calibrate",
        help="fit the analytic cost model's constants to traced "
        "microbenchmarks on one backend (docs/AUTOTUNE.md)",
    )
    pb.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="vbus",
        help="interconnect preset to calibrate (see docs/SWEEP.md)",
    )
    pb.add_argument("--nprocs", type=_nprocs, default=4, help="cluster size")
    pb.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="CAL.json",
        help="write the CalibratedModel artifact (reusable via "
        "'repro autotune --calibration' and the sweep calibration axis)",
    )
    pb.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="calibration cache location (default: .sweep-cache, "
        "shared with 'repro sweep')",
    )
    pb.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the calibration cache",
    )

    ps = sub.add_parser(
        "sweep",
        help="run a declarative experiment grid on a process pool "
        "with a content-addressed result cache (docs/SWEEP.md)",
    )
    ps.add_argument("grid", metavar="GRID.json", help="grid spec file")
    ps.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = run inline; output is byte-identical "
        "either way)",
    )
    ps.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="OUT.jsonl",
        help="JSONL output path (default: the grid file's stem + .jsonl)",
    )
    ps.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: .sweep-cache)",
    )
    ps.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the result cache",
    )
    ps.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-job progress lines on stderr",
    )
    return parser


def _cmd_compile(args) -> int:
    prog = compile_source(
        _source_text(args.source),
        nprocs=args.nprocs,
        granularity=args.granularity,
        partition=args.partition,
    )
    shows = set(args.show)
    if "log" in shows:
        print("== parallelization log ==")
        print(prog.parallelization_log)
        print()
    if "plan" in shows:
        print("== communication plan ==")
        print(prog.summary())
        print()
    if "avpg" in shows:
        print("== AVPG ==")
        cols = prog.avpg.arrays
        print("  node   " + " ".join(f"{a:>10s}" for a in cols))
        for node in prog.avpg.nodes:
            print(
                f"  {node.label:6s} "
                + " ".join(f"{node.attrs[a]:>10s}" for a in cols)
            )
        print()
    if "fortran" in shows:
        print(prog.fortran)
    return 0


def _cmd_run(args) -> int:
    source = _source_text(args.source)
    if args.sanitize and args.timing:
        print(
            "run: --sanitize needs value mode (timing runs never compute "
            "the array accesses the shadow planes track)",
            file=sys.stderr,
        )
        return 2
    if args.tune_plan is not None:
        from repro.tools.tuneplan import TunePlan

        plan = _load_artifact(TunePlan.load, args.tune_plan, "run")
        prog = compile_source(
            source,
            options=plan.options(
                nprocs=args.nprocs, partition=args.partition
            ),
        )
        if plan.nprocs != args.nprocs:
            print(
                f"(note: plan was tuned at nprocs={plan.nprocs}, "
                f"running at {args.nprocs})"
            )
    else:
        prog = compile_source(
            source,
            nprocs=args.nprocs,
            granularity=args.granularity,
            partition=args.partition,
        )
    report = run_program(
        prog,
        cluster_params=_cluster(args),
        execute=not args.timing,
        faults=_load_faults(args),
        sanitize=args.sanitize,
    )
    for line in report.stdout:
        print(line)
    print(report.summary())
    if args.sanitize:
        san = report.sanitizer or {}
        if san.get("clean", True):
            print("  sanitizer         : clean")
        else:
            for v in san.get("violations", ()):
                where = (
                    f" region {v['region_id']}" if "region_id" in v else ""
                )
                who = f" rank {v['rank']}" if "rank" in v else ""
                what = f" {v['array']}" if "array" in v else ""
                print(
                    f"  {v['code']}:{where}{who}{what}: {v['detail']}"
                    f" (x{v['count']})"
                )
            return 2
    if args.compare_sequential:
        seq = run_sequential(prog, execute=not args.timing)
        print(
            f"  sequential        : {seq.total_s * 1e3:10.3f} ms "
            f"(speedup {seq.total_s / report.total_s:.2f}x)"
        )
    if args.arrays and not args.timing:
        for name in args.arrays.split(","):
            name = name.strip().upper()
            if name not in report.memory.arrays:
                print(f"  (no array named {name})")
                continue
            print(f"{name} = {report.memory.shaped(name)}")
    return 0


def _cmd_check(args) -> int:
    from repro.tools.check import check_source

    report = check_source(
        _source_text(args.source),
        nprocs=args.nprocs,
        granularity=args.granularity,
        partition=args.partition,
        cache_dir=_cache_dir(args),
    )
    print(report.summary())
    return 0 if report.clean else 2


def _cmd_trace(args) -> int:
    prog = compile_source(
        _source_text(args.source),
        nprocs=args.nprocs,
        granularity=args.granularity,
        partition=args.partition,
    )
    report = run_program(
        prog,
        cluster_params=_cluster(args),
        execute=not args.timing,
        trace=True,
        faults=_load_faults(args),
    )
    prefix = args.out or os.path.splitext(os.path.basename(args.source))[0]
    trace_path = f"{prefix}.trace.json"
    mjson_path = f"{prefix}.metrics.json"
    mcsv_path = f"{prefix}.metrics.csv"
    write_chrome_trace(report.trace, trace_path)
    write_metrics_json(report.metrics_rows, mjson_path)
    write_metrics_csv(report.metrics_rows, mcsv_path)
    for line in report.stdout:
        print(line)
    print(report.summary())
    print()
    print(timeline_summary(report.trace, top=args.top))
    print()
    print(f"wrote {trace_path} (open at https://ui.perfetto.dev)")
    print(f"wrote {mjson_path}, {mcsv_path}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.sweep import SweepConfigError, load_grid, run_sweep
    from repro.sweep.engine import summary_table, write_jsonl

    try:
        spec = load_grid(args.grid)
        progress = None
        if not args.quiet:
            progress = lambda msg: print(f"sweep: {msg}", file=sys.stderr)
        result = run_sweep(
            spec, jobs=args.jobs, cache_dir=_cache_dir(args),
            progress=progress,
        )
    except SweepConfigError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.splitext(os.path.basename(args.grid))[0] + ".jsonl"
    write_jsonl(result.rows, out)
    print(summary_table(result))
    print(f"wrote {out}")
    # Per-job faults/errors are rows, not harness failures: the sweep
    # itself completed, so exit 0 and let callers inspect the statuses.
    return 0


def _cmd_calibrate(args) -> int:
    from repro.tools.calibrate import calibrate

    try:
        model = calibrate(
            backend=args.backend,
            nprocs=args.nprocs,
            cache_dir=_cache_dir(args),
        )
    except ValueError as exc:
        raise _CliError(f"calibrate: {exc}")
    print(model.summary())
    if args.out is not None:
        model.save(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_autotune(args) -> int:
    src = _source_text(args.source)
    faults = _load_faults(args)
    if args.tune_partition and not args.per_region:
        print(
            "autotune: --tune-partition needs --per-region (the global "
            "tuner has no per-region strategy to carry)",
            file=sys.stderr,
        )
        return 2
    if args.calibration is not None and not args.per_region:
        print(
            "autotune: --calibration needs --per-region (the global "
            "tuner profiles every grain anyway, so fitted constants "
            "have nothing to decide)",
            file=sys.stderr,
        )
        return 2
    if args.per_region:
        from repro.tools.tuneplan import tune_per_region

        calibration = None
        if args.calibration is not None:
            from repro.tools.calibrate import CalibratedModel

            calibration = _load_artifact(
                CalibratedModel.load, args.calibration, "autotune"
            )
        plan = tune_per_region(
            src,
            nprocs=args.nprocs,
            metric=args.metric,
            backend=args.backend or "vbus",
            epsilon=args.epsilon,
            cache_dir=_cache_dir(args),
            faults=faults,
            tune_partition=args.tune_partition,
            calibration=calibration,
        )
        print(plan.summary())
        if args.plan_out is not None:
            plan.save(args.plan_out)
            print(f"wrote {args.plan_out}")
        return 0
    opts = CompileOptions(
        nprocs=args.nprocs,
        granularity=args.granularity,
        partition=args.partition,
    )
    rep = choose_granularity(
        src,
        nprocs=args.nprocs,
        metric=args.metric,
        options=opts,
        cluster_params=_cluster(args),
        epsilon=args.epsilon,
        faults=faults,
    )
    print(rep.summary())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_autotune(args)
    except MpiFaultError as exc:
        print(f"fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (_CliError, BugSeedError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except PartitionError as exc:
        # Bad partition requests carry their region provenance
        # (docs/PARTITION.md) — surface them as a clean CLI error
        # instead of a traceback.
        print(f"partition: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
