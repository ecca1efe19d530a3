"""Command-line interface — ``repro-color`` / ``python -m repro``.

Subcommands::

    repro-color suite [--scale small]          # datasets table (E1)
    repro-color color rmat --algorithm maxmin  # one timed coloring run
    repro-color color path/to/graph.mtx ...    # works on files too
    repro-color compare rmat                   # all algorithms side by side
    repro-color stats powerlaw                 # structure + layout analysis
    repro-color convert in.mtx out.col         # graph format conversion
    repro-color sweep rmat --parameter chunk_size 256 512 1024
    repro-color batch all -a maxmin,jp --jobs 4  # parallel run matrix
    repro-color trace rmat -o rmat.trace.json  # traced run -> Chrome trace
    repro-color profile rmat                   # per-phase metrics table
    repro-color check validate rmat            # invariant validators
    repro-color check races --algorithm all    # simulated-race detector
    repro-color check lint src                 # repo-specific lint pass
    repro-color check golden --write           # golden digests / drift
    repro-color check verify                   # static race/bounds verifier
    repro-color check types                    # dtype/overflow certification
    repro-color pipeline run report-smoke --store ci.sqlite
    repro-color report --store ci.sqlite --fail-on-regression
    repro-color db info                        # run-store table counts
    repro-color serve --store ci.sqlite        # coloring job server
    repro-color job submit '{"kind":"color","dataset":"rmat"}' --wait

Any suite dataset name or a graph file path is accepted wherever a graph
is expected. ``color``, ``batch`` and ``sweep`` accept ``--store PATH``
to record runs into the sqlite run database (:mod:`repro.store`);
``report`` without a graph argument diffs a store against a committed
baseline snapshot.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis.tables import format_kv, format_table
from .coloring.kernels import MAPPINGS, SCHEDULES
from .engine.context import RunContext
from .gpusim.device import DeviceConfig, named_device
from .graphs.csr import CSRGraph
from .graphs.io import load_graph
from .graphs.stats import summarize
from .harness.batch import sweep_config
from .harness.runner import (
    CPU_ALGORITHMS,
    GPU_ALGORITHMS,
    run_cpu_coloring,
    run_gpu_coloring,
)
from .harness.suite import SCALES, SUITE, build, summarize_suite

__all__ = ["main", "build_parser"]


def _version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _device(name: str) -> DeviceConfig:
    """``named_device(name)``, or exit with one ``error:`` line."""
    try:
        return named_device(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _make_context(args: argparse.Namespace) -> RunContext:
    """One RunContext per CLI invocation, from the common options."""
    return RunContext(
        device=_device(args.device),
        seed=getattr(args, "seed", 0),
    )


def _resolve_graph(name: str, scale: str) -> tuple[CSRGraph, str]:
    """Interpret ``name`` as a suite dataset or a file path."""
    if name in SUITE:
        return build(name, scale), name
    path = Path(name)
    if path.exists():
        try:
            return load_graph(path), path.name
        except ValueError as exc:  # GraphFormatError names path:line
            raise SystemExit(f"error: {exc}") from None
    raise SystemExit(
        f"error: {name!r} is neither a suite dataset ({', '.join(SUITE)}) "
        "nor an existing file"
    )


def _executor(ctx: RunContext, **config):
    """``ctx.executor(**config)``, or exit with one ``error:`` line.

    Commands build every executor before their first run, so a config
    the executor rejects stops them before they print or record anything.
    """
    try:
        return ctx.executor(**config)
    except ValueError as exc:  # ExecutionConfig / GPUExecutor checks
        raise SystemExit(f"error: {exc}") from None


def _open_recorder(args: argparse.Namespace, *, source: str):
    """A :class:`repro.store.Recorder` on ``--store``, or ``None``."""
    store = getattr(args, "store", None)
    if not store:
        return None
    from .store import Recorder

    return Recorder(store, scale=getattr(args, "scale", ""), source=source)


def _add_store_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="record runs into this sqlite run database (see repro.store)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-color",
        description="GPU graph coloring on a SIMT timing simulator "
        "(reproduction of Che et al., IPDPSW 2015)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="print the dataset suite table")
    p_suite.add_argument("--scale", choices=SCALES, default="small")

    p_color = sub.add_parser("color", help="run one coloring")
    p_color.add_argument("graph", help="suite dataset name or graph file")
    p_color.add_argument(
        "--algorithm",
        "-a",
        default="maxmin",
        choices=sorted(GPU_ALGORITHMS) + sorted(CPU_ALGORITHMS),
    )
    p_color.add_argument("--mapping", choices=MAPPINGS, default="thread")
    p_color.add_argument("--schedule", choices=SCHEDULES, default="grid")
    p_color.add_argument("--device", default="hd7950")
    p_color.add_argument("--scale", choices=SCALES, default="small")
    p_color.add_argument("--seed", type=int, default=0)
    p_color.add_argument("--workgroup-size", type=int, default=256)
    p_color.add_argument("--chunk-size", type=int, default=1024)
    p_color.add_argument("--degree-threshold", type=int, default=64)
    p_color.add_argument("--sort-by-degree", action="store_true")
    p_color.add_argument(
        "--priority",
        choices=("random", "degree", "smallest_last"),
        default="random",
        help="priority function for maxmin/jp",
    )
    p_color.add_argument(
        "--reorder",
        choices=("none", "bfs", "rcm", "degree", "random"),
        default="none",
        help="relabel the graph before coloring",
    )
    p_color.add_argument(
        "--iterations", action="store_true", help="print the per-iteration history"
    )
    p_color.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a trace of the run (format from extension: "
        ".jsonl → JSONL, .csv → CSV, else Chrome trace JSON)",
    )
    p_color.add_argument(
        "--validate",
        action="store_true",
        help="run the full repro.check invariant suite post-run "
        "(CSR + coloring + scheduler/trace validators)",
    )
    _add_store_option(p_color)

    p_cmp = sub.add_parser("compare", help="all GPU algorithms side by side")
    p_cmp.add_argument("graph", help="suite dataset name or graph file")
    p_cmp.add_argument("--scale", choices=SCALES, default="small")
    p_cmp.add_argument("--device", default="hd7950")
    p_cmp.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser(
        "report",
        help="per-run report (with a graph) or store-vs-baseline "
        "regression report (without one)",
    )
    p_rep.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="suite dataset name or graph file; omit for the "
        "regression report",
    )
    p_rep.add_argument("--algorithm", "-a", default="maxmin", choices=sorted(GPU_ALGORITHMS))
    p_rep.add_argument("--mapping", choices=MAPPINGS, default="thread")
    p_rep.add_argument("--schedule", choices=SCHEDULES, default="grid")
    p_rep.add_argument("--scale", choices=SCALES, default="small")
    p_rep.add_argument("--device", default="hd7950")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument(
        "--store",
        metavar="PATH",
        default="benchmarks/results/runs.sqlite",
        help="run database to report on (regression mode)",
    )
    p_rep.add_argument(
        "--baseline",
        metavar="PATH",
        default="benchmarks/results/baseline.json",
        help="baseline snapshot to diff against",
    )
    p_rep.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit nonzero when any metric regresses beyond its threshold",
    )
    p_rep.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot the store into --baseline instead of comparing",
    )
    p_rep.add_argument(
        "--strip-wall",
        action="store_true",
        help="drop host wall times from the written baseline "
        "(recommended for committed baselines)",
    )
    p_rep.add_argument(
        "--threshold-cycles",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed fractional cycle increase (default 0.02)",
    )
    p_rep.add_argument(
        "--threshold-colors",
        type=int,
        default=None,
        metavar="N",
        help="allowed absolute color-count increase (default 0)",
    )
    p_rep.add_argument(
        "--threshold-wall",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed fractional wall-time increase (default 1.0)",
    )
    p_rep.add_argument("--json", action="store_true", help="emit JSON to stdout")

    p_stats = sub.add_parser("stats", help="structure + layout analysis")
    p_stats.add_argument("graph", help="suite dataset name or graph file")
    p_stats.add_argument("--scale", choices=SCALES, default="small")

    p_conv = sub.add_parser("convert", help="convert between graph formats")
    p_conv.add_argument("input", help="input graph file (or suite dataset)")
    p_conv.add_argument("output", help="output path; format from extension")
    p_conv.add_argument("--scale", choices=SCALES, default="small")

    p_tune = sub.add_parser("tune", help="autotune the configuration for an input")
    p_tune.add_argument("graph", help="suite dataset name or graph file")
    p_tune.add_argument("--scale", choices=SCALES, default="small")
    p_tune.add_argument("--device", default="hd7950")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument(
        "--run", action="store_true", help="also run maxmin under the winner"
    )

    p_trace = sub.add_parser(
        "trace", help="run one coloring with tracing on and export the events"
    )
    p_trace.add_argument("graph", help="suite dataset name or graph file")
    p_trace.add_argument(
        "--algorithm", "-a", default="maxmin", choices=sorted(GPU_ALGORITHMS)
    )
    p_trace.add_argument("--mapping", choices=MAPPINGS, default="thread")
    p_trace.add_argument(
        "--schedule",
        choices=SCHEDULES,
        default="stealing",
        help="default 'stealing' so steal events appear in the trace",
    )
    p_trace.add_argument("--scale", choices=SCALES, default="small")
    p_trace.add_argument("--device", default="hd7950")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--output", "-o", default="trace.json", help="trace file to write"
    )
    p_trace.add_argument(
        "--format",
        choices=("auto", "chrome", "jsonl", "csv"),
        default="auto",
        help="'auto' picks from the output extension",
    )
    p_trace.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="ring-buffer capacity (newest events retained)",
    )

    p_prof = sub.add_parser(
        "profile", help="run one coloring and print per-phase metrics"
    )
    p_prof.add_argument("graph", help="suite dataset name or graph file")
    p_prof.add_argument(
        "--algorithm", "-a", default="maxmin", choices=sorted(GPU_ALGORITHMS)
    )
    p_prof.add_argument("--mapping", choices=MAPPINGS, default="thread")
    p_prof.add_argument("--schedule", choices=SCHEDULES, default="stealing")
    p_prof.add_argument("--scale", choices=SCALES, default="small")
    p_prof.add_argument("--device", default="hd7950")
    p_prof.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="sweep one execution parameter")
    p_sweep.add_argument("graph", help="suite dataset name or graph file")
    p_sweep.add_argument(
        "--parameter",
        choices=("chunk_size", "degree_threshold", "workgroup_size"),
        default="chunk_size",
    )
    p_sweep.add_argument("values", nargs="+", type=int, help="parameter values")
    p_sweep.add_argument("--algorithm", "-a", default="maxmin", choices=sorted(GPU_ALGORITHMS))
    p_sweep.add_argument("--mapping", choices=MAPPINGS, default="thread")
    p_sweep.add_argument("--schedule", choices=SCHEDULES, default="stealing")
    p_sweep.add_argument("--scale", choices=SCALES, default="small")
    p_sweep.add_argument("--device", default="hd7950")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (suite datasets only; results are "
        "identical to a serial sweep)",
    )
    _add_store_option(p_sweep)

    p_batch = sub.add_parser(
        "batch", help="run an algorithm × dataset matrix, optionally in parallel"
    )
    p_batch.add_argument(
        "datasets",
        nargs="+",
        help=f"suite dataset names ({', '.join(SUITE)}), or 'all'",
    )
    p_batch.add_argument(
        "--algorithms",
        "-a",
        default="maxmin",
        help="comma-separated GPU algorithms, or 'all'",
    )
    p_batch.add_argument("--mapping", choices=MAPPINGS, default="thread")
    p_batch.add_argument("--schedule", choices=SCHEDULES, default="grid")
    p_batch.add_argument("--scale", choices=SCALES, default="small")
    p_batch.add_argument("--device", default="hd7950")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes; rows are bit-identical for any value",
    )
    p_batch.add_argument(
        "--deep-validate",
        action="store_true",
        help="run the full repro.check invariant suite on every cell",
    )
    p_batch.add_argument(
        "--output",
        "-o",
        help="write rows to FILE (.json or .csv) in addition to the table",
    )
    _add_store_option(p_batch)

    p_pipe = sub.add_parser(
        "pipeline", help="declarative experiment pipelines (see repro.store)"
    )
    pipe_sub = p_pipe.add_subparsers(dest="pipeline_command", required=True)
    pp_list = pipe_sub.add_parser("list", help="list built-in pipelines")
    pp_list.add_argument("--json", action="store_true", help="emit JSON to stdout")
    pp_run = pipe_sub.add_parser(
        "run", help="run a pipeline (built-in name or JSON spec file)"
    )
    pp_run.add_argument("pipeline", help="built-in pipeline name or spec path")
    pp_run.add_argument(
        "--store",
        metavar="PATH",
        default="benchmarks/results/runs.sqlite",
        help="run database the cells record into",
    )
    pp_run.add_argument(
        "--scale",
        choices=SCALES,
        default=None,
        help="override the pipeline's declared scale",
    )
    pp_run.add_argument("--device", default="hd7950")
    pp_run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes; recorded rows identical for any value",
    )
    pp_run.add_argument(
        "--deep-validate",
        action="store_true",
        help="run the full repro.check invariant suite on every cell",
    )

    p_db = sub.add_parser("db", help="inspect the run database")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    db_common = {
        "metavar": "PATH",
        "default": "benchmarks/results/runs.sqlite",
        "help": "run database file",
    }
    d_info = db_sub.add_parser("info", help="schema version and table counts")
    d_info.add_argument("--store", **db_common)
    d_info.add_argument("--json", action="store_true", help="emit JSON to stdout")
    d_rows = db_sub.add_parser("rows", help="query recorded runs")
    d_rows.add_argument("--store", **db_common)
    d_rows.add_argument("--dataset", default=None)
    d_rows.add_argument("--algorithm", "-a", default=None)
    d_rows.add_argument("--scale", choices=SCALES, default=None)
    d_rows.add_argument("--limit", type=int, default=20)
    d_rows.add_argument("--json", action="store_true", help="emit JSON to stdout")

    p_check = sub.add_parser(
        "check",
        help="correctness tooling: validators, races, lint, golden, "
        "verify, types",
    )
    check_sub = p_check.add_subparsers(dest="check_command", required=True)

    c_val = check_sub.add_parser(
        "validate", help="run invariant validators over coloring runs"
    )
    c_val.add_argument("graph", nargs="?", default="rmat")
    c_val.add_argument(
        "--algorithm",
        "-a",
        default="all",
        choices=["all"] + sorted(GPU_ALGORITHMS),
        help="'all' validates every GPU algorithm",
    )
    c_val.add_argument("--mapping", choices=MAPPINGS, default="thread")
    c_val.add_argument("--schedule", choices=SCHEDULES, default="stealing")
    c_val.add_argument("--scale", choices=SCALES, default="small")
    c_val.add_argument("--device", default="hd7950")
    c_val.add_argument("--seed", type=int, default=0)
    c_val.add_argument("--json", action="store_true", help="emit JSON to stdout")

    c_races = check_sub.add_parser(
        "races", help="simulated-race detector over the kernel specs"
    )
    c_races.add_argument("graph", nargs="?", default="rmat")
    c_races.add_argument(
        "--algorithm",
        "-a",
        default="all",
        choices=["all"] + sorted(GPU_ALGORITHMS),
        help="'all' scans every GPU algorithm's kernel specs",
    )
    c_races.add_argument("--scale", choices=SCALES, default="small")
    c_races.add_argument("--seed", type=int, default=0)
    c_races.add_argument(
        "--wavefront-size",
        type=int,
        default=64,
        help="lanes per wavefront for access tagging",
    )
    c_races.add_argument(
        "--details", action="store_true", help="print every finding"
    )
    c_races.add_argument("--json", action="store_true", help="emit JSON to stdout")

    c_lint = check_sub.add_parser("lint", help="repo-specific AST lint pass")
    c_lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories (default: src)"
    )
    c_lint.add_argument(
        "--explain", action="store_true", help="print the rule catalogue and exit"
    )
    c_lint.add_argument("--json", action="store_true", help="emit JSON to stdout")

    c_gold = check_sub.add_parser(
        "golden", help="golden run digests and drift detection"
    )
    c_gold.add_argument(
        "--baseline",
        default="tests/data/golden_digests.json",
        help="baseline digest file to compare against (or write)",
    )
    c_gold.add_argument(
        "--write", action="store_true", help="(re)write the baseline instead of checking"
    )
    c_gold.add_argument("--scale", choices=SCALES, default="tiny")
    c_gold.add_argument("--seed", type=int, default=0)
    c_gold.add_argument("--json", action="store_true", help="emit JSON to stdout")

    c_flow = check_sub.add_parser(
        "flow",
        help="static dataflow analysis: divergence, coalescing, imbalance",
    )
    c_flow.add_argument(
        "--algorithm",
        "-a",
        default="all",
        choices=["all"] + sorted(GPU_ALGORITHMS),
        help="'all' analyzes every GPU algorithm's kernels",
    )
    c_flow.add_argument(
        "--graph",
        "-g",
        default=None,
        help="suite dataset or graph file: adds a static imbalance "
        "prediction per algorithm (omit for classification only)",
    )
    c_flow.add_argument("--scale", choices=SCALES, default="small")
    c_flow.add_argument(
        "--mapping",
        choices=("thread", "wavefront"),
        default="thread",
        help="which device-kernel mapping to analyze",
    )
    c_flow.add_argument("--json", action="store_true", help="emit JSON to stdout")

    c_verify = check_sub.add_parser(
        "verify",
        help="static race-freedom and memory-safety verifier over kernel specs",
    )
    c_verify.add_argument(
        "--algorithm",
        "-a",
        default="all",
        choices=["all"] + sorted(GPU_ALGORITHMS),
        help="'all' verifies every GPU algorithm's kernel specs",
    )
    c_verify.add_argument(
        "--mapping",
        choices=("thread", "wavefront"),
        default="thread",
        help="which device-kernel mapping to verify",
    )
    c_verify.add_argument(
        "--graph",
        "-g",
        default="rmat",
        help="suite dataset or graph file for the static/dynamic "
        "cross-check ('none' skips the dynamic race scan)",
    )
    c_verify.add_argument("--scale", choices=SCALES, default="small")
    c_verify.add_argument("--seed", type=int, default=0)
    c_verify.add_argument(
        "--wavefront-size",
        type=int,
        default=64,
        help="lanes per wavefront for the lockstep exemption",
    )
    c_verify.add_argument("--json", action="store_true", help="emit JSON to stdout")

    c_types = check_sub.add_parser(
        "types",
        help="dtype/shape inference and integer-overflow certification "
        "of the device-kernel specs",
    )
    c_types.add_argument(
        "--kernel",
        "-k",
        default=None,
        help="certify one registered kernel (default: all)",
    )
    c_types.add_argument(
        "--wavefront-size",
        type=int,
        default=64,
        help="lanes per wavefront for the range premises",
    )
    c_types.add_argument(
        "--details", action="store_true", help="print per-value ranges"
    )
    c_types.add_argument("--json", action="store_true", help="emit JSON to stdout")

    p_serve = sub.add_parser(
        "serve", help="run the coloring job server (see repro.serve)"
    )
    p_serve.add_argument(
        "--store",
        metavar="PATH",
        default="benchmarks/results/runs.sqlite",
        help="run database holding the jobs ledger and recorded rows",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    p_serve.add_argument(
        "--port", type=int, default=8932, help="TCP port (0 picks one)"
    )
    p_serve.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="serve on this Unix domain socket instead of TCP",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, help="concurrent jobs executed"
    )
    p_serve.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="parallel cells within one job (harness worker pool size)",
    )
    p_serve.add_argument(
        "--recover",
        action="store_true",
        help="re-queue jobs left non-terminal by a previous server",
    )
    p_serve.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty (pairs with --recover in CI)",
    )

    p_job = sub.add_parser(
        "job", help="client for a running job server (submit/poll/fetch)"
    )
    job_sub = p_job.add_subparsers(dest="job_command", required=True)

    def _job_common(jp: argparse.ArgumentParser) -> None:
        jp.add_argument(
            "--url",
            default="http://127.0.0.1:8932",
            help="server base URL (TCP servers)",
        )
        jp.add_argument(
            "--socket",
            metavar="PATH",
            default=None,
            help="server Unix domain socket (overrides --url)",
        )
        jp.add_argument("--json", action="store_true", help="emit JSON to stdout")

    j_sub = job_sub.add_parser("submit", help="submit a job spec")
    j_sub.add_argument(
        "spec",
        help="spec as inline JSON, @file.json, or '-' for stdin",
    )
    j_sub.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    j_sub.add_argument("--timeout", type=float, default=300.0)
    _job_common(j_sub)
    for verb, hlp in (
        ("status", "poll one job's state"),
        ("result", "fetch a finished job's rows"),
        ("cancel", "cancel a queued or running job"),
        ("restart", "re-queue a terminal job"),
    ):
        jp = job_sub.add_parser(verb, help=hlp)
        jp.add_argument("job_id")
        _job_common(jp)
    j_wait = job_sub.add_parser("wait", help="block until a job finishes")
    j_wait.add_argument("job_id")
    j_wait.add_argument("--timeout", type=float, default=300.0)
    _job_common(j_wait)
    j_list = job_sub.add_parser("list", help="list jobs, newest first")
    j_list.add_argument("--state", default=None, help="filter by state")
    j_list.add_argument("--limit", type=int, default=20)
    _job_common(j_list)
    for verb, hlp in (
        ("health", "server liveness and queue depth"),
        ("metrics", "job counters, metrics registry, store counts"),
    ):
        jp = job_sub.add_parser(verb, help=hlp)
        _job_common(jp)

    return parser


def _cmd_suite(args: argparse.Namespace) -> int:
    rows = [s.as_row() for s in summarize_suite(args.scale)]
    print(format_table(rows, title=f"dataset suite ({args.scale} scale)"))
    return 0


def _export_trace(events, path: Path, fmt: str = "auto") -> str:
    """Write events in the requested (or extension-derived) format."""
    from .obs import export_chrome_trace, export_csv, export_jsonl

    if fmt == "auto":
        fmt = {".jsonl": "jsonl", ".csv": "csv"}.get(path.suffix, "chrome")
    writer = {
        "jsonl": export_jsonl,
        "csv": export_csv,
        "chrome": export_chrome_trace,
    }[fmt]
    writer(events, path)
    return fmt


def _trace_summary(ring) -> dict[str, object]:
    """Event counts by category plus retention stats for one ring."""
    by_cat: dict[str, int] = {}
    for ev in ring:
        by_cat[ev.cat] = by_cat.get(ev.cat, 0) + 1
    row: dict[str, object] = {"events": ring.emitted, "retained": len(ring)}
    if ring.dropped:
        row["dropped (oldest)"] = ring.dropped
    row.update(sorted(by_cat.items()))
    return row


def _cmd_color(args: argparse.Namespace) -> int:
    graph, name = _resolve_graph(args.graph, args.scale)
    if args.reorder != "none":
        from .graphs import reorder as ro

        perm = {
            "bfs": ro.bfs_order,
            "rcm": ro.rcm_order,
            "degree": ro.degree_order,
            "random": lambda g: ro.random_order(g, seed=args.seed),
        }[args.reorder](graph)
        graph = graph.permute(perm)
    ring = None
    ctx = None
    if args.algorithm not in CPU_ALGORITHMS:
        ctx = _make_context(args)
        executor = _executor(
            ctx,
            mapping=args.mapping,
            schedule=args.schedule,
            workgroup_size=args.workgroup_size,
            chunk_size=args.chunk_size,
            degree_threshold=args.degree_threshold,
            sort_by_degree=args.sort_by_degree,
        )
    print(format_kv(summarize(graph, name).as_row(), title="input"))
    print()
    if ctx is None:
        if args.trace:
            print("note: --trace applies to GPU runs only; ignoring")
        result = run_cpu_coloring(graph, args.algorithm)
    else:
        # --validate wants the scheduler/trace validators too, so it
        # turns tracing on even without --trace (cycle-identical).
        ring = ctx.enable_tracing() if (args.trace or args.validate) else None
        algo_kwargs = (
            {"priority": args.priority} if args.algorithm in ("maxmin", "jp") else {}
        )
        recorder = _open_recorder(args, source="cli:color")
        try:
            result = run_gpu_coloring(
                graph,
                args.algorithm,
                executor,
                seed=args.seed,
                context=ctx,
                recorder=recorder,
                dataset=name,
                scale=args.scale,
                **algo_kwargs,
            )
        finally:
            if recorder is not None:
                recorder.close()
        if ring is not None and args.trace:
            out = Path(args.trace)
            fmt = _export_trace(ring, out)
            print(
                f"trace: {len(ring)} events ({ring.dropped} dropped) -> {out} [{fmt}]"
            )
            print()
    print(format_kv(result.as_row(), title="result (validated)"))
    if args.validate:
        from .check.validators import validate_run

        report = validate_run(
            graph,
            result,
            events=ring,
            device=ctx.device if ctx is not None else None,
        )
        print()
        print(report.summary())
        if not report.ok:
            return 1
    if args.iterations and result.iterations:
        print()
        rows = [
            {
                "iter": it.index,
                "active": it.active_vertices,
                "colored": it.newly_colored,
                "cycles": round(it.cycles, 1),
                "simd_eff": round(it.simd_efficiency, 3)
                if it.simd_efficiency is not None
                else None,
            }
            for it in result.iterations
        ]
        print(format_table(rows, title="iterations"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph, name = _resolve_graph(args.graph, args.scale)
    ctx = _make_context(args)
    rows = []
    for algo in GPU_ALGORITHMS:
        result = run_gpu_coloring(
            graph, algo, ctx.executor(), seed=args.seed, context=ctx
        )
        rows.append(result.as_row())
    for algo in ("greedy", "dsatur"):
        rows.append(run_cpu_coloring(graph, algo).as_row())
    print(format_table(rows, title=f"{name}: algorithm comparison"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.graph is not None:
        from .analysis.report import run_report

        graph, name = _resolve_graph(args.graph, args.scale)
        ctx = _make_context(args)
        executor = ctx.executor(mapping=args.mapping, schedule=args.schedule)
        result = run_gpu_coloring(
            graph, args.algorithm, executor, seed=args.seed, context=ctx
        )
        print(run_report(graph, result, executor, graph_name=name))
        return 0
    return _cmd_report_regressions(args)


def _cmd_report_regressions(args: argparse.Namespace) -> int:
    """``repro report`` without a graph: diff the store vs. a baseline."""
    from .store import (
        RunStore,
        Thresholds,
        compare,
        load_baseline,
        save_baseline,
        snapshot,
    )

    store_path = Path(args.store)
    if not store_path.exists():
        raise SystemExit(
            f"error: no run database at {store_path}; record some runs "
            "first (repro pipeline run ..., repro batch --store ...)"
        )
    with RunStore(store_path) as store:
        if args.write_baseline:
            snap = snapshot(store, strip_wall=args.strip_wall)
            save_baseline(snap, args.baseline)
            print(
                f"baseline: {len(snap['runs'])} cells, "
                f"{len(snap['experiments'])} experiment verdicts -> {args.baseline}"
            )
            return 0
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            raise SystemExit(
                f"error: no baseline at {baseline_path}; create one with "
                "--write-baseline"
            )
        defaults = Thresholds()
        thresholds = Thresholds(
            cycles=(
                args.threshold_cycles
                if args.threshold_cycles is not None
                else defaults.cycles
            ),
            colors=(
                args.threshold_colors
                if args.threshold_colors is not None
                else defaults.colors
            ),
            wall=(
                args.threshold_wall
                if args.threshold_wall is not None
                else defaults.wall
            ),
        )
        report = compare(store, load_baseline(baseline_path), thresholds=thresholds)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 1 if (args.fail_on_regression and not report.ok) else 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .store import PIPELINES, Recorder, resolve_pipeline, run_pipeline

    if args.pipeline_command == "list":
        if args.json:
            print(
                json.dumps(
                    [p.to_spec() for p in PIPELINES.values()], indent=2
                )
            )
        else:
            rows = [
                {
                    "pipeline": p.name,
                    "scale": p.scale,
                    "steps": len(p.steps),
                    "cells": len(p.jobs()),
                    "description": p.description,
                }
                for p in PIPELINES.values()
            ]
            print(format_table(rows, title="built-in pipelines"))
        return 0
    try:
        pipeline = resolve_pipeline(args.pipeline)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    scale = args.scale if args.scale is not None else pipeline.scale
    device = _device(args.device)
    with Recorder(args.store, scale=scale) as recorder:
        rows = run_pipeline(
            pipeline,
            recorder,
            device=device,
            scale=scale,
            jobs=args.jobs,
            deep_validate=args.deep_validate,
        )
        counts = recorder.store.counts()
    workers = f", jobs={args.jobs}" if args.jobs > 1 else ""
    print(
        f"pipeline {pipeline.name}: {len(rows)} cells recorded "
        f"(scale={scale}{workers}) -> {args.store} "
        f"[{counts['runs']} runs, {counts['graphs']} graphs]"
    )
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    from .store import RunStore, run_key

    store_path = Path(args.store)
    if not store_path.exists():
        raise SystemExit(f"error: no run database at {store_path}")
    with RunStore(store_path) as store:
        if args.db_command == "info":
            doc = {"store": str(store_path), "schema": store.schema_version()}
            doc.update(store.counts())
            if args.json:
                print(json.dumps(doc, indent=2))
            else:
                print(format_kv(doc, title="run database"))
            return 0
        rows = store.runs(
            dataset=args.dataset,
            algorithm=args.algorithm,
            scale=args.scale,
            limit=args.limit,
        )
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    display = [
        {
            "key": run_key(r),
            "cycles": round(float(r["cycles"]), 1),
            "colors": r["colors"],
            "iters": r["iterations"],
            "rev": r["git_rev"],
            "runs": r["runs_count"],
            "source": r["source"],
        }
        for r in rows
    ]
    print(format_table(display, title=f"runs (newest {len(rows)})"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .graphs import reorder as ro
    from .graphs.stats import degree_histogram

    graph, name = _resolve_graph(args.graph, args.scale)
    print(format_kv(summarize(graph, name).as_row(), title="structure"))
    print()
    hist = degree_histogram(graph)
    nz = [(d, int(c)) for d, c in enumerate(hist) if c]
    head = nz[:10]
    rows = [{"degree": d, "count": c} for d, c in head]
    if len(nz) > 10:
        rows.append({"degree": f"…{nz[-1][0]}", "count": nz[-1][1]})
    print(format_table(rows, title="degree histogram (head)"))
    print()
    layouts = {
        "natural": None,
        "bfs": ro.bfs_order(graph),
        "rcm": ro.rcm_order(graph),
        "degree": ro.degree_order(graph),
        "random": ro.random_order(graph),
    }
    rows = []
    for label, perm in layouts.items():
        g = graph if perm is None else graph.permute(perm)
        rows.append({"layout": label, "bandwidth": ro.bandwidth(g)})
    print(format_table(rows, title="layout bandwidths"))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from .graphs.io import (
        write_dimacs_coloring,
        write_edge_list,
        write_matrix_market,
        write_metis,
    )

    graph, name = _resolve_graph(args.input, args.scale)
    out = Path(args.output)
    writers = {
        ".mtx": write_matrix_market,
        ".col": write_dimacs_coloring,
        ".graph": write_metis,
    }
    writer = writers.get(out.suffix, write_edge_list)
    writer(graph, out)
    print(f"wrote {name} ({graph.num_vertices} vertices, {graph.num_edges} edges) → {out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .harness.autotune import autotune

    graph, name = _resolve_graph(args.graph, args.scale)
    ctx = _make_context(args)
    outcome = autotune(graph, seed=args.seed, context=ctx)
    print(format_table(outcome.scoreboard_rows(), title=f"{name}: autotune scoreboard"))
    cfg = outcome.best
    print()
    print(
        f"winner: mapping={cfg.mapping} schedule={cfg.schedule} "
        f"degree_threshold={cfg.degree_threshold} chunk_size={cfg.chunk_size}"
    )
    if args.run:
        result = run_gpu_coloring(
            graph, "maxmin", ctx.executor(cfg), seed=args.seed, context=ctx
        )
        print()
        print(format_kv(result.as_row(), title="tuned run (validated)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import DEFAULT_TRACE_CAPACITY, MetricsRegistry

    graph, name = _resolve_graph(args.graph, args.scale)
    ctx = _make_context(args)
    registry = MetricsRegistry()
    capacity = args.capacity if args.capacity else DEFAULT_TRACE_CAPACITY
    ring = ctx.enable_tracing(capacity=capacity, registry=registry)
    executor = ctx.executor(mapping=args.mapping, schedule=args.schedule)
    result = run_gpu_coloring(
        graph, args.algorithm, executor, seed=args.seed, context=ctx
    )
    out = Path(args.output)
    fmt = _export_trace(ring, out, args.format)
    print(format_kv(result.as_row(), title=f"{name}: traced run (validated)"))
    print()
    print(format_kv(_trace_summary(ring), title=f"trace -> {out} [{fmt}]"))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry

    graph, name = _resolve_graph(args.graph, args.scale)
    ctx = _make_context(args)
    registry = MetricsRegistry()
    ctx.enable_tracing(registry=registry)
    executor = ctx.executor(mapping=args.mapping, schedule=args.schedule)
    result = run_gpu_coloring(
        graph, args.algorithm, executor, seed=args.seed, context=ctx
    )
    print(format_kv(result.as_row(), title=f"{name}: profiled run (validated)"))
    print()
    print(
        format_table(
            registry.rows(),
            title=f"per-phase metrics ({args.algorithm}, "
            f"{args.mapping}/{args.schedule})",
        )
    )
    print()
    tot = registry.totals()
    print(
        format_kv(
            {
                "kernels": tot.kernels,
                "kernel_cycles": round(tot.kernel_cycles, 1),
                "mean_simd_eff": round(tot.mean_simd_efficiency, 3),
                "mean_cu_util": round(tot.mean_cu_utilization, 3),
                "steal_attempts": tot.steal_attempts,
                "steals_succeeded": tot.steals_succeeded,
                "steal_success_rate": round(tot.steal_success_rate, 3),
                "chunks_migrated": tot.chunks_migrated,
                "launch_fraction": round(
                    executor.counters.launch_overhead_fraction, 4
                ),
            },
            title="totals",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    jobs = getattr(args, "jobs", 1)
    if jobs > 1 and args.graph not in SUITE:
        print(
            "note: --jobs applies to suite datasets only; sweeping serially",
            file=sys.stderr,
        )
        jobs = 1
    ctx = _make_context(args)
    configs = [sweep_config(args.parameter, value) for value in args.values]
    executors = [
        _executor(ctx, mapping=args.mapping, schedule=args.schedule, **config)
        for config in configs
    ]
    if jobs > 1:
        rows = _sweep_rows_parallel(args, jobs, ctx, configs)
        name = args.graph
    else:
        graph, name = _resolve_graph(args.graph, args.scale)
        recorder = _open_recorder(args, source="cli:sweep")
        rows = []
        for value, executor in zip(args.values, executors, strict=True):
            result = run_gpu_coloring(
                graph,
                args.algorithm,
                executor,
                seed=args.seed,
                context=ctx,
                recorder=recorder,
                dataset=name,
                scale=args.scale,
            )
            rows.append(
                {
                    args.parameter: value,
                    "time_ms": round(result.time_ms, 4),
                    "colors": result.num_colors,
                    "iterations": result.num_iterations,
                }
            )
        if recorder is not None:
            recorder.close()
    print(
        format_table(
            rows,
            title=f"{name}: {args.algorithm} ({args.mapping}/{args.schedule}) "
            f"sweep over {args.parameter}",
        )
    )
    return 0


def _sweep_rows_parallel(
    args: argparse.Namespace, jobs: int, ctx: RunContext, configs: list[dict]
) -> list[dict]:
    """Sweep points as self-contained batch cells across worker processes."""
    from .harness.batch import BatchJob, run_batch

    cells = [
        BatchJob(
            dataset=args.graph,
            algorithm=args.algorithm,
            mapping=args.mapping,
            schedule=args.schedule,
            seed=args.seed,
            config=config,
            label=f"{args.graph}:{args.parameter}={value}",
        )
        for value, config in zip(args.values, configs, strict=True)
    ]
    recorder = _open_recorder(args, source="cli:sweep")
    try:
        batch_rows = run_batch(
            cells,
            scale=args.scale,
            context=ctx,
            parallel_jobs=jobs,
            recorder=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()
    return [
        {
            args.parameter: value,
            "time_ms": round(float(row["time_ms"]), 4),
            "colors": row["colors"],
            "iterations": row["iterations"],
        }
        for value, row in zip(args.values, batch_rows, strict=True)
    ]


def _cmd_batch(args: argparse.Namespace) -> int:
    from .harness.batch import BatchJob, run_batch, save_rows_csv, save_rows_json

    datasets = list(SUITE) if args.datasets == ["all"] else args.datasets
    for name in datasets:
        if name not in SUITE:
            raise SystemExit(
                f"error: {name!r} is not a suite dataset ({', '.join(SUITE)})"
            )
    if args.algorithms == "all":
        algorithms = sorted(GPU_ALGORITHMS)
    else:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for algo in algorithms:
        if algo not in GPU_ALGORITHMS:
            raise SystemExit(
                f"error: {algo!r} is not a GPU algorithm "
                f"({', '.join(sorted(GPU_ALGORITHMS))})"
            )
    jobs = [
        BatchJob(
            dataset=ds,
            algorithm=algo,
            mapping=args.mapping,
            schedule=args.schedule,
            seed=args.seed,
        )
        for ds in datasets
        for algo in algorithms
    ]
    recorder = _open_recorder(args, source="cli:batch")
    try:
        rows = run_batch(
            jobs,
            scale=args.scale,
            context=_make_context(args),
            deep_validate=args.deep_validate,
            parallel_jobs=args.jobs,
            recorder=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()
    display = [
        {
            "job": r["job"],
            "colors": r["colors"],
            "iters": r["iterations"],
            "cycles": round(float(r["cycles"]), 1),
            "time_ms": round(float(r["time_ms"]), 4),
            "simd_eff": round(float(r["simd_eff"]), 3),
        }
        for r in rows
    ]
    workers = f", jobs={args.jobs}" if args.jobs > 1 else ""
    print(
        format_table(
            display,
            title=f"batch: {len(rows)} cells (scale={args.scale}{workers})",
        )
    )
    if args.output:
        out = Path(args.output)
        if out.suffix == ".csv":
            save_rows_csv(rows, out)
        else:
            save_rows_json(rows, out)
        print(f"\nrows -> {out}")
    return 0


def _print_envelope(
    command: str,
    ok: bool,
    items: list[dict[str, object]],
    **extras: object,
) -> None:
    """Emit the unified ``repro check`` JSON envelope.

    Every check subcommand's ``--json`` output has the same shape:
    ``{"command": "check.<sub>", "ok": bool, "items": [...]}`` where
    each item carries its subject key (``rule`` / ``kernel`` /
    ``algorithm`` / ``cell``), a ``verdicts`` mapping, and an
    ``issues`` list (empty when clean); extras ride at the top level.
    """
    doc: dict[str, object] = {"command": f"check.{command}", "ok": ok}
    doc.update(extras)
    doc["items"] = items
    print(json.dumps(doc, indent=2))


def _cmd_check_validate(args: argparse.Namespace) -> int:
    from .check.validators import validate_run

    graph, name = _resolve_graph(args.graph, args.scale)
    algorithms = sorted(GPU_ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    rows = []
    items: list[dict[str, object]] = []
    failed = 0
    for algo in algorithms:
        ctx = _make_context(args)
        ring = ctx.enable_tracing()
        executor = ctx.executor(mapping=args.mapping, schedule=args.schedule)
        result = run_gpu_coloring(graph, algo, executor, seed=args.seed, context=ctx)
        report = validate_run(graph, result, events=ring, device=ctx.device)
        rows.append(
            {
                "algorithm": algo,
                "colors": result.num_colors,
                "checks": report.checks_run,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "status": "ok" if report.ok else "FAILED",
            }
        )
        items.append(
            {
                "algorithm": algo,
                "verdicts": {"validation": "ok" if report.ok else "failed"},
                "issues": [str(e) for e in report.errors],
                "detail": {
                    "colors": result.num_colors,
                    "checks": report.checks_run,
                    "warnings": len(report.warnings),
                },
            }
        )
        if not report.ok:
            failed += 1
            if not args.json:
                print(report.summary())
                print()
    if args.json:
        _print_envelope(
            "validate",
            failed == 0,
            items,
            graph=name,
            mapping=args.mapping,
            schedule=args.schedule,
            seed=args.seed,
        )
    else:
        print(
            format_table(
                rows,
                title=f"{name}: invariant validation "
                f"({args.mapping}/{args.schedule}, seed {args.seed})",
            )
        )
    return 1 if failed else 0


def _cmd_check_races(args: argparse.Namespace) -> int:
    from .check.races import scan_algorithm_races

    graph, name = _resolve_graph(args.graph, args.scale)
    algorithms = (
        sorted(GPU_ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    )
    failed = 0
    items: list[dict[str, object]] = []
    for algo in algorithms:
        scan = scan_algorithm_races(
            graph,
            algo,
            seed=args.seed,
            wavefront_size=args.wavefront_size,
        )
        if args.json:
            items.append(
                {
                    "algorithm": scan.algorithm,
                    "verdicts": {
                        "races": "clean" if scan.ok else "unexpected-races"
                    },
                    "issues": [f.describe() for f in scan.unexpected[:20]],
                    "detail": {
                        "findings": len(scan.findings),
                        "unexpected": len(scan.unexpected),
                        "racy_arrays": scan.racy_arrays,
                        "total_accesses": scan.total_accesses,
                    },
                }
            )
        else:
            print(f"{name}: {scan.summary()}")
            if args.details:
                for f in scan.findings:
                    print(f"    {f.describe()}")
            if scan.truncated:
                print(f"    (per-array finding cap hit; omitted: {scan.truncated})")
        if not scan.ok:
            failed += 1
    if args.json:
        _print_envelope(
            "races", failed == 0, items, graph=name, seed=args.seed
        )
    return 1 if failed else 0


def _cmd_check_lint(args: argparse.Namespace) -> int:
    from .check.lint import RULES, lint_paths

    if args.explain:
        if args.json:
            _print_envelope(
                "lint",
                True,
                [
                    {
                        "rule": rule,
                        "verdicts": {"lint": "documented"},
                        "issues": [],
                        "detail": {"description": desc},
                    }
                    for rule, desc in sorted(RULES.items())
                ],
                explain=True,
            )
        else:
            for rule, desc in sorted(RULES.items()):
                print(f"{rule}: {desc}")
        return 0
    violations = lint_paths(tuple(args.paths))
    n_files = sum(
        len(list(Path(p).rglob("*.py"))) if Path(p).is_dir() else 1
        for p in args.paths
    )
    if args.json:
        by_rule: dict[str, list[str]] = {rule: [] for rule in sorted(RULES)}
        for v in violations:
            by_rule.setdefault(v.rule, []).append(str(v))
        _print_envelope(
            "lint",
            not violations,
            [
                {
                    "rule": rule,
                    "verdicts": {"lint": "clean" if not found else "violated"},
                    "issues": found,
                }
                for rule, found in by_rule.items()
            ],
            files=n_files,
        )
        return 1 if violations else 0
    for v in violations:
        print(v)
    status = "clean" if not violations else f"{len(violations)} violations"
    print(f"repro lint: {n_files} files, {status}")
    return 1 if violations else 0


def _cmd_check_golden(args: argparse.Namespace) -> int:
    from .check.determinism import (
        check_drift,
        golden_digests,
        load_golden,
        save_golden,
    )

    current = golden_digests(scale=args.scale, seed=args.seed)
    baseline_path = Path(args.baseline)
    if args.write:
        save_golden(current, baseline_path)
        print(f"wrote {len(current)} golden digests -> {baseline_path}")
        return 0
    if not baseline_path.exists():
        raise SystemExit(
            f"error: no baseline at {baseline_path}; create one with --write"
        )
    report = check_drift(load_golden(baseline_path), current)
    if args.json:
        items: list[dict[str, object]] = []
        flagged = set(report.drifted) | set(report.missing) | set(report.extra)
        for d in current:
            if d.key not in flagged:
                items.append(
                    {"cell": d.key, "verdicts": {"golden": "matched"}, "issues": []}
                )
        for key, diffs in sorted(report.drifted.items()):
            items.append(
                {"cell": key, "verdicts": {"golden": "drifted"}, "issues": diffs}
            )
        for key in report.missing:
            items.append(
                {
                    "cell": key,
                    "verdicts": {"golden": "missing"},
                    "issues": ["in baseline but not in current run"],
                }
            )
        for key in report.extra:
            items.append(
                {
                    "cell": key,
                    "verdicts": {"golden": "new"},
                    "issues": ["in current run but not in baseline"],
                }
            )
        _print_envelope(
            "golden",
            report.ok,
            items,
            matched=report.matched,
            drifted=len(report.drifted),
            missing=len(report.missing),
            extra=len(report.extra),
        )
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_check_flow(args: argparse.Namespace) -> int:
    from .check.flow import analyze_algorithm, predict_imbalance

    algorithms = (
        sorted(GPU_ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    )
    graph = graph_name = None
    if args.graph is not None:
        graph, graph_name = _resolve_graph(args.graph, args.scale)

    payload = []
    unknown = 0
    for algo in algorithms:
        try:
            report = analyze_algorithm(algo, mapping=args.mapping)
        except KeyError:
            # not every algorithm has kernels under every mapping
            if not args.json:
                print(f"{algo}: no {args.mapping}-mapping kernels (skipped)")
            continue
        entry = report.to_dict()
        unknown += len(report.unknown_branches)
        if graph is not None:
            pred = predict_imbalance(algo, graph.degrees, mapping=args.mapping)
            entry["prediction"] = pred.to_dict()
        payload.append((report, entry))

    if args.json:
        items = [
            {
                "algorithm": report.algorithm,
                "verdicts": {
                    "flow": "ok" if not report.unknown_branches else "unknown-variance"
                },
                "issues": [
                    f"L{b.line}: unknown-variance {b.kind}: {b.source}"
                    for b in report.unknown_branches
                ],
                "detail": entry,
            }
            for report, entry in payload
        ]
        extras: dict[str, object] = {
            "mapping": args.mapping,
            "unknown_branches": unknown,
        }
        if graph_name is not None:
            extras["graph"] = graph_name
            extras["scale"] = args.scale
        _print_envelope("flow", unknown == 0, items, **extras)
        return 1 if unknown else 0

    for report, entry in payload:
        print(f"flow:{report.algorithm} ({args.mapping} mapping)")
        for k in report.kernels:
            s = k.to_dict()["summary"]
            print(
                f"  {k.kernel}: {s['num_branches']} branches "
                f"({s['divergent_branches']} divergent, "
                f"{s['unknown_branches']} unknown), "
                f"{s['num_loops']} loops ({s['divergent_loops']} divergent), "
                f"{s['coalesced']}/{s['global_accesses']} global accesses "
                f"coalesced, {s['scattered']} scattered"
            )
            for lp in k.divergent_loops:
                print(f"    divergent loop L{lp.line}: {lp.source}")
            for w in k.warnings:
                print(f"    warning: {w}")
        pred_entry = entry.get("prediction")
        if pred_entry is not None:
            print(
                f"  predicted on {graph_name}: "
                f"imbalance {pred_entry['imbalance_factor']:.2f}, "
                f"SIMD efficiency {pred_entry['simd_efficiency']:.3f}, "
                f"wavefront CV {pred_entry['wavefront_cv']:.2f}"
            )
    status = "ok" if unknown == 0 else f"{unknown} unknown-variance branches"
    print(f"repro flow: {len(payload)} algorithms analyzed, {status}")
    return 1 if unknown else 0


def _cmd_check_verify(args: argparse.Namespace) -> int:
    from .check.flow.memsafe import cross_check, verify_algorithm

    algorithms = (
        sorted(GPU_ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    )
    reports = []
    for algo in algorithms:
        try:
            report = verify_algorithm(
                algo, mapping=args.mapping, wavefront_size=args.wavefront_size
            )
        except KeyError:
            # not every algorithm has kernels under every mapping
            if not args.json:
                print(f"{algo}: no {args.mapping}-mapping kernels (skipped)")
            continue
        reports.append(report)

    # the dynamic scan runs the thread-mapped kernels, so the
    # cross-check only applies under that mapping
    rows = graph_name = None
    if args.graph != "none" and args.mapping == "thread" and reports:
        graph, graph_name = _resolve_graph(args.graph, args.scale)
        rows = cross_check(
            graph,
            algorithms=tuple(r.algorithm for r in reports),
            seed=args.seed,
            wavefront_size=args.wavefront_size,
        )

    failed = sum(1 for r in reports if not r.ok)
    disagree = sum(1 for row in rows or [] if not row.agree)
    ok = not failed and not disagree

    if args.json:
        items = []
        for r in reports:
            issues = [
                f"unexpected may-race on {arr}" for arr in r.unexpected
            ]
            issues += [
                f"expected race not derived on {arr}"
                for arr in r.unproven_expected
            ]
            issues += [s.describe() for s in r.unproven_bounds]
            items.append(
                {
                    "algorithm": r.algorithm,
                    "verdicts": {"memsafe": "ok" if r.ok else "failed"},
                    "issues": issues,
                    "detail": r.to_dict(),
                }
            )
        extras: dict[str, object] = {"mapping": args.mapping}
        if rows is not None:
            extras["graph"] = graph_name
            extras["seed"] = args.seed
            extras["cross_check"] = [row.to_dict() for row in rows]
        _print_envelope("verify", ok, items, **extras)
        return 0 if ok else 1

    kernel_rows = []
    seen: set[str] = set()
    for r in reports:
        for k in r.kernels:
            if k.kernel in seen:
                continue
            seen.add(k.kernel)
            kernel_rows.append(
                {
                    "kernel": k.kernel,
                    "grid": k.grid,
                    "accesses": len(k.sites),
                    "in_bounds": len(k.sites) - len(k.unproven),
                    "status": "proven" if k.bounds_ok else "UNPROVEN",
                }
            )
    if kernel_rows:
        print(
            format_table(
                kernel_rows,
                title=f"kernel bounds proofs ({args.mapping} mapping)",
            )
        )
        print()
    for r in reports:
        print(r.summary())
    if rows is not None:
        print()
        print(f"cross-check on {graph_name} (seed {args.seed}):")
        for row in rows:
            status = "agree" if row.agree else "DISAGREE"
            print(
                f"  {row.algorithm}: static may-race "
                f"{list(row.static_may_race) or '[]'} vs dynamic "
                f"{list(row.dynamic_racy) or '[]'} "
                f"({row.dynamic_findings} findings) — {status}"
            )
    problems = []
    if failed:
        problems.append(f"{failed} algorithms FAILED")
    if disagree:
        problems.append(f"{disagree} cross-check disagreements")
    print(
        f"repro verify: {len(reports)} algorithms, "
        f"{'ok' if ok else '; '.join(problems)}"
    )
    return 0 if ok else 1


def _check_kernels(kernel: str | None) -> list:
    from .coloring.device_kernels import DEVICE_KERNELS

    if kernel is None:
        return list(DEVICE_KERNELS.values())
    if kernel not in DEVICE_KERNELS:
        raise SystemExit(
            f"error: no registered kernel {kernel!r}; "
            f"known: {', '.join(sorted(DEVICE_KERNELS))}"
        )
    return [DEVICE_KERNELS[kernel]]


def _cmd_check_types(args: argparse.Namespace) -> int:
    from .check.flow.overflow import certify_kernel
    from .check.flow.types import infer_kernel_types

    kernels = _check_kernels(args.kernel)
    items: list[dict[str, object]] = []
    failed = 0
    for kernel in kernels:
        tr = infer_kernel_types(kernel)
        ov = certify_kernel(kernel, tr, wavefront_size=args.wavefront_size)
        clean = tr.ok and ov.ok
        if not clean:
            failed += 1
        if args.json:
            items.append(
                {
                    "kernel": kernel.name,
                    "verdicts": {
                        "types": "ok" if tr.ok else "rejected",
                        "overflow": ov.verdict if ov.ok else "rejected",
                    },
                    "issues": [f"L{i.line}: {i.message}" for i in tr.issues]
                    + list(ov.issues),
                    "detail": {
                        "types": tr.to_dict(),
                        "overflow": ov.to_dict(),
                    },
                }
            )
            continue
        if args.details:
            print(tr.summary())
            print(ov.summary())
        else:
            print(tr.summary().splitlines()[0])
            print(ov.summary().splitlines()[0])
    if args.json:
        _print_envelope(
            "types",
            failed == 0,
            items,
            wavefront_size=args.wavefront_size,
        )
        return 1 if failed else 0
    status = "all certified" if failed == 0 else f"{failed} kernels REJECTED"
    print(f"repro types: {len(kernels)} kernels, {status}")
    return 1 if failed else 0


def _cmd_check(args: argparse.Namespace) -> int:
    handlers = {
        "validate": _cmd_check_validate,
        "races": _cmd_check_races,
        "lint": _cmd_check_lint,
        "golden": _cmd_check_golden,
        "flow": _cmd_check_flow,
        "verify": _cmd_check_verify,
        "types": _cmd_check_types,
    }
    return handlers[args.check_command](args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve import ServeApp, make_server, make_unix_server, run_server

    app = ServeApp(
        args.store,
        workers=args.workers,
        job_workers=args.job_workers,
        recover=args.recover,
    )
    if args.socket:
        server = make_unix_server(app, args.socket)
        where = args.socket
    else:
        server = make_server(app, args.host, args.port)
        where = f"http://{server.server_address[0]}:{server.server_address[1]}"
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    recovered = f", recovered {len(app.recovered)} job(s)" if args.recover else ""
    print(
        f"serving jobs on {where} (store {args.store}, "
        f"workers={args.workers}, job-workers={args.job_workers}{recovered})"
    )
    run_server(server, app, drain=args.drain, stop_event=stop)
    print("server stopped")
    return 0


def _job_client(args: argparse.Namespace):
    from .serve import ServeClient

    if args.socket:
        return ServeClient(socket_path=args.socket)
    return ServeClient(args.url)


def _print_job(view: dict, *, as_json: bool) -> None:
    if as_json:
        print(json.dumps(view, indent=2))
        return
    doc = {
        k: view[k]
        for k in (
            "job_id",
            "kind",
            "state",
            "cells",
            "cells_done",
            "attempts",
            "spec_digest",
        )
        if k in view
    }
    if view.get("error"):
        doc["error"] = view["error"]
    if "deduped" in view:
        doc["deduped"] = view["deduped"]
    print(format_kv(doc, title=f"job {view.get('job_id', '?')}"))


def _cmd_job(args: argparse.Namespace) -> int:
    from .serve import ServeError

    client = _job_client(args)
    try:
        if args.job_command == "submit":
            raw = args.spec
            if raw == "-":
                raw = sys.stdin.read()
            elif raw.startswith("@"):
                raw = Path(raw[1:]).read_text()
            try:
                spec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"error: spec is not JSON: {exc}") from None
            view = client.submit(spec)
            if args.wait:
                view = client.wait(view["job_id"], timeout=args.timeout)
            _print_job(view, as_json=args.json)
            return 0
        if args.job_command == "status":
            _print_job(client.job(args.job_id), as_json=args.json)
            return 0
        if args.job_command == "wait":
            view = client.wait(args.job_id, timeout=args.timeout)
            _print_job(view, as_json=args.json)
            return 0 if view["state"] == "done" else 1
        if args.job_command == "result":
            view = client.result(args.job_id)
            if args.json:
                print(json.dumps(view, indent=2))
            else:
                rows = [
                    {
                        "dataset": r.get("dataset"),
                        "algorithm": r.get("algorithm"),
                        "cycles": round(float(r.get("cycles", 0.0)), 1),
                        "colors": r.get("colors"),
                        "source": r.get("source"),
                    }
                    for r in view["result"]
                ]
                print(
                    format_table(
                        rows, title=f"job {args.job_id} ({len(rows)} rows)"
                    )
                )
            return 0
        if args.job_command == "cancel":
            _print_job(client.cancel(args.job_id), as_json=args.json)
            return 0
        if args.job_command == "restart":
            _print_job(client.restart(args.job_id), as_json=args.json)
            return 0
        if args.job_command == "list":
            views = client.jobs(state=args.state, limit=args.limit)
            if args.json:
                print(json.dumps(views, indent=2))
            else:
                rows = [
                    {
                        "job_id": v["job_id"],
                        "kind": v["kind"],
                        "state": v["state"],
                        "cells": f"{v['cells_done']}/{v['cells']}",
                        "submitted": v["submitted_at"],
                    }
                    for v in views
                ]
                print(format_table(rows, title=f"jobs ({len(rows)})"))
            return 0
        # health / metrics
        doc = (
            client.health() if args.job_command == "health" else client.metrics()
        )
        if args.json or args.job_command == "metrics":
            print(json.dumps(doc, indent=2))
        else:
            print(format_kv(doc, title="server health"))
        return 0
    except ServeError as exc:
        raise SystemExit(f"error: {exc}") from None
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"error: cannot reach server: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "suite": _cmd_suite,
        "color": _cmd_color,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "tune": _cmd_tune,
        "stats": _cmd_stats,
        "convert": _cmd_convert,
        "sweep": _cmd_sweep,
        "batch": _cmd_batch,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "check": _cmd_check,
        "pipeline": _cmd_pipeline,
        "db": _cmd_db,
        "serve": _cmd_serve,
        "job": _cmd_job,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
