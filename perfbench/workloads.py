"""Workload and metric definitions of the benchmark.

Every execution-config field is spelled out, so a change to a library
default cannot silently change what a workload measures. The seed-0
identities pin the output: a change that moves colors, sweeps or
simulated cycles makes the benchmark fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: seconds one run measures (the default of --seconds)
RUN_SECONDS = 30

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPS = 5

#: priority seeds an untraced coloring run cycles through: the sweep
#: count varies by about 8% between seeds, and a median over several
#: seeds depends less on any one of them
SUBSEEDS = 5

#: poll interval of the served workload's client, in seconds
POLL_S = 0.01

#: every GPU algorithm of the harness, in the order a batch job runs them
GPU_ALGORITHMS = (
    "edge-centric",
    "hybrid-switch",
    "jp",
    "maxmin",
    "partitioned",
    "speculative",
)

#: the ten suite datasets, in suite order
SUITE_DATASETS = (
    "rmat",
    "powerlaw",
    "citation",
    "road",
    "grid2d",
    "grid3d",
    "random",
    "geometric",
    "smallworld",
    "regular",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``configs`` lists ``(mapping, schedule, ExecutionConfig fields)``;
    a coloring workload has one, the served workload alternates its
    jobs over all of them. ``identities`` maps a seed to the expected
    identity digest of its output.
    """

    name: str
    why: str
    kind: str  # "coloring" or "served"
    datasets: tuple[str, ...]
    scale: str
    algorithms: tuple[str, ...]
    configs: tuple[tuple[str, str, dict], ...]
    algo_kwargs: dict = field(default_factory=dict)
    device: str = "hd7950"
    backend: str = "auto"
    identities: dict = field(default_factory=dict)


def _fields(chunk_size: int) -> dict:
    """All ``ExecutionConfig`` fields besides mapping and schedule."""
    return {
        "workgroup_size": 256,
        "degree_threshold": 64,
        "chunk_size": chunk_size,
        "sort_by_degree": False,
        "persistent_groups_per_cu": 1,
        "stealing": None,  # derived from the device, as every caller does
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rmat-maxmin",
            why=(
                "skewed rmat under the paper's thread mapping with stealing, as "
                "`repro color rmat --scale standard --schedule stealing` runs it; "
                "neighbor reductions dominate"
            ),
            kind="coloring",
            datasets=("rmat",),
            scale="standard",
            algorithms=("maxmin",),
            # the CLI's effective chunk size is 1024, not the library's 256
            configs=(("thread", "stealing", _fields(chunk_size=1024)),),
            algo_kwargs={"priority": "random"},
            identities={
                # 399 colors, 200 sweeps, 47,316,341 simulated cycles
                0: "9c25b4ee35cab33f",
            },
        ),
        Workload(
            name="powerlaw-jp-wavefront",
            why=(
                "the paper's fine-grained work stealing: powerlaw, jp, wavefront "
                "mapping, batch-default chunk_size=256; the timing model dominates"
            ),
            kind="coloring",
            datasets=("powerlaw",),
            scale="standard",
            algorithms=("jp",),
            configs=(("wavefront", "stealing", _fields(chunk_size=256)),),
            algo_kwargs={"priority": "random"},
            identities={
                # 16 colors, 96 sweeps, 5,707,180 simulated cycles
                0: "de243b35323a0c0e",
            },
        ),
        Workload(
            name="suite-served",
            why=(
                "in-process repro serve, one client submitting 10-dataset x "
                "6-algorithm small batch jobs; many small calls, store writes, "
                "plan-cache hits"
            ),
            kind="served",
            datasets=SUITE_DATASETS,
            scale="small",
            algorithms=GPU_ALGORITHMS,
            # jobs alternate between the two; serve defaults otherwise
            configs=(
                ("thread", "grid", _fields(chunk_size=256)),
                ("hybrid", "stealing", _fields(chunk_size=256)),
            ),
            identities={
                # the rows of the first two jobs (one per config)
                0: "af39aa710415e1df",
            },
        ),
    )
}


def _metric(name: str, unit: str, better: str, bound: float | None = None) -> dict:
    m = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        m["bound"] = bound
    return m


#: end-to-end metrics, measured with tracing off. The time bounds are
#: three times the worst spread between seeds (powerlaw-jp-wavefront,
#: whose sweep count varies most with the seed)
END_TO_END = (
    # one validated run_gpu_coloring call; on suite-served, one cell of a
    # job as the run store records it
    _metric("run_s_p50", "s", "lower", 0.2),
    # one closed-loop request until the caller has its checked answer: a
    # job from POST /jobs to `done` observed; on the coloring workloads, a
    # run plus its identity check
    _metric("job_s_p50", "s", "lower", 0.2),
    _metric("cells_per_s", "1/s", "higher", 0.2),
    _metric("setup_s", "s", "lower", 0.25),
    _metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: layers, as ROADMAP item 1 names their future spans
LAYERS = ("graph", "host", "nbr", "timing", "validate", "store", "serve")

#: per-layer metrics of the traced run (per operation: a run, or a round
#: of one job per config)
PER_LAYER = (
    _metric("nbr.reduce_s", "s", "lower"),
    _metric("nbr.reduce_calls", "count", "lower"),
    _metric("nbr.edges_reduced", "count", "lower"),
    _metric("nbr.useful_frac", "ratio", "higher"),
    _metric("nbr.bytes_computed", "B", "lower"),
    _metric("nbr.first_fit_s", "s", "lower"),
    _metric("nbr.first_fit_calls", "count", "lower"),
    _metric("timing.s", "s", "lower"),
    _metric("timing.calls", "count", "lower"),
    _metric("timing.sched_s", "s", "lower"),
    _metric("timing.plan_s", "s", "lower"),
    _metric("timing.plan_lookups", "count", "lower"),
    _metric("timing.plan_hit_frac", "ratio", "higher"),
    _metric("timing.chunks", "count", "lower"),
    _metric("timing.steal_attempts", "count", "lower"),
    _metric("host.self_s", "s", "lower"),
    _metric("host.sweeps", "count", "lower"),
    _metric("validate.s", "s", "lower"),
    _metric("graph.build_s", "s", "lower"),
    _metric("store.write_s", "s", "lower"),
    _metric("store.ledger_s", "s", "lower"),
    _metric("store.rows", "count", "lower"),
    _metric("serve.submit_s_p50", "s", "lower"),
    _metric("serve.overhead_s", "s", "lower"),
    *(_metric(f"{layer}.share", "ratio", "lower") for layer in LAYERS),
    _metric("trace_coverage_frac", "ratio", "higher"),
    _metric("trace_overhead_frac", "ratio", "lower"),
)

#: counters that must repeat exactly between repetitions of one seed
EXACT_COUNTS = (
    "nbr.edges_reduced",
    "timing.chunks",
    "timing.steal_attempts",
    "host.sweeps",
    "store.rows",
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": list(PER_LAYER),
    }
