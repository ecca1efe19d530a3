"""Configuration auto-tuning — pick the executor that fits the input.

The paper's bottom line is that the right technique depends on the
input's degree structure. This tuner makes that decision automatic:
probe a handful of candidate configurations on a few representative
sweeps (cheap on the simulator; on hardware this is the standard
warm-up-and-measure autotuning loop) and return the winner.

Two entry points:

* :func:`candidate_configs` — the search space the paper's techniques
  span (mapping × schedule × threshold/chunk).
* :func:`autotune` — probe and pick; returns the winning config, its
  probe time, and the full scoreboard.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..coloring.kernels import ExecutionConfig
from ..engine.context import RunContext
from ..gpusim.device import DeviceConfig
from ..graphs.csr import CSRGraph

if TYPE_CHECKING:
    from ..store.recorder import Recorder

__all__ = ["TuneOutcome", "candidate_configs", "autotune"]


def candidate_configs(
    *,
    thresholds: tuple[int, ...] = (32, 64, 128),
    chunk_sizes: tuple[int, ...] = (256, 1024),
) -> list[ExecutionConfig]:
    """The default search space: the paper's techniques and their knobs."""
    cands: list[ExecutionConfig] = [
        ExecutionConfig(mapping="thread", schedule="grid"),
        ExecutionConfig(mapping="thread", schedule="dynamic"),
    ]
    for chunk in chunk_sizes:
        cands.append(
            ExecutionConfig(mapping="thread", schedule="stealing", chunk_size=chunk)
        )
    for t in thresholds:
        cands.append(
            ExecutionConfig(mapping="hybrid", schedule="grid", degree_threshold=t)
        )
    cands.append(ExecutionConfig(mapping="hybrid", schedule="stealing"))
    cands.append(ExecutionConfig(mapping="wavefront", schedule="grid"))
    return cands


def _fit_to_device(cfg: ExecutionConfig, device: DeviceConfig) -> ExecutionConfig:
    """Clamp a candidate's workgroup/chunk sizes to the device's limits."""
    wg = min(cfg.workgroup_size, device.max_workgroup_size)
    wg -= wg % device.wavefront_size
    wg = max(wg, device.wavefront_size)
    chunk = max(cfg.chunk_size, wg)
    chunk -= chunk % wg
    if wg == cfg.workgroup_size and chunk == cfg.chunk_size:
        return cfg
    return replace(cfg, workgroup_size=wg, chunk_size=chunk)


@dataclass
class TuneOutcome:
    """Result of one autotuning session."""

    best: ExecutionConfig
    best_cycles: float
    scoreboard: list[tuple[ExecutionConfig, float]] = field(repr=False)

    def scoreboard_rows(self) -> list[dict[str, object]]:
        rows = []
        for cfg, cycles in sorted(self.scoreboard, key=lambda t: t[1]):
            rows.append(
                {
                    "mapping": cfg.mapping,
                    "schedule": cfg.schedule,
                    "threshold": cfg.degree_threshold,
                    "chunk": cfg.chunk_size,
                    "probe_cycles": round(cycles, 1),
                    "winner": cfg is self.best,
                }
            )
        return rows


def autotune(
    graph: CSRGraph,
    *,
    candidates: list[ExecutionConfig] | None = None,
    probe_fraction: float = 0.3,
    seed: int | None = None,
    context: RunContext | None = None,
    recorder: "Recorder | None" = None,
    dataset: str = "",
) -> TuneOutcome:
    """Pick the fastest configuration for ``graph`` by probing.

    Each candidate times one synthetic sweep over a random sample of
    ``probe_fraction`` of the vertices (plus the full first sweep for
    the two leaders, as a tie-break). Deterministic given ``seed``.
    All probe executors share one context (a fresh default
    :class:`~repro.engine.context.RunContext` when ``context`` is
    omitted) and time on its device.

    With a ``recorder``, the winning configuration and full scoreboard
    are upserted into the run store's ``tunings`` table.
    """
    if not 0.0 < probe_fraction <= 1.0:
        raise ValueError("probe_fraction must be in (0, 1]")
    ctx = context if context is not None else RunContext()
    seed = ctx.resolve_seed(seed)
    candidates = candidates if candidates is not None else candidate_configs()
    if not candidates:
        raise ValueError("need at least one candidate configuration")
    candidates = [_fit_to_device(c, ctx.device) for c in candidates]

    rng = np.random.default_rng(seed)
    deg = graph.degrees
    sample_size = max(1, int(round(probe_fraction * deg.size)))
    sample = (
        deg
        if sample_size >= deg.size
        else deg[rng.choice(deg.size, size=sample_size, replace=False)]
    )

    tracer = ctx.tracer
    span = (
        tracer.span("autotune", candidates=len(candidates))
        if tracer is not None
        else nullcontext()
    )
    with span:
        scoreboard: list[tuple[ExecutionConfig, float]] = []
        for cfg in candidates:
            ex = ctx.executor(cfg)
            cycles = ex.time_iteration(sample, name="probe").cycles
            if tracer is not None:
                tracer.instant(
                    f"probe:{cfg.mapping}+{cfg.schedule}",
                    cat="autotune",
                    mapping=cfg.mapping,
                    schedule=cfg.schedule,
                    degree_threshold=cfg.degree_threshold,
                    chunk_size=cfg.chunk_size,
                    probe_cycles=cycles,
                )
            scoreboard.append((cfg, cycles))
        scoreboard.sort(key=lambda t: t[1])

        # tie-break the two leaders on a full sweep
        leaders = scoreboard[:2]
        if len(leaders) == 2 and leaders[1][1] < 1.1 * leaders[0][1]:
            rescored = []
            for cfg, _ in leaders:
                ex = ctx.executor(cfg)
                rescored.append((cfg, ex.time_iteration(deg, name="probe-full").cycles))
            rescored.sort(key=lambda t: t[1])
            best_cfg, best_cycles = rescored[0]
        else:
            best_cfg, best_cycles = scoreboard[0]

        if tracer is not None:
            tracer.instant(
                "autotune-winner",
                cat="autotune",
                mapping=best_cfg.mapping,
                schedule=best_cfg.schedule,
                best_cycles=best_cycles,
            )
    outcome = TuneOutcome(best=best_cfg, best_cycles=best_cycles, scoreboard=scoreboard)
    if recorder is not None:
        recorder.record_tuning(graph, outcome, seed=seed, dataset=dataset)
    return outcome
