"""Declarative pipelines — suite → cells → recorded rows.

A pipeline is a *description* of an experiment matrix (musered-recipe
style): named steps, each declaring datasets × algorithms × mappings ×
schedules × seeds (plus fixed config kwargs), at one scale. Running a
pipeline expands every step into :class:`~repro.harness.batch.BatchJob`
cells, executes them through the ordinary batch runner (serial or
``--jobs N`` parallel — rows are bit-identical either way), and records
each cell into the run store tagged ``pipeline:<name>/<step>``.

Pipelines are plain data, so they round-trip through JSON
(:func:`pipeline_from_spec` / :func:`load_pipeline`) and ship as
checked-in files a CI job can replay against a committed baseline::

    repro pipeline run report-smoke --store ci.sqlite
    repro report --store ci.sqlite --baseline tests/data/report_baseline.json \\
        --fail-on-regression
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..gpusim.device import DeviceConfig
    from ..harness.batch import BatchJob
    from .recorder import Recorder

__all__ = [
    "PIPELINES",
    "Pipeline",
    "PipelineStep",
    "load_pipeline",
    "pipeline_from_spec",
    "resolve_pipeline",
    "run_pipeline",
]


@dataclass(frozen=True)
class PipelineStep:
    """One step: a cartesian cell matrix plus fixed config kwargs."""

    name: str
    datasets: tuple[str, ...]
    algorithms: tuple[str, ...] = ("maxmin",)
    mappings: tuple[str, ...] = ("thread",)
    schedules: tuple[str, ...] = ("grid",)
    seeds: tuple[int, ...] = (0,)
    config: dict[str, Any] = field(default_factory=dict)

    def jobs(self) -> list["BatchJob"]:
        """Expand the matrix into batch cells (row-major, declared order)."""
        from ..harness.batch import BatchJob

        return [
            BatchJob(
                dataset=ds,
                algorithm=algo,
                mapping=mapping,
                schedule=schedule,
                seed=seed,
                config=dict(self.config),
            )
            for ds in self.datasets
            for algo in self.algorithms
            for mapping in self.mappings
            for schedule in self.schedules
            for seed in self.seeds
        ]

    def to_spec(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "datasets": list(self.datasets),
            "algorithms": list(self.algorithms),
            "mappings": list(self.mappings),
            "schedules": list(self.schedules),
            "seeds": list(self.seeds),
            "config": dict(self.config),
        }


@dataclass(frozen=True)
class Pipeline:
    """A named, scale-pinned sequence of steps."""

    name: str
    scale: str = "tiny"
    steps: tuple[PipelineStep, ...] = ()
    description: str = ""

    def jobs(self) -> list["BatchJob"]:
        return [job for step in self.steps for job in step.jobs()]

    def to_spec(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "scale": self.scale,
            "description": self.description,
            "steps": [s.to_spec() for s in self.steps],
        }


def pipeline_from_spec(spec: dict[str, Any]) -> Pipeline:
    """Build a :class:`Pipeline` from its plain-data description."""
    if "name" not in spec:
        raise ValueError("pipeline spec needs a 'name'")
    steps = []
    for i, raw in enumerate(spec.get("steps", [])):
        if "datasets" not in raw:
            raise ValueError(f"step {i} needs 'datasets'")
        steps.append(
            PipelineStep(
                name=str(raw.get("name", f"step{i}")),
                datasets=tuple(raw["datasets"]),
                algorithms=tuple(raw.get("algorithms", ("maxmin",))),
                mappings=tuple(raw.get("mappings", ("thread",))),
                schedules=tuple(raw.get("schedules", ("grid",))),
                seeds=tuple(int(s) for s in raw.get("seeds", (0,))),
                config=dict(raw.get("config", {})),
            )
        )
    return Pipeline(
        name=str(spec["name"]),
        scale=str(spec.get("scale", "tiny")),
        steps=tuple(steps),
        description=str(spec.get("description", "")),
    )


def load_pipeline(path: str | Path) -> Pipeline:
    """Load a pipeline from a JSON spec file."""
    return pipeline_from_spec(json.loads(Path(path).read_text()))


#: Built-in pipelines. ``report-smoke`` is the CI regression-gate
#: matrix: every structural class (skewed + uniform), the paper's
#: baseline and stealing schedules, tiny scale so the gate stays fast.
PIPELINES: dict[str, Pipeline] = {
    p.name: p
    for p in [
        Pipeline(
            name="report-smoke",
            scale="tiny",
            description="CI regression gate: 3 graphs × 3 algorithms × 2 schedules",
            steps=(
                PipelineStep(
                    name="grid",
                    datasets=("rmat", "powerlaw", "grid2d"),
                    algorithms=("maxmin", "jp", "speculative"),
                    schedules=("grid",),
                ),
                PipelineStep(
                    name="stealing",
                    datasets=("rmat", "powerlaw", "grid2d"),
                    algorithms=("maxmin", "jp", "speculative"),
                    schedules=("stealing",),
                ),
            ),
        ),
        Pipeline(
            name="paper-small",
            scale="small",
            description="the paper's core comparison at integration scale",
            steps=(
                PipelineStep(
                    name="approaches",
                    datasets=("rmat", "powerlaw", "road", "grid2d", "random"),
                    algorithms=("maxmin", "jp", "speculative", "hybrid-switch"),
                ),
                PipelineStep(
                    name="balancing",
                    datasets=("rmat", "powerlaw"),
                    algorithms=("maxmin",),
                    schedules=("grid", "dynamic", "stealing"),
                ),
            ),
        ),
    ]
}


def resolve_pipeline(name_or_path: str) -> Pipeline:
    """A built-in pipeline by name, or a JSON spec by path."""
    if name_or_path in PIPELINES:
        return PIPELINES[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return load_pipeline(path)
    raise KeyError(
        f"{name_or_path!r} is neither a built-in pipeline "
        f"({', '.join(sorted(PIPELINES))}) nor a spec file"
    )


def run_pipeline(
    pipeline: Pipeline,
    recorder: "Recorder",
    *,
    device: "DeviceConfig | None" = None,
    scale: str | None = None,
    jobs: int = 1,
    deep_validate: bool = False,
) -> list[dict[str, Any]]:
    """Execute every step and record every cell; returns all rows.

    Each step's rows land in the store tagged
    ``pipeline:<pipeline>/<step>``; the rows (and the recorded row
    set) are bit-identical for any ``jobs`` value.
    """
    from ..engine.context import RunContext
    from ..gpusim.device import RADEON_HD_7950
    from ..harness.batch import run_batch

    device = device if device is not None else RADEON_HD_7950
    scale = scale if scale is not None else pipeline.scale
    rows: list[dict[str, Any]] = []
    for step in pipeline.steps:
        step_recorder = recorder.with_source(f"pipeline:{pipeline.name}/{step.name}")
        rows.extend(
            run_batch(
                step.jobs(),
                scale=scale,
                context=RunContext(device=device),
                deep_validate=deep_validate,
                parallel_jobs=jobs,
                recorder=step_recorder,
            )
        )
    return rows
