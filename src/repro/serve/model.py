"""Job model — specs, validation, expansion, and the dedup digest.

A *job* is a request the server (:mod:`repro.serve.app`) accepts over
the wire: a plain-JSON spec naming one of four kinds of work, all of
which reduce to the same thing — an ordered list of
:class:`~repro.harness.batch.BatchJob` cells at one scale on one
device:

* ``color`` — a single coloring run (one cell);
* ``sweep`` — one parameter swept over several values (one cell per
  value, mirroring ``repro sweep``);
* ``batch`` — a datasets × algorithms matrix (``repro batch``);
* ``pipeline`` — a built-in or inline declarative pipeline
  (:mod:`repro.store.pipeline`); its cells keep their per-step
  ``pipeline:<name>/<step>`` source tags, so rows recorded through the
  server are bit-identical to ``repro pipeline run``.

:func:`normalize_spec` validates a raw spec against the same registries
the CLI uses (suite datasets, GPU algorithms, mappings, schedules,
scales) and fills defaults, so two submissions that mean the same work
normalize identically. :func:`spec_digest` then hashes the *expanded*
plan — per-cell ``config_digest`` via the run store's digest machinery
plus the (dataset, scale) pair that deterministically fixes the graph
content — giving the server its request-dedup key: same digest ⇒ same
cells ⇒ the cached or in-flight result can be returned instead of
recomputing.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass
from typing import Any

from ..coloring.kernels import MAPPINGS, SCHEDULES
from ..gpusim.device import named_device
from ..harness.batch import BatchJob, sweep_config
from ..harness.runner import GPU_ALGORITHMS
from ..harness.suite import SCALES, SUITE
from ..store.db import config_digest

__all__ = [
    "JOB_KINDS",
    "JobPlan",
    "SpecError",
    "expand_spec",
    "new_job_id",
    "normalize_spec",
    "spec_digest",
]

#: accepted values of a spec's ``kind`` field.
JOB_KINDS = ("color", "sweep", "batch", "pipeline")

#: parameters ``sweep`` jobs may vary (mirrors the CLI).
SWEEP_PARAMETERS = ("chunk_size", "degree_threshold", "workgroup_size")


class SpecError(ValueError):
    """A submitted job spec is malformed (HTTP 400 on the wire)."""


def new_job_id() -> str:
    """A fresh, collision-safe job id."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class JobPlan:
    """A spec expanded into executable cells.

    ``groups`` pairs each contiguous run of cells with the ``source``
    tag its store rows carry — plain jobs record as ``"serve"``,
    pipeline steps keep their ``pipeline:<name>/<step>`` tags.
    """

    scale: str
    device: str
    groups: tuple[tuple[str, tuple[BatchJob, ...]], ...]

    @property
    def num_cells(self) -> int:
        return sum(len(cells) for _, cells in self.groups)

    @property
    def cells(self) -> list[BatchJob]:
        return [c for _, cells in self.groups for c in cells]


def _require(spec: dict, key: str, kind: str) -> Any:
    if key not in spec:
        raise SpecError(f"{kind} spec needs {key!r}")
    return spec[key]


def _check_dataset(name: Any) -> str:
    if name not in SUITE:
        raise SpecError(
            f"unknown dataset {name!r}; known: {', '.join(SUITE)}"
        )
    return str(name)


def _check_choice(value: Any, field: str, choices) -> str:
    if value not in choices:
        raise SpecError(
            f"unknown {field} {value!r}; known: {', '.join(sorted(choices))}"
        )
    return str(value)


def _check_device(name: Any) -> str:
    try:
        named_device(str(name))
    except KeyError as exc:
        raise SpecError(str(exc)) from None
    return str(name)


def _check_config(raw: Any) -> dict[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise SpecError(f"config must be an object, got {type(raw).__name__}")
    return {str(k): v for k, v in raw.items()}


def normalize_spec(raw: Any) -> dict[str, Any]:
    """Validate a raw spec and return its canonical form.

    The canonical spec is plain JSON data with every default resolved,
    so equal work normalizes to equal documents. Raises
    :class:`SpecError` on anything malformed.
    """
    if not isinstance(raw, dict):
        raise SpecError(f"job spec must be an object, got {type(raw).__name__}")
    kind = _check_choice(raw.get("kind"), "job kind", JOB_KINDS)
    spec: dict[str, Any] = {"kind": kind}
    if kind != "pipeline":
        spec["scale"] = _check_choice(raw.get("scale", "tiny"), "scale", SCALES)
        spec["mapping"] = _check_choice(
            raw.get("mapping", "thread"), "mapping", MAPPINGS
        )
        spec["schedule"] = _check_choice(
            raw.get("schedule", "grid"), "schedule", SCHEDULES
        )
        try:
            spec["seed"] = int(raw.get("seed", 0))
        except (TypeError, ValueError):
            raise SpecError(f"seed must be an integer, got {raw.get('seed')!r}") from None
    spec["device"] = _check_device(raw.get("device", "hd7950"))

    if kind == "color":
        spec["dataset"] = _check_dataset(_require(raw, "dataset", kind))
        spec["algorithm"] = _check_choice(
            raw.get("algorithm", "maxmin"), "algorithm", GPU_ALGORITHMS
        )
        spec["config"] = _check_config(raw.get("config"))
    elif kind == "sweep":
        spec["dataset"] = _check_dataset(_require(raw, "dataset", kind))
        spec["algorithm"] = _check_choice(
            raw.get("algorithm", "maxmin"), "algorithm", GPU_ALGORITHMS
        )
        spec["parameter"] = _check_choice(
            raw.get("parameter", "chunk_size"), "sweep parameter", SWEEP_PARAMETERS
        )
        values = _require(raw, "values", kind)
        if not isinstance(values, (list, tuple)) or not values:
            raise SpecError("sweep 'values' must be a non-empty list of integers")
        try:
            spec["values"] = [int(v) for v in values]
        except (TypeError, ValueError):
            raise SpecError(f"sweep values must be integers, got {values!r}") from None
    elif kind == "batch":
        datasets = _require(raw, "datasets", kind)
        if datasets == "all":
            datasets = list(SUITE)
        if not isinstance(datasets, (list, tuple)) or not datasets:
            raise SpecError("batch 'datasets' must be a non-empty list (or 'all')")
        spec["datasets"] = [_check_dataset(d) for d in datasets]
        algorithms = raw.get("algorithms", ["maxmin"])
        if algorithms == "all":
            algorithms = sorted(GPU_ALGORITHMS)
        if not isinstance(algorithms, (list, tuple)) or not algorithms:
            raise SpecError("batch 'algorithms' must be a non-empty list (or 'all')")
        spec["algorithms"] = [
            _check_choice(a, "algorithm", GPU_ALGORITHMS) for a in algorithms
        ]
        spec["config"] = _check_config(raw.get("config"))
    else:  # pipeline
        pipeline = _require(raw, "pipeline", kind)
        if isinstance(pipeline, str):
            from ..store.pipeline import PIPELINES

            _check_choice(pipeline, "pipeline", PIPELINES)
            spec["pipeline"] = pipeline
        elif isinstance(pipeline, dict):
            from ..store.pipeline import pipeline_from_spec

            try:
                spec["pipeline"] = pipeline_from_spec(pipeline).to_spec()
            except ValueError as exc:
                raise SpecError(f"bad inline pipeline: {exc}") from None
        else:
            raise SpecError("'pipeline' must be a built-in name or an inline spec")
        scale = raw.get("scale")
        if scale is not None:
            spec["scale"] = _check_choice(scale, "scale", SCALES)
    return spec


def expand_spec(spec: dict[str, Any]) -> JobPlan:
    """Expand a canonical spec into its executable :class:`JobPlan`."""
    kind = spec["kind"]
    if kind == "pipeline":
        from ..store.pipeline import PIPELINES, pipeline_from_spec

        raw = spec["pipeline"]
        pipeline = PIPELINES[raw] if isinstance(raw, str) else pipeline_from_spec(raw)
        scale = spec.get("scale") or pipeline.scale
        groups = tuple(
            (f"pipeline:{pipeline.name}/{step.name}", tuple(step.jobs()))
            for step in pipeline.steps
        )
        return JobPlan(scale=scale, device=spec["device"], groups=groups)

    common = {
        "mapping": spec["mapping"],
        "schedule": spec["schedule"],
        "seed": spec["seed"],
    }
    if kind == "color":
        cells = [
            BatchJob(
                dataset=spec["dataset"],
                algorithm=spec["algorithm"],
                config=dict(spec["config"]),
                **common,
            )
        ]
    elif kind == "sweep":
        cells = [
            BatchJob(
                dataset=spec["dataset"],
                algorithm=spec["algorithm"],
                config=sweep_config(spec["parameter"], value),
                label=f"{spec['dataset']}:{spec['parameter']}={value}",
                **common,
            )
            for value in spec["values"]
        ]
    else:  # batch
        cells = [
            BatchJob(
                dataset=ds,
                algorithm=algo,
                config=dict(spec["config"]),
                **common,
            )
            for ds in spec["datasets"]
            for algo in spec["algorithms"]
        ]
    return JobPlan(
        scale=spec["scale"],
        device=spec["device"],
        groups=(("serve", tuple(cells)),),
    )


def spec_digest(spec: dict[str, Any]) -> str:
    """Content digest of the *work* a canonical spec describes.

    Built from the expanded plan, not the spec text: each cell
    contributes its (dataset, seed) identity plus the run store's
    ``config_digest`` of its effective knobs, and the plan contributes
    scale and device. Suite graphs are deterministic functions of
    (dataset, scale), so equal digests mean equal graph *content* and
    equal configs — exactly the run store's dedup key, which is what
    lets the server hand back a cached result for a repeat submission.
    """
    plan = expand_spec(spec)
    doc = {
        "kind": spec["kind"],
        "scale": plan.scale,
        "device": plan.device,
        "groups": [
            {
                "source": source,
                "cells": [
                    {
                        "dataset": c.dataset,
                        "seed": c.seed,
                        "config_digest": config_digest(
                            c.algorithm,
                            {
                                "mapping": c.mapping,
                                "schedule": c.schedule,
                                **c.config,
                            },
                        ),
                    }
                    for c in cells
                ],
            }
            for source, cells in plan.groups
        ],
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()
