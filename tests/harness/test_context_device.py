"""The context's device wins everywhere a context is passed.

A batch or tuning run on a non-default device must time every cell on
that device's compute *and* memory parameters, whether the cells run
serially, across worker processes, or as autotune probes.
"""

import pytest

from repro.engine.context import RunContext
from repro.gpusim.device import RADEON_R9_290X
from repro.harness.autotune import autotune
from repro.harness.batch import BatchJob, run_batch
from repro.harness.runner import run_gpu_coloring
from repro.harness.suite import build

JOBS = [
    BatchJob(dataset, mapping=mapping, schedule=schedule)
    for dataset in ("rmat", "powerlaw", "grid2d")
    for mapping, schedule in (("thread", "grid"), ("hybrid", "stealing"))
]


@pytest.fixture(scope="module")
def serial_rows():
    return run_batch(JOBS, context=RunContext(device=RADEON_R9_290X), scale="small")


class TestBatchOnContextDevice:
    def test_parallel_rows_identical_to_serial(self, serial_rows):
        parallel = run_batch(
            JOBS,
            context=RunContext(device=RADEON_R9_290X),
            scale="small",
            parallel_jobs=2,
        )
        assert parallel == serial_rows

    def test_serial_rows_time_on_the_context_device(self, serial_rows):
        for job, row in zip(JOBS, serial_rows, strict=True):
            ctx = RunContext(device=RADEON_R9_290X)
            result = run_gpu_coloring(
                build(job.dataset, "small"),
                job.algorithm,
                ctx.executor(mapping=job.mapping, schedule=job.schedule),
                seed=job.seed,
            )
            assert row["cycles"] == result.total_cycles, job.name


class TestAutotuneOnContextDevice:
    def test_scoreboard_matches_a_fresh_context(self):
        # a context already used for a batch: warm plans change nothing
        graph = build("rmat", "small")
        ctx = RunContext(device=RADEON_R9_290X)
        run_batch(JOBS[:2], context=ctx, scale="small")
        used = autotune(graph, seed=0, context=ctx)
        fresh = autotune(graph, seed=0, context=RunContext(device=RADEON_R9_290X))
        assert used.scoreboard == fresh.scoreboard
        assert used.best == fresh.best

    def test_probes_time_on_the_context_device(self):
        graph = build("powerlaw", "small")
        out = autotune(
            graph, probe_fraction=1.0, context=RunContext(device=RADEON_R9_290X)
        )
        for cfg, cycles in out.scoreboard:
            ex = RunContext(device=RADEON_R9_290X).executor(cfg)
            assert cycles == ex.time_iteration(graph.degrees).cycles, cfg
