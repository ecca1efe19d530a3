"""End-to-end observability tests: tracing a real coloring run.

The two contracts that matter most:

* **determinism** — attaching a tracer must not perturb the simulation
  (traced and untraced runs report identical cycles and colorings);
* **coverage** — a traced stealing-schedule run produces kernel events,
  steal instants, and a phase span, and the registry's aggregates agree
  with the executor's own counters.
"""

import numpy as np
import pytest

from repro.engine.context import RunContext
from repro.graphs.generators import rmat
from repro.harness.runner import run_gpu_coloring
from repro.loadbalance.workstealing import StealingConfig, simulate_work_stealing
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import RingBufferSink
from repro.obs.tracer import Tracer


def colored(ctx, schedule="grid", mapping="thread", scale=7, seed=3):
    g = rmat(scale, seed=seed)
    ex = ctx.executor(mapping=mapping, schedule=schedule)
    return run_gpu_coloring(g, "maxmin", executor=ex, seed=1, context=ctx)


class TestDeterminism:
    @pytest.mark.parametrize("schedule", ["grid", "dynamic", "stealing"])
    def test_traced_run_cycles_identical(self, schedule):
        plain = colored(RunContext(), schedule=schedule)
        ctx = RunContext()
        ctx.enable_tracing()
        traced = colored(ctx, schedule=schedule)
        assert traced.total_cycles == plain.total_cycles
        assert traced.num_colors == plain.num_colors
        np.testing.assert_array_equal(traced.colors, plain.colors)

    def test_stealing_simulator_unperturbed_by_tracer(self):
        rng = np.random.default_rng(0)
        costs = rng.pareto(1.2, size=64) * 100 + 10
        owner = np.zeros(64, dtype=np.int64)
        cfg = StealingConfig(num_workers=8, seed=4)
        plain = simulate_work_stealing(costs, owner, cfg)
        ring = RingBufferSink()
        traced = simulate_work_stealing(costs, owner, cfg, tracer=Tracer(ring))
        assert traced.makespan_cycles == plain.makespan_cycles
        assert traced.steal_attempts == plain.steal_attempts
        np.testing.assert_array_equal(traced.busy_cycles, plain.busy_cycles)
        # and the instants match the result's own books
        steals = [e for e in ring.events if e.name == "steal"]
        assert len(steals) == traced.steals_succeeded
        assert sum(e.args["chunks"] for e in steals) == traced.chunks_migrated


class TestCoverage:
    def test_traced_run_emits_kernels_and_span(self):
        ctx = RunContext()
        ring = ctx.enable_tracing()
        colored(ctx)
        cats = {e.cat for e in ring.events}
        assert "kernel" in cats
        assert "phase" in cats
        span = next(e for e in ring.events if e.cat == "phase")
        assert span.name == "color:maxmin"
        kernels = [e for e in ring.events if e.cat == "kernel"]
        assert all(e.args.get("phase") == "color:maxmin" for e in kernels)

    def test_stealing_run_emits_steal_instants(self):
        costs = np.full(64, 50.0)
        owner = np.zeros(64, dtype=np.int64)
        ring = RingBufferSink()
        tr = Tracer(ring)
        res = simulate_work_stealing(
            costs, owner, StealingConfig(num_workers=8, seed=0), tracer=tr
        )
        assert res.steals_succeeded > 0
        steal_events = [e for e in ring.events if e.cat == "steal"]
        assert steal_events
        ok = [e for e in steal_events if e.name == "steal"]
        assert all(e.args["thief"] != e.args["victim"] for e in ok)
        assert all(e.track == 1 + e.args["thief"] for e in ok)

    def test_registry_agrees_with_executor_counters(self):
        ctx = RunContext()
        registry = MetricsRegistry()
        ctx.enable_tracing(registry=registry)
        colored(ctx)
        tot = registry.totals()
        assert tot.kernels == ctx.counters.kernels_launched
        assert tot.kernel_cycles == pytest.approx(ctx.counters.total_cycles)

    def test_enable_tracing_capacity_bounds_buffer(self):
        ctx = RunContext()
        ring = ctx.enable_tracing(capacity=4)
        colored(ctx)
        assert len(ring) <= 4
        assert ring.emitted > 4
        assert ring.dropped == ring.emitted - len(ring)
