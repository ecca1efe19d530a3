"""Equivalence of the work-stealing simulator against the event loop.

``simulate_work_stealing`` reads every worker's own pops off a
precomputed timeline and visits only the events at which a worker finds
its deque empty. It must be *bit-identical* to the original
closure-per-event loop over :class:`~repro.gpusim.events.EventSimulator`
kept below as :func:`reference_work_stealing`: the same result fields
(float accumulation order included, and the makespan's type, which the
benchmark identity hashes through ``repr``) and the same sequence of
traced steal instants.

The first property draws tie-heavy and zero costs (equal times are
ordered by their ancestor time chains), slab, random, all-on-one and
fewer-chunks-than-workers owners, zero and positive overheads. The
second draws long slab runs, where victims are robbed deep into their
timelines and thieves are robbed in turn. Two replays feed the
simulator the chunk vectors of a small-scale suite run and of the
standard-scale powerlaw run the benchmark times; the executor leaves the
owner out (its contiguous slabs), and the event loop gets the slab owner
spelled out. A last property checks that leaving the owner out is the
same run as passing the slab owner.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.coloring.kernels as kernels
import repro.loadbalance.workstealing as workstealing
from repro.engine.context import RunContext
from repro.gpusim.events import EventSimulator
from repro.harness import suite
from repro.harness.runner import run_gpu_coloring
from repro.loadbalance.workstealing import (
    StealingConfig,
    StealingResult,
    simulate_work_stealing,
)
from repro.obs.sink import RingBufferSink
from repro.obs.tracer import Tracer


def reference_work_stealing(chunk_cycles, owner, config, *, tracer=None):
    """The original event-driven loop: one closure and heap event per step."""
    costs = np.asarray(chunk_cycles, dtype=np.float64).ravel()
    who = np.asarray(owner, dtype=np.int64).ravel()
    w = config.num_workers

    rng = np.random.default_rng(config.seed)
    sim = EventSimulator()

    deques: list[deque[int]] = [deque() for _ in range(w)]
    for idx in np.argsort(who, kind="stable"):
        deques[who[idx]].append(int(idx))
    remaining = costs.size

    busy = np.zeros(w, dtype=np.float64)
    overhead = np.zeros(w, dtype=np.float64)
    executed = np.zeros(w, dtype=np.int64)
    failed = np.zeros(w, dtype=np.int64)
    stats = {"attempts": 0, "hits": 0, "migrated": 0}
    makespan = 0.0

    def pick_victim(me):
        if config.steal_policy == "richest":
            sizes = [len(d) for d in deques]
            sizes[me] = -1
            best = int(np.argmax(sizes))
            return best if sizes[best] > 0 else None
        cand = int(rng.integers(0, w - 1))
        if cand >= me:
            cand += 1
        return cand

    def run_chunk(me, chunk, start):
        nonlocal remaining, makespan
        remaining -= 1
        cost = costs[chunk]
        end = start + cost
        busy[me] += cost
        executed[me] += 1
        failed[me] = 0
        makespan = max(makespan, end)
        sim.schedule_at(end, lambda me=me: step(me))

    def step(me):
        dq = deques[me]
        if dq:
            overhead[me] += config.pop_cycles
            run_chunk(me, dq.pop(), sim.now + config.pop_cycles)
            return
        if remaining == 0:
            return
        victim = pick_victim(me)
        stats["attempts"] += 1
        overhead[me] += config.steal_cycles
        when = sim.now + config.steal_cycles
        if victim is not None and deques[victim]:
            vdq = deques[victim]
            take = max(1, int(np.ceil(len(vdq) * config.steal_fraction)))
            stolen = [vdq.popleft() for _ in range(take)]
            stats["hits"] += 1
            stats["migrated"] += take
            failed[me] = 0
            if tracer is not None:
                tracer.sim_instant(
                    "steal", cat="steal", at=when, track=1 + me,
                    thief=me, victim=victim, chunks=take,
                )
            for extra in stolen[1:]:
                dq.appendleft(extra)
            run_chunk(me, stolen[0], when + config.pop_cycles)
            overhead[me] += config.pop_cycles
        else:
            failed[me] += 1
            if tracer is not None:
                tracer.sim_instant(
                    "steal-fail", cat="steal", at=when, track=1 + me,
                    thief=me, victim=-1 if victim is None else victim,
                )
            if failed[me] >= config.max_failed_attempts:
                return
            sim.schedule_at(when, lambda me=me: step(me))

    for me in range(w):
        sim.schedule_at(0.0, lambda me=me: step(me))
    sim.run(max_events=50 * max(1, costs.size) + 200 * w * config.max_failed_attempts)

    return StealingResult(
        makespan_cycles=makespan,
        busy_cycles=busy,
        overhead_cycles=overhead,
        chunks_executed=executed,
        steal_attempts=stats["attempts"],
        steals_succeeded=stats["hits"],
        chunks_migrated=stats["migrated"],
    )


def slab_owner(n: int, w: int) -> np.ndarray:
    """The executor's contiguous slabs: ``ceil(n / w)`` chunks per worker."""
    return np.arange(n, dtype=np.int64) // max(1, -(-n // w))


def _run_traced(fn, costs, owner, cfg):
    ring = RingBufferSink()
    res = fn(costs, owner, cfg, tracer=Tracer(ring))
    instants = [(e.name, e.cat, e.ts, e.track, e.args) for e in ring.events]
    return res, instants


def _bits(a: np.ndarray) -> tuple:
    return (a.dtype.str, a.shape, a.tobytes())


def assert_identical(costs, owner, cfg) -> StealingResult:
    """Run both simulators traced; demand exact agreement."""
    new, new_instants = _run_traced(simulate_work_stealing, costs, owner, cfg)
    ref, ref_instants = _run_traced(reference_work_stealing, costs, owner, cfg)
    assert type(new.makespan_cycles) is type(ref.makespan_cycles)
    assert repr(new.makespan_cycles) == repr(ref.makespan_cycles)
    for name in ("busy_cycles", "overhead_cycles", "chunks_executed"):
        assert _bits(getattr(new, name)) == _bits(getattr(ref, name)), name
    assert new.chunks_executed.sum() == np.asarray(costs).size
    assert (new.steal_attempts, new.steals_succeeded, new.chunks_migrated) == (
        ref.steal_attempts,
        ref.steals_succeeded,
        ref.chunks_migrated,
    )
    assert new_instants == ref_instants
    return new


# ---------------------------------------------------------------------------
# property: random configurations
# ---------------------------------------------------------------------------


@st.composite
def workloads(draw):
    w = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owners = draw(st.sampled_from(["slab", "random", "one", "sparse"]))
    n = draw(st.integers(0, w - 1)) if owners == "sparse" else draw(st.integers(0, 160))
    costs = _costs(draw(st.sampled_from(["ties", "zeros", "pareto"])), rng, n)
    if owners == "slab":
        owner = np.arange(n) // max(1, -(-n // w))
    elif owners == "random":
        owner = rng.integers(0, w, size=n)
    elif owners == "one":
        owner = np.full(n, draw(st.integers(0, w - 1)))
    else:  # fewer chunks than workers, on distinct workers
        owner = rng.permutation(w)[:n]
    cfg = StealingConfig(
        num_workers=w,
        steal_cycles=draw(st.sampled_from([0.0, 1.0, 3.0, 400.0])),
        pop_cycles=draw(st.sampled_from([0.0, 1.0, 8.0, 0.5])),
        steal_policy=draw(st.sampled_from(["random", "richest"])),
        steal_fraction=draw(st.sampled_from([0.25, 0.5, 1.0, 1e-3])),
        max_failed_attempts=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 1000)),
    )
    return costs, owner.astype(np.int64), cfg


@settings(max_examples=300, deadline=None)
@given(workloads())
def test_matches_event_loop(case):
    assert_identical(*case)


def _costs(kind: str, rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    if kind == "ties":
        return rng.choice([0.0, 1.0, 2.0, 3.0, 8.0], size=n) * scale
    if kind == "zeros":
        return np.zeros(n)
    return rng.pareto(1.2, size=n) * 100.0 + 1.0


@st.composite
def long_slab_runs(draw):
    """The executor's contiguous slabs: up to 3,000 chunks on 2, 28 or 64 workers."""
    w = draw(st.sampled_from([2, 28, 64]))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = _costs(draw(st.sampled_from(["ties", "zeros", "pareto"])), rng, n, 100.0)
    cfg = StealingConfig(
        num_workers=w,
        pop_cycles=draw(st.sampled_from([0.0, 8.0])),
        steal_policy=draw(st.sampled_from(["random", "richest"])),
        seed=draw(st.integers(0, 1000)),
    )
    return costs, np.arange(n) // -(-n // w), cfg


@settings(max_examples=40, deadline=None)
@given(long_slab_runs())
def test_matches_event_loop_on_long_slab_runs(case):
    assert_identical(*case)


def test_runaway_guard_raises_instead_of_truncating(monkeypatch):
    # the proven event bound is checked as an invariant: running past a
    # budget must raise, never return a schedule with chunks left over
    monkeypatch.setattr(workstealing, "_event_bound", lambda n, w, max_failed: 10)
    cfg = StealingConfig(num_workers=4)
    with pytest.raises(RuntimeError, match="past its bound 10"):
        simulate_work_stealing(np.full(40, 5.0), np.zeros(40, dtype=np.int64), cfg)


@pytest.mark.parametrize("makespan_zero", [True, False])
def test_makespan_type_follows_the_event_loop(makespan_zero):
    # cycles held as Python floats must still come back as np.float64
    # when positive (the benchmark identity hashes repr(total_cycles))
    costs = np.zeros(6) if makespan_zero else np.full(6, 2.0)
    cfg = StealingConfig(num_workers=3, pop_cycles=0.0, steal_cycles=0.0)
    res = assert_identical(costs, np.arange(6) % 3, cfg)
    assert type(res.makespan_cycles) is (float if makespan_zero else np.float64)


@pytest.mark.parametrize(
    "costs, owner, executed",
    [
        # Workers 0 and 1 both drain at 4.0, through 0 → 2 → 4 and 0 → 4.
        # Worker 1's pending event was scheduled by its root at 0.0,
        # worker 0's by its pop at 2.0, so worker 1 steals first although
        # its id is larger, and takes two of worker 2's three queued chunks.
        ([2, 2, 4, 1, 1, 1, 20], [0, 0, 1, 2, 2, 2, 2], [3, 3, 1]),
        # Both drain at 5.0, through 0 → 1 → 3 → 5 and 0 → 2 → 2 → 5: the
        # most recent differing ancestor (2.0 < 3.0) puts worker 1 first,
        # although the one before it (1.0 < 2.0) would favour worker 0.
        ([2, 2, 1, 3, 0, 2, 1, 1, 1, 20], [0, 0, 0, 1, 1, 1, 2, 2, 2, 2], [4, 5, 1]),
    ],
)
def test_tied_pending_times_follow_ancestor_chains(costs, owner, executed):
    cfg = StealingConfig(
        num_workers=3, pop_cycles=0.0, steal_cycles=1.0, steal_policy="richest"
    )
    res = assert_identical(np.array(costs, dtype=float), np.array(owner), cfg)
    assert res.chunks_executed.tolist() == executed


# ---------------------------------------------------------------------------
# replay: chunk vectors of real small-scale runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def captured_calls():
    calls = []
    real = kernels.simulate_work_stealing

    def capture(chunk_cycles, owner, config, **kwargs):
        assert owner is None  # the executor's slabs
        owner_ = slab_owner(len(chunk_cycles), config.num_workers)
        calls.append((np.array(chunk_cycles), owner_, config))
        return real(chunk_cycles, owner, config, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "simulate_work_stealing", capture)
        for dataset in suite.suite_names():
            g = suite.build(dataset, "small")
            for mapping in ("wavefront", "hybrid"):
                ctx = RunContext(seed=3)
                ex = ctx.executor(mapping=mapping, schedule="stealing")
                run_gpu_coloring(g, "jp", ex, context=ctx)
    return calls


def test_matches_event_loop_on_suite_chunks(captured_calls):
    assert len(captured_calls) > 100
    steals = 0
    for costs, owner, cfg in captured_calls:
        steals += assert_identical(costs, owner, cfg).steal_attempts
    assert steals > 0


@pytest.fixture(scope="module")
def powerlaw_calls():
    """The chunk vectors of the benchmark's standard-scale powerlaw run."""
    calls = []
    real = kernels.simulate_work_stealing

    def capture(chunk_cycles, owner, config, **kwargs):
        assert owner is None  # the executor's slabs
        owner_ = slab_owner(len(chunk_cycles), config.num_workers)
        calls.append((np.array(chunk_cycles), owner_, config))
        return real(chunk_cycles, owner, config, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "simulate_work_stealing", capture)
        ctx = RunContext(seed=0)
        ex = ctx.executor(mapping="wavefront", schedule="stealing", chunk_size=256)
        graph = suite.build("powerlaw", "standard")
        run_gpu_coloring(graph, "jp", ex, seed=0, context=ctx, priority="random")
    return calls


def test_matches_event_loop_on_powerlaw_sweeps(powerlaw_calls):
    # the first sweep and the last with more chunks than workers
    w = powerlaw_calls[0][2].num_workers
    wide = [call for call in powerlaw_calls if call[0].size > w]
    for costs, owner, cfg in (wide[0], wide[-1]):
        assert assert_identical(costs, owner, cfg).steal_attempts > 0


# ---------------------------------------------------------------------------
# property: the omitted owner is the contiguous slabs
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(long_slab_runs(), st.integers(0, 40))
def test_omitted_owner_is_the_slab_owner(case, short):
    costs, owner, cfg = case
    if short < cfg.num_workers:  # also at most one chunk per worker
        costs = costs[:short]
        owner = slab_owner(costs.size, cfg.num_workers)
    slabs, slab_instants = _run_traced(simulate_work_stealing, costs, owner, cfg)
    omitted, instants = _run_traced(simulate_work_stealing, costs, None, cfg)
    assert type(omitted.makespan_cycles) is type(slabs.makespan_cycles)
    assert repr(omitted.makespan_cycles) == repr(slabs.makespan_cycles)
    for name in ("busy_cycles", "overhead_cycles", "chunks_executed"):
        assert _bits(getattr(omitted, name)) == _bits(getattr(slabs, name)), name
    assert (omitted.steal_attempts, omitted.steals_succeeded, omitted.chunks_migrated) == (
        slabs.steal_attempts,
        slabs.steals_succeeded,
        slabs.chunks_migrated,
    )
    assert instants == slab_instants
