"""Unit tests for the simulated-race detector (repro.check.races)."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.races import (
    Access,
    AccessLog,
    AccessLoggingLauncher,
    RaceFinding,
    detect_races,
    scan_algorithm_races,
)
from repro.check.validators import validate_coloring
from repro.coloring import device_kernels
from repro.coloring.base import UNCOLORED
from repro.coloring.edge_centric import edge_centric_maxmin
from repro.coloring.interp import INTERP_ALGORITHMS, ThreadLauncher, run_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.speculative import speculative_coloring
from repro.graphs import generators as gen
from repro.harness.suite import build


class CallLog(AccessLog):
    """An access log that also keeps each ``read``/``write`` call it gets."""

    @dataclasses.dataclass
    class Call:
        array: str
        step: int
        indices: np.ndarray
        threads: np.ndarray
        write: bool
        atomic: bool

    def __init__(self, wavefront_size: int) -> None:
        super().__init__(wavefront_size)
        self.calls: list[CallLog.Call] = []

    def read(self, array, indices, threads, *, atomic=False):
        self.calls.append(self.Call(array, self.step, indices, threads, False, atomic))
        super().read(array, indices, threads, atomic=atomic)

    def write(self, array, indices, threads, *, atomic=False):
        self.calls.append(self.Call(array, self.step, indices, threads, True, atomic))
        super().write(array, indices, threads, atomic=atomic)


class TestAccessLog:
    def test_steps_advance(self):
        log = AccessLog()
        assert log.step == 0
        assert log.next_step("assign") == 1
        assert log.step_names == ["step0", "assign"]

    def test_vectorized_record(self):
        log = AccessLog()
        log.write("a", np.array([1, 2, 3]), np.array([0, 1, 2]))
        log.read("a", np.array([1]), np.array([5]))
        assert log.total_accesses == 4
        assert log.arrays == ["a"]

    def test_scalar_thread_broadcast(self):
        log = AccessLog(wavefront_size=2)
        log.read("a", np.array([1, 2, 3]), np.array([7]))
        log.write("a", np.array([1, 2, 3]), np.array([0, 0, 0]))
        findings = detect_races(log)
        assert [f.index for f in findings] == [1, 2, 3]
        for f in findings:  # one read per element, each by thread 7
            assert [(a.kind, a.thread, a.wavefront) for a in f.samples] == [
                ("r", 7, 3),
                ("w", 0, 0),
            ]

    def test_closed_steps_keep_only_racy_elements(self):
        log = AccessLog(wavefront_size=2)
        log.write("a", np.array([1, 2]), np.array([0, 0]))
        log.write("a", np.array([2, 3]), np.array([2, 2]))  # element 2 races
        before = detect_races(log)
        log.next_step("next")
        assert detect_races(log) == before
        assert [(f.array, f.index, f.step, f.num_accesses) for f in before] == [("a", 2, 0, 2)]
        tracemalloc.start()
        try:
            log.read("b", np.arange(10**5), np.arange(10**5))  # read-only: never races
            log.next_step()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1 << 16  # the closed step's 1.8 MB of columns are gone
        assert log.arrays == ["a", "b"] and log.total_accesses == 4 + 10**5
        assert detect_races(log) == before

    def test_misaligned_shapes_rejected(self):
        log = AccessLog()
        with pytest.raises(ValueError):
            log.write("a", np.array([1, 2]), np.array([0, 1, 2]))

    def test_bad_wavefront_size_rejected(self):
        with pytest.raises(ValueError):
            AccessLog(wavefront_size=0)


class TestDetectRaces:
    def test_cross_wavefront_write_write(self):
        log = AccessLog(wavefront_size=2)
        log.write("colors", np.array([5]), np.array([0]))  # wavefront 0
        log.write("colors", np.array([5]), np.array([2]))  # wavefront 1
        (finding,) = detect_races(log)
        assert finding.array == "colors" and finding.index == 5
        assert finding.has_write_write and finding.num_wavefronts == 2

    def test_read_write_conflict(self):
        log = AccessLog(wavefront_size=2)
        log.write("colors", np.array([5]), np.array([0]))
        log.read("colors", np.array([5]), np.array([2]))
        (finding,) = detect_races(log)
        assert not finding.has_write_write

    def test_same_wavefront_is_lockstep(self):
        log = AccessLog(wavefront_size=64)
        log.write("colors", np.array([5]), np.array([0]))
        log.write("colors", np.array([5]), np.array([1]))
        assert detect_races(log) == []

    def test_kernel_launch_is_a_sync_edge(self):
        log = AccessLog(wavefront_size=2)
        log.write("colors", np.array([5]), np.array([0]))
        log.next_step("second kernel")
        log.write("colors", np.array([5]), np.array([2]))
        assert detect_races(log) == []

    def test_all_atomic_contention_is_ordered(self):
        log = AccessLog(wavefront_size=2)
        log.write("ctr", np.array([0]), np.array([0]), atomic=True)
        log.write("ctr", np.array([0]), np.array([2]), atomic=True)
        assert detect_races(log) == []

    def test_read_only_element_never_races(self):
        log = AccessLog(wavefront_size=2)
        log.read("priorities", np.array([5]), np.array([0]))
        log.read("priorities", np.array([5]), np.array([2]))
        assert detect_races(log) == []

    def test_expected_racy_classification(self):
        log = AccessLog(wavefront_size=2)
        log.write("colors", np.array([5]), np.array([0]))
        log.write("colors", np.array([5]), np.array([2]))
        (finding,) = detect_races(log, expected_racy=frozenset({"colors"}))
        assert finding.expected
        assert "expected" in finding.describe()

    def test_truncation_is_counted_not_silent(self):
        log = AccessLog(wavefront_size=2)
        for elem in range(5):
            log.write("a", np.array([elem]), np.array([0]))
            log.write("a", np.array([elem]), np.array([2]))
        counts: dict[str, int] = {}
        findings = detect_races(log, max_findings_per_array=2, counts_out=counts)
        assert len(findings) == 2
        assert counts["a"] == 5

    @given(
        log=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),  # array
                st.integers(0, 5),  # element
                st.integers(0, 9),  # thread (wavefront size 2 below)
                st.booleans(),  # write
                st.booleans(),  # atomic
                st.booleans(),  # a kernel-launch sync edge before this access
            ),
            max_size=60,
        ),
        cap=st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_element_reference(self, log, cap):
        access_log = AccessLog(wavefront_size=2)
        for array, index, thread, write, atomic, sync in log:
            if sync:
                access_log.next_step()
            record = access_log.write if write else access_log.read
            record(array, np.array([index]), np.array([thread]), atomic=atomic)
        counts: dict[str, int] = {}
        got = detect_races(
            access_log,
            expected_racy={"a"},
            max_findings_per_array=cap,
            counts_out=counts,
        )
        want, want_counts = _reference_findings(log, cap)
        assert got == want
        assert counts == want_counts


def _reference_findings(log, cap):
    """The conflict rule applied one element at a time, in plain Python."""
    step = 0
    accesses: dict[tuple[str, int, int], list[Access]] = {}
    for array, index, thread, write, atomic, sync in log:
        step += sync
        accesses.setdefault((array, step, index), []).append(
            Access(array, index, "w" if write else "r", thread, thread // 2, step, atomic)
        )
    findings, counts = [], {}
    for (array, step, index), group in sorted(accesses.items()):
        wavefronts = {a.wavefront for a in group}
        writers = {a.wavefront for a in group if a.kind == "w"}
        if not writers or len(wavefronts) < 2 or all(a.atomic for a in group):
            continue
        counts[array] = counts.get(array, 0) + 1
        if counts[array] > cap:
            continue
        findings.append(
            RaceFinding(
                array=array,
                index=index,
                step=step,
                step_name=f"step{step}",
                num_accesses=len(group),
                num_wavefronts=len(wavefronts),
                has_write_write=len(writers) >= 2,
                expected=array == "a",
                samples=tuple(group[:4]),
            )
        )
    return findings, counts


class TestAlgorithmScans:
    def test_jones_plassmann_is_race_free(self, small_skewed):
        scan = scan_algorithm_races(small_skewed, "jp", seed=0)
        assert scan.ok and scan.findings == []
        assert scan.total_accesses > 0

    def test_maxmin_is_race_free(self, small_skewed):
        scan = scan_algorithm_races(small_skewed, "maxmin", seed=0)
        assert scan.ok and scan.findings == []

    def test_speculative_races_confined_to_colors(self, small_skewed):
        scan = scan_algorithm_races(small_skewed, "speculative", seed=0)
        assert scan.ok  # every race is a declared-benign one
        assert scan.findings, "speculative on a skewed graph must actually race"
        assert scan.racy_arrays == ["colors"]
        assert all(f.expected for f in scan.findings)

    def test_speculative_truncation_reported(self):
        g = gen.clique(130)  # 3 wavefronts, all adjacent: races everywhere
        scan = scan_algorithm_races(g, "speculative", seed=0, max_findings_per_array=10)
        assert len(scan.findings) == 10
        assert scan.truncated.get("colors", 0) > 0

    def test_unknown_algorithm_rejected(self, triangle):
        with pytest.raises(KeyError):
            scan_algorithm_races(triangle, "dsatur")

    @pytest.mark.parametrize("seed", [0, 7])
    def test_jp_replay_matches_real_algorithm(self, small_skewed, seed):
        scan = scan_algorithm_races(small_skewed, "jp", seed=seed)
        real = jones_plassmann_coloring(small_skewed, None, seed=seed)
        assert np.array_equal(scan.colors, real.colors)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_speculative_replay_matches_real_algorithm(self, small_skewed, seed):
        scan = scan_algorithm_races(small_skewed, "speculative", seed=seed)
        real = speculative_coloring(small_skewed, None, seed=seed)
        assert np.array_equal(scan.colors, real.colors)

    @pytest.mark.parametrize("algorithm", sorted(INTERP_ALGORITHMS))
    def test_replayed_colorings_are_proper(self, small_skewed, algorithm):
        scan = scan_algorithm_races(small_skewed, algorithm, seed=1)
        assert validate_coloring(small_skewed, scan.colors).ok

    def test_summary_states_verdict(self, small_skewed):
        scan = scan_algorithm_races(small_skewed, "speculative", seed=0)
        assert "ok" in scan.summary()
        assert "colors" in scan.summary()

    def test_edge_centric_is_race_free(self, small_skewed):
        # atomic acc_max/acc_min folds plus snapshot decide: no findings
        scan = scan_algorithm_races(small_skewed, "edge-centric", seed=0)
        assert scan.ok and scan.findings == []
        assert scan.total_accesses > 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_edge_centric_replay_matches_real_algorithm(self, small_skewed, seed):
        scan = scan_algorithm_races(small_skewed, "edge-centric", seed=seed)
        real = edge_centric_maxmin(small_skewed, None, seed=seed)
        assert np.array_equal(scan.colors, real.colors)

    @pytest.mark.parametrize("algorithm", ["hybrid-switch", "partitioned"])
    def test_speculative_family_races_confined_to_colors(self, small_skewed, algorithm):
        scan = scan_algorithm_races(small_skewed, algorithm, seed=0)
        assert scan.ok
        assert scan.racy_arrays == ["colors"]

    def test_racy_kernel_variant_is_caught(self, small_skewed, monkeypatch):
        # a jp sweep that also stamps its neighbors' output colors: the
        # writes collide across wavefronts, so the scan must not pass it
        def jp_sweep(tid, indptr, indices, priorities, colors_in, colors_out):
            if colors_in[tid] != UNCOLORED:
                return
            device_kernels.jp_sweep(
                tid, indptr, indices, priorities, colors_in, colors_out
            )
            for e in range(indptr[tid], indptr[tid + 1]):
                u = indices[e]
                colors_out[u] = colors_out[u]

        spec = dataclasses.replace(device_kernels.DEVICE_KERNELS["jp_sweep"], fn=jp_sweep)
        monkeypatch.setitem(device_kernels.DEVICE_KERNELS, "jp_sweep", spec)
        scan = scan_algorithm_races(small_skewed, "jp", seed=0)
        assert not scan.ok
        assert scan.unexpected
        assert scan.racy_arrays == ["colors_out"]

    def test_hybrid_switch_maxmin_phase_is_race_free(self, small_skewed):
        # the max-min phase double-buffers; only the speculative kernels
        # update colors in place
        log = AccessLog()
        run_coloring(small_skewed, "hybrid-switch", AccessLoggingLauncher(log))
        assert "maxmin_sweep#0" in log.step_names
        findings = detect_races(log, max_findings_per_array=10**9)
        assert findings
        assert {f.step_name.split("#")[0] for f in findings} == {"spec_assign", "spec_detect"}
        assert {f.array for f in findings} == {"colors"}

    def test_racy_hybrid_switch_maxmin_phase_is_caught(self, small_skewed, monkeypatch):
        # a max-min sweep that also stamps its neighbors' output colors:
        # the hybrid-switch scan must not count its races as expected
        def maxmin_sweep(tid, indptr, indices, priorities, colors_in, colors_out, round_k):
            if colors_in[tid] != UNCOLORED:
                return
            device_kernels.maxmin_sweep(
                tid, indptr, indices, priorities, colors_in, colors_out, round_k
            )
            for e in range(indptr[tid], indptr[tid + 1]):
                u = indices[e]
                colors_out[u] = colors_out[u]

        spec = dataclasses.replace(
            device_kernels.DEVICE_KERNELS["maxmin_sweep"], fn=maxmin_sweep
        )
        monkeypatch.setitem(device_kernels.DEVICE_KERNELS, "maxmin_sweep", spec)
        scan = scan_algorithm_races(small_skewed, "hybrid-switch", seed=0)
        assert not scan.ok
        assert {f.step_name.split("#")[0] for f in scan.unexpected} == {"maxmin_sweep"}
        assert {f.array for f in scan.unexpected} == {"colors_out"}


class TestAccessLoggingLauncher:
    @pytest.mark.parametrize("algorithm", INTERP_ALGORITHMS)
    def test_matches_interpreter(self, algorithm):
        graph = build("rmat", "tiny")
        want = run_coloring(graph, algorithm, ThreadLauncher())
        got = run_coloring(graph, algorithm, AccessLoggingLauncher(AccessLog()))
        assert np.array_equal(want, got)

    def test_wavefront_kernel_logs_wavefront_threads(self, small_skewed):
        log = CallLog(wavefront_size=64)
        launcher = AccessLoggingLauncher(log)
        want = run_coloring(small_skewed, "maxmin", ThreadLauncher(), mapping="wavefront")
        got = run_coloring(small_skewed, "maxmin", launcher, mapping="wavefront")
        assert np.array_equal(want, got)
        # thread wid * 64 + lane is in wavefront wid, which owns vertex wid
        writes = [c for c in log.calls if c.array == "colors_out" and c.write]
        assert writes
        for c in writes:
            assert np.array_equal(c.indices, c.threads // 64)
        assert "scratch_max" not in log.arrays  # wavefront-local, not logged
        assert detect_races(log) == []

    def test_inplace_snapshot_pair_is_one_buffer(self, triangle):
        separate, shared = AccessLog(), AccessLog()
        run_coloring(triangle, "jp", AccessLoggingLauncher(separate))
        run_coloring(
            triangle, "jp", AccessLoggingLauncher(shared, inplace=frozenset({"colors"}))
        )
        assert {"colors_in", "colors_out"} <= set(separate.arrays)
        assert "colors" in shared.arrays and "colors_in" not in shared.arrays
        assert shared.total_accesses == separate.total_accesses

    def test_one_array_under_two_names_stays_one_array(self, path5):
        # in place on a path, first-fit sees each left neighbor's new color
        def run(launcher):
            colors = np.full(5, UNCOLORED, dtype=np.int64)
            launcher.launch(
                "spec_assign", 5, indptr=path5.indptr, indices=path5.indices,
                colors_in=colors, colors_out=colors,
            )
            return colors

        assert run(ThreadLauncher()).tolist() == [0, 1, 0, 1, 0]
        assert run(AccessLoggingLauncher(AccessLog())).tolist() == [0, 1, 0, 1, 0]

    def test_atomic_arrays_are_tagged(self, triangle):
        log = CallLog(wavefront_size=1)  # every thread its own wavefront
        run_coloring(triangle, "edge-centric", AccessLoggingLauncher(log))
        tags: dict[tuple[str, str], set[bool]] = {}
        for c in log.calls:
            kernel = log.step_names[c.step].split("#")[0]
            tags.setdefault((kernel, c.array), set()).add(c.atomic)
        assert tags[("ec_edge_fold", "acc_max")] == {True}
        assert tags[("ec_edge_fold", "acc_min")] == {True}
        assert tags[("ec_edge_fold", "priorities")] == {False}
        assert tags[("ec_decide", "acc_max")] == {False}  # read outside the fold
        # the fold's writes to one accumulator come from several threads,
        # and only the atomic tag keeps them from racing
        writers: dict[int, set[int]] = {}
        for c in log.calls:
            if c.array == "acc_max" and c.write:
                for i, t in zip(c.indices.tolist(), c.threads.tolist()):
                    writers.setdefault(i, set()).add(t)
        assert max(map(len, writers.values())) >= 2
        assert detect_races(log) == []

    def test_each_launch_is_a_step(self, triangle):
        log = AccessLog()
        run_coloring(triangle, "jp", AccessLoggingLauncher(log))
        assert log.step == 3  # one jp sweep per vertex of K3
        assert log.step_names[1:] == ["jp_sweep#0", "jp_sweep#1", "jp_sweep#2"]
