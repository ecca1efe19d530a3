"""Unit tests for the static race/memory-safety verifier (memsafe)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.check.concurrency import expected_racy
from repro.check.flow.memsafe import (
    cross_check,
    verify_algorithm,
    verify_device_kernels,
    verify_kernel,
    verify_kernels,
)
from repro.check.races import scan_algorithm_races
from repro.coloring.device_kernels import DEVICE_KERNELS, DeviceKernel
from repro.graphs.csr import CSRGraph

# ----------------------------------------------------------------------
# hand-built mini-kernels, one per verdict class. Constructed directly
# (not via @device_kernel) so the global registry stays untouched.
# ----------------------------------------------------------------------


def mk_disjoint(tid, out):
    out[tid] = tid


def mk_snapshot(tid, colors_in, colors_out):
    colors_out[tid] = colors_in[tid]


def mk_atomic_fold(tid, indices, acc):
    acc[indices[tid]] = 1


def mk_scatter(tid, indptr, indices, colors_in, colors_out):
    u = 0
    for e in range(indptr[tid], indptr[tid + 1]):
        u = colors_in[indices[e]]
    colors_out[tid] = u


def mk_off_by_one(tid, colors_in, colors_out):
    colors_out[tid] = colors_in[tid + 1]


def mk_private(tid, indptr, out):
    forbidden = [0] * (indptr[tid + 1] - indptr[tid] + 1)
    for i in range(indptr[tid + 1] - indptr[tid]):
        forbidden[i] = 1
    out[tid] = forbidden[0]


def _kernel(fn, **overrides) -> DeviceKernel:
    defaults = dict(
        name=fn.__name__,
        fn=fn,
        algorithms=("test",),
        mapping="thread",
        grid="vertex",
    )
    defaults.update(overrides)
    return DeviceKernel(**defaults)


class TestMiniKernelVerdicts:
    def test_owner_indexed_write_is_race_free(self):
        report = verify_kernels((_kernel(mk_disjoint),))
        verdict = report.verdict_for("out")
        assert verdict.verdict == "race-free"
        assert "disjoint" in verdict.reason
        assert report.ok

    def test_snapshot_pair_is_synchronized(self):
        report = verify_kernels((_kernel(mk_snapshot),))
        verdict = report.verdict_for("colors")
        assert verdict.verdict == "synchronized"
        assert "sync edges" in verdict.reason

    def test_atomic_contention_is_atomic_only(self):
        kernel = _kernel(mk_atomic_fold, grid="edge", atomic_arrays=("acc",))
        report = verify_kernels((kernel,))
        verdict = report.verdict_for("acc")
        assert verdict.verdict == "atomic-only"
        assert not report.unproven_bounds

    def test_inplace_scatter_is_may_race_with_witness(self):
        report = verify_kernels(
            (_kernel(mk_scatter),), inplace=frozenset({"colors"})
        )
        verdict = report.verdict_for("colors")
        assert verdict.verdict == "may-race"
        witness = verdict.witness
        assert witness is not None
        assert witness.write.array == "colors_out"
        assert witness.other.array == "colors_in"
        assert "owner" in witness.condition
        assert report.ok  # declared in-place, so the race is expected

    def test_snapshot_makes_the_same_scatter_safe(self):
        # identical kernel, separate in/out buffers: launches synchronize
        report = verify_kernels((_kernel(mk_scatter),))
        assert report.verdict_for("colors").verdict == "synchronized"

    def test_off_by_one_read_is_flagged(self):
        report = verify_kernels((_kernel(mk_off_by_one),))
        assert not report.ok
        (bad,) = report.unproven_bounds
        assert bad.array == "colors_in"
        assert "index <=" in bad.bounds_reason

    def test_private_allocation_is_race_free_and_in_bounds(self):
        report = verify_kernels((_kernel(mk_private),))
        verdict = report.verdict_for("forbidden")
        assert verdict.verdict == "race-free"
        assert "thread-private" in verdict.reason
        assert not report.unproven_bounds

    def test_undeclared_race_fails_the_report(self):
        report = verify_kernels((_kernel(mk_scatter),), inplace=frozenset())
        shadow = verify_kernels(
            (_kernel(mk_scatter),), inplace=frozenset({"colors"})
        )
        assert report.ok  # snapshot semantics: no race to declare
        assert shadow.may_race == ["colors"]

    def test_drifted_benign_declaration_fails(self):
        # declaring a race the verifier disproves must fail loudly too
        report = verify_kernels(
            (_kernel(mk_disjoint),), inplace=frozenset({"out"})
        )
        assert not report.ok
        assert report.unproven_expected == ["out"]


# ----------------------------------------------------------------------
# the real kernel specs
# ----------------------------------------------------------------------


class TestRegisteredKernels:
    def test_every_kernel_proves_all_bounds(self):
        reports = verify_device_kernels()
        assert len(reports) == len(DEVICE_KERNELS)
        for report in reports:
            assert report.bounds_ok, [s.describe() for s in report.unproven]
            assert report.sites, f"{report.kernel} recorded no accesses"

    @pytest.mark.parametrize("algorithm", ["jp", "maxmin", "edge-centric"])
    def test_snapshot_algorithms_verify_clean(self, algorithm):
        report = verify_algorithm(algorithm)
        assert report.ok
        assert report.may_race == []
        assert report.verdict_for("colors").verdict in (
            "race-free",
            "synchronized",
        )

    @pytest.mark.parametrize(
        "algorithm", ["speculative", "hybrid-switch", "partitioned"]
    )
    def test_inplace_algorithms_report_declared_race(self, algorithm):
        report = verify_algorithm(algorithm)
        assert report.ok
        assert report.may_race == ["colors"]
        assert report.verdict_for("colors").witness is not None

    def test_inplace_declaration_is_per_kernel(self):
        # hybrid-switch's max-min phase keeps its snapshot pair apart
        sweep = verify_kernels((DEVICE_KERNELS["maxmin_sweep"],), algorithm="hybrid-switch")
        assert sweep.ok and sweep.may_race == []
        assert sweep.expected_racy == frozenset()
        assert verify_algorithm("hybrid-switch").expected_racy == frozenset({"colors"})
        assert expected_racy("hybrid-switch") == frozenset({"colors"})

    def test_wavefront_maxmin_scratch_is_local(self):
        report = verify_algorithm("maxmin", mapping="wavefront")
        assert report.ok
        for scratch in ("scratch_max", "scratch_min"):
            verdict = report.verdict_for(scratch)
            assert verdict.verdict == "race-free"
            assert "lockstep" in verdict.reason

    def test_edge_centric_accumulators_are_atomic_only(self):
        report = verify_algorithm("edge-centric")
        assert report.verdict_for("acc_max").verdict == "atomic-only"
        assert report.verdict_for("acc_min").verdict == "atomic-only"

    def test_kernel_report_shapes(self):
        report = verify_kernel(DEVICE_KERNELS["jp_sweep"])
        doc = report.to_dict()
        assert doc["kernel"] == "jp_sweep"
        assert doc["accesses"] == doc["bounds_proven"]
        assert doc["unproven"] == []

    def test_summary_names_every_array(self):
        report = verify_algorithm("speculative")
        text = report.summary()
        for verdict in report.arrays:
            assert verdict.array in text
        assert "witness" in text


# ----------------------------------------------------------------------
# static ↔ dynamic agreement
# ----------------------------------------------------------------------


class TestCrossCheck:
    def test_all_scanners_agree(self, small_skewed):
        rows = cross_check(small_skewed, seed=0)
        assert {r.algorithm for r in rows} == {
            "jp",
            "maxmin",
            "speculative",
            "hybrid-switch",
            "edge-centric",
            "partitioned",
        }
        for row in rows:
            assert row.sound, row.to_dict()
            assert row.agree, row.to_dict()

    @pytest.mark.parametrize("algorithm", ["hybrid-switch", "partitioned"])
    def test_speculative_family_rows_have_dynamic_evidence(self, small_skewed, algorithm):
        (row,) = cross_check(small_skewed, algorithms=(algorithm,), seed=0)
        assert row.static_may_race == ("colors",)
        assert row.dynamic_racy == ("colors",)
        assert row.dynamic_findings > 0
        assert row.agree

    def test_speculative_row_has_dynamic_evidence(self, small_skewed):
        (row,) = cross_check(small_skewed, algorithms=("speculative",), seed=0)
        assert row.static_may_race == ("colors",)
        assert row.dynamic_racy == ("colors",)
        assert row.dynamic_findings > 0

    def test_row_serializes(self, triangle):
        (row,) = cross_check(triangle, algorithms=("jp",), seed=0)
        doc = row.to_dict()
        assert doc["algorithm"] == "jp"
        assert doc["agree"] is True


@st.composite
def random_graphs(draw, max_vertices=30, max_edges=90):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    u = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    v = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    return CSRGraph.from_edges(u, v, num_vertices=n)


class TestStaticProofHoldsDynamically:
    @pytest.mark.parametrize("algorithm", ["jp", "maxmin", "edge-centric"])
    @given(g=random_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_race_free_verdict_means_no_dynamic_findings(
        self, algorithm, g, seed
    ):
        # the static proof is per-spec, not per-graph: one verdict must
        # hold on every input, so replay any graph and demand silence
        assert verify_algorithm(algorithm).may_race == []
        assert expected_racy(algorithm) == frozenset()
        scan = scan_algorithm_races(g, algorithm, seed=seed)
        assert scan.ok
        assert scan.findings == []
