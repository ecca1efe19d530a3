"""End-to-end tests for the verified lowering pipeline (flow.lower).

Covers the S44 gate (certify-before-emit, ``LoweringRefused`` on any
unproven obligation), the typed IR itself, and the C backend: the
cffi-compiled launcher must produce colors bit-identical to the
reference interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.flow.lower import (
    IRKernel,
    KernelCertificate,
    LoweringRefused,
    certificate_for,
    compile_c,
    emit_c,
    lower_all,
    lower_kernel,
    render_ir,
)
from repro.coloring.device_kernels import DEVICE_KERNELS, DeviceKernel
from repro.coloring.interp import INTERP_ALGORITHMS, ThreadLauncher, run_coloring
from repro.coloring.base import is_valid_coloring
from repro.harness.suite import build


def _kernel(fn, *, name, grid="vertex", param_dtypes=(), mapping="thread"):
    return DeviceKernel(
        name=name,
        fn=fn,
        algorithms=(),
        mapping=mapping,
        grid=grid,
        param_dtypes=tuple(param_dtypes),
    )


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    return compile_c(tmpdir=str(tmp_path_factory.mktemp("lowered")))


class TestCertificates:
    def test_all_registered_kernels_certify(self):
        for kernel in DEVICE_KERNELS.values():
            cert = certificate_for(kernel)
            assert cert.ok, cert.reasons
            assert cert.verdicts()["memsafe"] == "ok"
            assert cert.verdicts()["types"] == "ok"

    def test_certificate_serializes(self):
        cert = certificate_for(DEVICE_KERNELS["ec_decide"])
        doc = cert.to_dict()
        assert doc["kernel"] == "ec_decide"
        assert doc["ok"] is True
        assert doc["verdicts"]["overflow"] == "fits-int32"

    def test_certificate_reasons_empty_when_ok(self):
        cert = certificate_for(DEVICE_KERNELS["jp_sweep"])
        assert cert.reasons == []


class TestGate:
    def test_unsafe_subscript_is_refused(self):
        def off_by_one(tid, colors_in, colors_out):
            colors_out[tid] = colors_in[tid + 1]

        kernel = _kernel(
            off_by_one,
            name="off_by_one",
            param_dtypes=[
                ("tid", "int64"),
                ("colors_in", "int64"),
                ("colors_out", "int64"),
            ],
        )
        with pytest.raises(LoweringRefused) as exc:
            lower_kernel(kernel)
        assert "off_by_one" in str(exc.value)

    def test_missing_dtypes_refused(self):
        def untyped(tid, xs):
            xs[tid] = 0

        with pytest.raises(LoweringRefused):
            lower_kernel(_kernel(untyped, name="untyped"))

    def test_int32_overflow_refused(self):
        def bad_fold(tid, edge_u, edge_v):
            v = edge_v[tid]
            edge_v[tid] = 4 * v + 4

        kernel = _kernel(
            bad_fold,
            name="bad_fold",
            grid="edge",
            param_dtypes=[
                ("tid", "int64"),
                ("edge_u", "int64"),
                ("edge_v", "int32"),
            ],
        )
        cert = certificate_for(kernel)
        assert not cert.ok
        assert any("int32" in r for r in cert.reasons)
        with pytest.raises(LoweringRefused):
            lower_kernel(kernel)

    def test_stale_certificate_rejected(self):
        good = certificate_for(DEVICE_KERNELS["jp_sweep"])
        with pytest.raises(LoweringRefused):
            lower_kernel(DEVICE_KERNELS["maxmin_sweep"], certificate=good)


class TestIR:
    def test_lower_all_covers_registry(self):
        irs = lower_all()
        assert sorted(ir.name for ir in irs) == sorted(DEVICE_KERNELS)
        for ir in irs:
            assert isinstance(ir, IRKernel)
            assert ir.body

    def test_param_metadata(self):
        ir = lower_kernel(DEVICE_KERNELS["maxmin_sweep"])
        params = {p.name: p for p in ir.params}
        assert params["tid"].is_id
        assert params["colors_out"].written and params["colors_out"].is_array
        assert not params["indptr"].written
        assert params["round_k"].is_uniform

    def test_render_ir_is_textual(self):
        text = render_ir(lower_kernel(DEVICE_KERNELS["jp_sweep"]))
        assert "kernel jp_sweep(" in text
        assert "alloc bool[" in text


class TestEmittedC:
    def test_source_shape(self):
        source, cdef = emit_c(lower_all())
        for name in DEVICE_KERNELS:
            assert f"static void {name}(" in source
            assert f"void launch_{name}(" in cdef
        # CSR offsets are int64 in C exactly as certified
        assert "int64_t" in source

    @pytest.mark.parametrize("algorithm", INTERP_ALGORITHMS)
    def test_matches_interpreter(self, compiled, algorithm):
        for dataset in ("rmat", "grid2d"):
            graph = build(dataset, "tiny")
            want = run_coloring(graph, algorithm, ThreadLauncher())
            got = run_coloring(graph, algorithm, compiled)
            assert np.array_equal(want, got), f"{dataset}/{algorithm}"
            assert is_valid_coloring(graph, got)

    def test_wavefront_mapping_matches(self, compiled):
        graph = build("rmat", "tiny")
        want = run_coloring(graph, "maxmin", ThreadLauncher(), mapping="wavefront")
        got = run_coloring(graph, "maxmin", compiled, mapping="wavefront")
        assert np.array_equal(want, got)


class TestLauncherValidation:
    def test_compiled_rejects_wrong_dtype(self, compiled):
        graph = build("rmat", "tiny")
        n = graph.num_vertices
        with pytest.raises((TypeError, ValueError)):
            compiled.launch(
                "jp_sweep",
                n,
                indptr=graph.indptr,
                indices=graph.indices,
                priorities=np.zeros(n, dtype=np.float32),  # spec says float64
                colors_in=np.full(n, -1, dtype=np.int64),
                colors_out=np.full(n, -1, dtype=np.int64),
            )

    def test_compiled_rejects_unknown_kernel(self, compiled):
        with pytest.raises(KeyError):
            compiled.launch("no_such_kernel", 0)
