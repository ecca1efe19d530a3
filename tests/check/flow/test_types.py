"""Unit tests for the dtype/shape inference pass (repro.check.flow.types)."""

from __future__ import annotations

from repro.check.flow.types import (
    AbsType,
    infer_all_types,
    infer_kernel_types,
    parse_dtype,
)
from repro.coloring.device_kernels import DEVICE_KERNELS, DeviceKernel


def _kernel_from(fn, *, name, grid, param_dtypes, mapping="thread"):
    return DeviceKernel(
        name=name,
        fn=fn,
        algorithms=(),
        mapping=mapping,
        grid=grid,
        param_dtypes=tuple(param_dtypes),
    )


class TestRegisteredKernels:
    def test_every_kernel_types_cleanly(self):
        reports = infer_all_types()
        assert len(reports) == len(DEVICE_KERNELS)
        for report in reports:
            assert report.ok, report.summary()

    def test_array_shapes_follow_csr_contract(self):
        report = infer_kernel_types(DEVICE_KERNELS["maxmin_sweep"])
        assert report.arrays["indptr"].shape == "n + 1"
        assert report.arrays["indices"].shape == "m"
        assert report.arrays["colors_out"].shape == "n"
        assert report.arrays["indices"].elem.name == "int32"

    def test_implicit_widenings_are_recorded(self):
        # colors_out[tid] = 2 * round_k stores int32 arithmetic into an
        # int64 array: allowed, but the cast must be made explicit.
        report = infer_kernel_types(DEVICE_KERNELS["maxmin_sweep"])
        assert len(report.casts) == 2
        assert all("int32 → int64" in c for c in report.casts)

    def test_private_array_is_shaped_by_its_alloc(self):
        report = infer_kernel_types(DEVICE_KERNELS["jp_sweep"])
        forbidden = report.arrays["forbidden"]
        assert forbidden.space == "private"
        assert forbidden.elem.name == "bool"
        assert forbidden.shape == "degree + 1"


class TestRejections:
    def test_missing_param_dtypes_rejected(self):
        def k(tid, xs):
            xs[tid] = 0

        kernel = _kernel_from(
            k, name="k", grid="vertex", param_dtypes=[]
        )
        report = infer_kernel_types(kernel)
        assert not report.ok
        assert any("dtype" in i.message for i in report.issues)

    def test_mixed_int_float_arith_rejected(self):
        def k(tid, xs, ps):
            xs[tid] = xs[tid] + ps[tid]

        kernel = _kernel_from(
            k,
            name="k",
            grid="vertex",
            param_dtypes=[("tid", "int64"), ("xs", "int64"), ("ps", "float64")],
        )
        report = infer_kernel_types(kernel)
        assert not report.ok
        assert any("mixed" in i.message for i in report.issues)

    def test_narrowing_store_rejected(self):
        def k(tid, small, big):
            small[tid] = big[tid]

        kernel = _kernel_from(
            k,
            name="k",
            grid="vertex",
            param_dtypes=[("tid", "int64"), ("small", "int32"), ("big", "int64")],
        )
        report = infer_kernel_types(kernel)
        assert not report.ok
        assert any("narrow" in i.message for i in report.issues)


class TestAbsType:
    def test_parse_round_trips_names(self):
        for name in ("bool", "int32", "int64", "float32", "float64"):
            parsed = parse_dtype(name)
            assert parsed is not None and parsed.name == name

    def test_unknown_dtype_is_none(self):
        assert parse_dtype("complex128") is None

    def test_weak_literals_concretize(self):
        weak = AbsType("int", 64, weak=True)
        assert weak.strong().weak is False
        assert weak.strong().name == "int64"
