"""Static work models and the load-imbalance predictor (repro.check.flow.imbalance).

The acceptance half cross-validates the predictor against the
simulator: Spearman rank correlation ≥ 0.8 between statically
predicted and dynamically measured static-persistent imbalance across
the generator graph zoo (the ISSUE criterion; the benchmark asserts
the same at bench scale).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.check.flow.imbalance import (
    DEG,
    ONE,
    START,
    VID,
    ZERO,
    SymLin,
    algorithm_work_models,
    predict_imbalance,
    spearman,
    work_model,
)
from repro.coloring.device_kernels import DEVICE_KERNELS, DeviceKernel
from repro.engine.context import RunContext
from repro.harness.suite import SUITE, build
from repro.metrics import imbalance_factor


class TestSymLin:
    def test_arithmetic(self):
        assert DEG + ONE == SymLin(const=1.0, c_deg=1.0)
        assert (START + DEG) - START == DEG
        assert DEG.scale(3.0) == SymLin(c_deg=3.0)
        assert (VID + ONE) - VID == ONE

    def test_is_const(self):
        assert ONE.is_const and ZERO.is_const
        assert not DEG.is_const and not START.is_const


class TestWorkModels:
    def test_degree_loop_recognised(self):
        # the canonical kernel shape: range(indptr[v], indptr[v+1])
        def probe(tid, indptr, out):
            start = indptr[tid]
            end = indptr[tid + 1]
            for e in range(start, end):
                out[tid] = e

        model = work_model(
            DeviceKernel(name="probe", fn=probe, algorithms=(), mapping="thread", grid="vertex")
        )
        assert model.warnings == ()
        assert model.is_degree_dependent
        # loop contributes trip·(1 + body) = 2·d on top of the constants
        assert model.coeffs[1] == 2.0 and model.coeffs[2] == 0.0

    def test_evaluate_is_polynomial(self):
        def probe(tid, indptr, out):
            start = indptr[tid]
            end = indptr[tid + 1]
            for e in range(start, end):
                out[tid] = e

        model = work_model(
            DeviceKernel(name="probe", fn=probe, algorithms=(), mapping="thread", grid="vertex")
        )
        deg = np.array([0, 1, 5])
        c0, c1, c2 = model.coeffs
        assert np.allclose(model.evaluate(deg), c0 + c1 * deg + c2 * deg * deg)

    @pytest.mark.parametrize("algorithm", ["maxmin", "jp", "speculative"])
    def test_vertex_kernels_degree_dependent(self, algorithm):
        models = algorithm_work_models(algorithm)
        assert models
        for m in models:
            assert m.is_degree_dependent, m.kernel
            assert m.warnings == (), m.kernel

    def test_edge_centric_kernels_constant(self):
        for m in algorithm_work_models("edge-centric"):
            assert not m.is_degree_dependent, m.kernel
            assert m.warnings == (), m.kernel

    def test_wavefront_kernel_strided_trip(self):
        # the cooperative kernel strides by wavefront_size, so its
        # degree coefficient is ~1/64 of the thread-mapped sweep's
        (coop,) = algorithm_work_models("maxmin", mapping="wavefront")
        (flat,) = algorithm_work_models("maxmin")
        assert coop.is_degree_dependent
        assert 0 < coop.coeffs[1] < flat.coeffs[1] / 16

    def test_every_registered_kernel_models_cleanly(self):
        for kernel in DEVICE_KERNELS.values():
            model = work_model(kernel)
            assert model.warnings == (), (kernel.name, model.warnings)

    def test_to_dict_serializable(self):
        (m,) = algorithm_work_models("jp")
        assert json.loads(json.dumps(m.to_dict()))["degree_dependent"] is True


class TestSpearman:
    def test_perfect_and_reversed(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x * 10 + 3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_monotone_nonlinear_is_perfect(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_ties_average_ranks(self):
        # both all-tied: zero rank variance → defined as 0
        assert spearman(np.ones(4), np.ones(4)) == 0.0
        x = np.array([1.0, 1.0, 2.0])
        y = np.array([5.0, 5.0, 9.0])
        assert spearman(x, y) == pytest.approx(1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            spearman(np.arange(3), np.arange(4))

    def test_degenerate_sizes(self):
        assert spearman(np.array([1.0]), np.array([2.0])) == 1.0


class TestPredictor:
    def test_prediction_shape(self):
        deg = np.full(2048, 8, dtype=np.int64)
        pred = predict_imbalance("maxmin", deg)
        assert pred.worker_loads.shape == (28,)
        assert pred.imbalance_factor >= 1.0
        assert 0.0 < pred.simd_efficiency <= 1.0
        assert pred.wavefront_cv == pytest.approx(0.0)  # uniform degrees
        assert json.loads(json.dumps(pred.to_dict()))["algorithm"] == "maxmin"

    def test_skew_raises_predicted_imbalance(self):
        rng = np.random.default_rng(0)
        uniform = np.full(4096, 8, dtype=np.int64)
        skewed = np.full(4096, 2, dtype=np.int64)
        hubs = rng.choice(4096, size=8, replace=False)
        skewed[hubs] = 600
        p_uni = predict_imbalance("maxmin", uniform)
        p_skew = predict_imbalance("maxmin", skewed)
        assert p_skew.imbalance_factor > p_uni.imbalance_factor
        assert p_skew.wavefront_cv > p_uni.wavefront_cv
        assert p_skew.simd_efficiency < p_uni.simd_efficiency

    def test_edge_grid_is_balanced_by_construction(self):
        # heavy-tailed degrees: the formulation that trades divergence
        # for atomics keeps near-perfect SIMD efficiency (constant
        # per-edge work; only the final partial wavefront pads) and an
        # order-of-magnitude smaller wavefront spread than the
        # degree-looped kernel on the same input
        rng = np.random.default_rng(0)
        deg = np.full(4096, 2, dtype=np.int64)
        deg[rng.choice(4096, size=8, replace=False)] = 600
        pred = predict_imbalance("edge-centric", deg)
        assert pred.simd_efficiency > 0.99
        assert pred.wavefront_cv < predict_imbalance("maxmin", deg).wavefront_cv / 10

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            predict_imbalance("nope", np.full(64, 4))


class TestCrossValidation:
    """The acceptance criterion: static predictions rank-order the zoo."""

    @pytest.fixture(scope="class")
    def measured(self):
        executor = RunContext().executor(schedule="static")
        degrees, measured = {}, []
        for name in SUITE:
            graph = build(name, "small")
            degrees[name] = graph.degrees
            timing = executor.time_iteration(graph.degrees, name="sweep")
            measured.append(imbalance_factor(timing.cu_busy))
        return degrees, np.array(measured)

    @pytest.mark.parametrize("algorithm", ["maxmin", "jp", "speculative"])
    def test_static_prediction_rank_correlates(self, measured, algorithm):
        degrees, dynamic = measured
        predicted = np.array(
            [
                predict_imbalance(algorithm, degrees[name]).imbalance_factor
                for name in SUITE
            ]
        )
        rho = spearman(predicted, dynamic)
        assert rho >= 0.8, f"{algorithm}: Spearman {rho:.3f} < 0.8"
