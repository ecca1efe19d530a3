"""Unit tests for the device machine model."""

import pytest

from repro.engine.context import RunContext
from repro.gpusim.device import (
    CPU_8CORE,
    RADEON_HD_7950,
    RADEON_R9_290X,
    SMALL_TEST_DEVICE,
    DeviceConfig,
    named_device,
)


class TestPresets:
    def test_tahiti_parameters(self):
        d = RADEON_HD_7950
        assert d.num_cus == 28
        assert d.wavefront_size == 64
        assert d.simd_per_cu == 4
        assert d.clock_mhz == pytest.approx(925.0)
        assert d.num_pipes == 112

    def test_small_device(self):
        d = SMALL_TEST_DEVICE
        assert d.num_pipes == 2
        assert d.wavefront_size == 4

    @pytest.mark.parametrize("name", ["hd7950", "Tahiti", "RADEON-HD-7950"])
    def test_named_device_lookup(self, name):
        assert named_device(name) is RADEON_HD_7950

    def test_named_device_unknown(self):
        with pytest.raises(KeyError, match="unknown device"):
            named_device("rtx4090")

    def test_r9_290x_is_wider_and_faster(self):
        assert RADEON_R9_290X.num_cus > RADEON_HD_7950.num_cus
        assert RADEON_R9_290X.dram_bandwidth_gbps > RADEON_HD_7950.dram_bandwidth_gbps
        assert named_device("hawaii") is RADEON_R9_290X

    def test_cpu_shape(self):
        assert CPU_8CORE.num_pipes == 8
        assert CPU_8CORE.wavefront_size == 8
        assert CPU_8CORE.kernel_launch_us < RADEON_HD_7950.kernel_launch_us
        assert (
            CPU_8CORE.uncoalesced_access_cycles
            < RADEON_HD_7950.uncoalesced_access_cycles
        )
        assert named_device("cpu8") is CPU_8CORE

    def test_all_presets_run_a_coloring(self):
        from repro.coloring.maxmin import maxmin_coloring
        from repro.graphs.generators import erdos_renyi

        g = erdos_renyi(200, avg_degree=6, seed=0)
        for dev in (RADEON_HD_7950, RADEON_R9_290X, CPU_8CORE, SMALL_TEST_DEVICE):
            wg = dev.max_workgroup_size
            ex = RunContext(device=dev).executor(workgroup_size=wg, chunk_size=wg)
            maxmin_coloring(g, ex).validate(g)


class TestValidation:
    def test_non_power_of_two_wavefront(self):
        with pytest.raises(ValueError, match="power of two"):
            DeviceConfig(wavefront_size=48)

    def test_workgroup_not_multiple_of_wavefront(self):
        with pytest.raises(ValueError, match="multiple"):
            DeviceConfig(wavefront_size=64, max_workgroup_size=96)

    def test_zero_cus(self):
        with pytest.raises(ValueError):
            DeviceConfig(num_cus=0)

    def test_bad_clock(self):
        with pytest.raises(ValueError):
            DeviceConfig(clock_mhz=0)


class TestConversions:
    def test_cycle_ns(self):
        d = DeviceConfig(clock_mhz=1000.0)
        assert d.cycle_ns == pytest.approx(1.0)

    def test_cycles_to_ms_roundtrip(self):
        d = RADEON_HD_7950
        assert d.ms_to_cycles(d.cycles_to_ms(123456.0)) == pytest.approx(123456.0)

    def test_launch_cycles(self):
        d = DeviceConfig(clock_mhz=1000.0, kernel_launch_us=10.0)
        assert d.launch_cycles == pytest.approx(10_000.0)

    def test_bandwidth_cycles(self):
        d = DeviceConfig(clock_mhz=1000.0, dram_bandwidth_gbps=100.0)
        # 100 GB at 100 GB/s = 1 s = 1e9 cycles at 1 GHz
        assert d.bandwidth_cycles(100e9) == pytest.approx(1e9)

    def test_with_overrides(self):
        d = RADEON_HD_7950.with_overrides(num_cus=14)
        assert d.num_cus == 14
        assert d.wavefront_size == RADEON_HD_7950.wavefront_size
        assert RADEON_HD_7950.num_cus == 28  # original untouched
