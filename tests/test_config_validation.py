"""Configuration validation tests."""

import pytest

from repro.config import SystemConfig


class TestSystemConfigValidation:
    def test_defaults_valid(self):
        SystemConfig()  # must not raise

    def test_bad_pe_count(self):
        with pytest.raises(ValueError):
            SystemConfig(n_pes=0)
        with pytest.raises(ValueError):
            SystemConfig(n_pes=-4)

    def test_bad_quantum(self):
        with pytest.raises(ValueError):
            SystemConfig(quantum=0)
        with pytest.raises(ValueError):
            SystemConfig(quantum=1.5)
        SystemConfig(quantum=64.0)  # whole, valid

    def test_tiny_queue_memory(self):
        with pytest.raises(ValueError):
            SystemConfig(queue_mem_bytes=8)

    def test_bad_drm_parameters(self):
        with pytest.raises(ValueError):
            SystemConfig(drm_issue_width=0)
        with pytest.raises(ValueError):
            SystemConfig(n_drms=-1)

    def test_bad_simd_cap(self):
        with pytest.raises(ValueError):
            SystemConfig(max_simd_replication=0)
        SystemConfig(max_simd_replication=1)     # valid
        SystemConfig(max_simd_replication=None)  # valid

    def test_replace_revalidates(self):
        config = SystemConfig()
        with pytest.raises(ValueError):
            config.replace(n_pes=0)
