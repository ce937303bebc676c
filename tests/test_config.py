"""Tests for repro.config."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import CodecConfig, CostCoefficients, TasmConfig, DEFAULT_CONFIG
from repro.errors import ConfigurationError
from repro.storage.tiled_video import TiledVideo

from tests.conftest import build_tiny_video


class TestCodecConfig:
    def test_defaults_are_valid(self):
        codec = CodecConfig()
        assert codec.gop_frames == 30

    def test_rejects_non_positive_gop(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(gop_frames=0)

    def test_rejects_tiny_minimum_tile(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(block_size=16, min_tile_width=8)

    def test_rejects_bad_quantisation(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(keyframe_quant=0)
        with pytest.raises(ConfigurationError):
            CodecConfig(predicted_quant=256)


class TestCostCoefficients:
    def test_defaults(self):
        cost = CostCoefficients()
        assert cost.beta > 0
        assert cost.gamma >= 0

    def test_rejects_non_positive_beta(self):
        with pytest.raises(ConfigurationError):
            CostCoefficients(beta=0.0)


class TestTasmConfig:
    def test_default_config_exists(self):
        assert DEFAULT_CONFIG.alpha == pytest.approx(0.8)
        assert DEFAULT_CONFIG.eta == pytest.approx(1.0)

    def test_alpha_bounds(self):
        with pytest.raises(ConfigurationError):
            TasmConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            TasmConfig(alpha=1.5)
        assert TasmConfig(alpha=1.0).alpha == 1.0

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigurationError):
            TasmConfig(eta=-0.1)

    def test_a_stream_buffer_of_zero_chunks_is_refused(self):
        """Every service stream is bounded: there is no "unbounded" value."""
        with pytest.raises(ConfigurationError):
            TasmConfig(service_stream_buffer_chunks=0)
        assert TasmConfig(service_stream_buffer_chunks=1).service_stream_buffer_chunks == 1

    def test_layout_duration_defaults_to_gop(self):
        config = TasmConfig(codec=CodecConfig(gop_frames=12))
        assert TiledVideo(video=build_tiny_video(), config=config).layout_spec.sot_frames == 12

    def test_a_sot_has_no_length_of_its_own(self):
        with pytest.raises(TypeError):  # a SOT is one GOP
            TasmConfig(sot_frames=24)

    def test_replace_returns_a_new_validated_instance(self):
        config = TasmConfig()
        updated = replace(config, alpha=0.5)
        assert updated.alpha == 0.5
        assert config.alpha == pytest.approx(0.8)
        with pytest.raises(ConfigurationError):
            replace(config, alpha=1.5)

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.alpha = 0.5  # type: ignore[misc]
