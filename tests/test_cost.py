"""Tests for the cost model: C(s, q, L), what-if deltas and R(s, L) (repro.core.cost)."""

from __future__ import annotations

import pytest

from repro.config import CodecConfig, TasmConfig
from repro.core.cost import (
    ENCODE_COST_PER_PIXEL,
    ENCODE_COST_PER_TILE,
    CostEstimate,
    CostModel,
    fit_cost_model,
)
from repro.errors import QueryError
from repro.geometry import Rectangle
from repro.index import IndexEntry
from repro.tiles.layout import TileLayout, uniform_layout, untiled_layout


@pytest.fixture
def cost_config() -> TasmConfig:
    return TasmConfig(codec=CodecConfig(gop_frames=5, frame_rate=5, block_size=8,
                                        min_tile_width=16, min_tile_height=16))


@pytest.fixture
def model(cost_config: TasmConfig) -> CostModel:
    return CostModel(cost_config)


FRAME_W, FRAME_H = 160, 120
GRID = uniform_layout(FRAME_W, FRAME_H, 2, 2)
OMEGA = untiled_layout(FRAME_W, FRAME_H)


class TestCostEstimate:
    def test_addition(self):
        total = CostEstimate(10, 1, 0.5) + CostEstimate(20, 2, 1.0)
        assert total == CostEstimate(30, 3, 1.5)

    def test_is_zero(self):
        assert CostEstimate(0, 0, 0.0).is_zero
        assert not CostEstimate(1, 0, 0.0).is_zero


class TestQueryCostEstimation:
    def test_untiled_costs_full_frames(self, model):
        frame_boxes = {0: [Rectangle(0, 0, 10, 10)], 3: [Rectangle(50, 50, 60, 60)]}
        estimate = model.untiled_query_cost(FRAME_W, FRAME_H, frame_boxes)
        assert estimate.pixels == FRAME_W * FRAME_H * 2
        assert estimate.tiles == 1  # one GOP, one tile

    def test_tiled_costs_only_touched_tiles(self, model):
        frame_boxes = {0: [Rectangle(0, 0, 10, 10)]}
        estimate = model.estimate_query_cost(GRID, frame_boxes)
        assert estimate.pixels == GRID.tile_rectangles()[0].area
        assert estimate.tiles == 1

    def test_box_spanning_tiles_costs_both(self, model):
        spanning = Rectangle(FRAME_W // 2 - 5, 0, FRAME_W // 2 + 5, 10)
        estimate = model.estimate_query_cost(GRID, {0: [spanning]})
        assert estimate.tiles == 2

    def test_tiles_counted_once_per_gop(self, model):
        # Frames 0 and 2 are in GOP 0; frame 7 is in GOP 1 (5-frame GOPs).
        box = Rectangle(0, 0, 10, 10)
        estimate = model.estimate_query_cost(GRID, {0: [box], 2: [box], 7: [box]})
        assert estimate.tiles == 2
        assert estimate.pixels == GRID.tile_rectangles()[0].area * 3

    def test_cost_is_linear_in_coefficients(self, model, cost_config):
        estimate = model.estimate_query_cost(GRID, {0: [Rectangle(0, 0, 10, 10)]})
        expected = cost_config.cost.beta * estimate.pixels + cost_config.cost.gamma * estimate.tiles
        assert estimate.cost == pytest.approx(expected)

    def test_empty_query_costs_nothing(self, model):
        assert model.estimate_query_cost(GRID, {}).is_zero

    def test_delta_positive_when_alternative_cheaper(self, model):
        frame_boxes = {0: [Rectangle(0, 0, 10, 10)]}
        untiled = model.untiled_query_cost(FRAME_W, FRAME_H, frame_boxes)
        tiled = model.estimate_query_cost(GRID, frame_boxes)
        assert model.delta(untiled, tiled) > 0
        assert model.delta(tiled, untiled) < 0


class TestAlphaRule:
    def test_useful_layout_passes(self, model):
        frame_boxes = {0: [Rectangle(0, 0, 10, 10)]}
        tiled = model.estimate_query_cost(GRID, frame_boxes)
        untiled = model.untiled_query_cost(FRAME_W, FRAME_H, frame_boxes)
        assert model.pixel_ratio(tiled, untiled) < 0.8
        assert model.layout_is_useful(tiled, untiled)

    def test_useless_layout_fails(self, model):
        # A box covering nearly the whole frame: tiling cannot skip much.
        frame_boxes = {0: [Rectangle(0, 0, FRAME_W - 4, FRAME_H - 4)]}
        tiled = model.estimate_query_cost(GRID, frame_boxes)
        untiled = model.untiled_query_cost(FRAME_W, FRAME_H, frame_boxes)
        assert not model.layout_is_useful(tiled, untiled)

    def test_zero_untiled_cost_is_never_useful(self, model):
        zero = CostEstimate(0, 0, 0.0)
        assert not model.layout_is_useful(zero, zero)


class TestEncodeCost:
    """The write half of R: what a SOT never stored is charged."""

    def test_scales_with_frames_and_tiles(self, model):
        one_gop = model.retile_cost(None, GRID, 5)
        two_gops = model.retile_cost(None, GRID, 10)
        assert two_gops > one_gop
        assert model.retile_cost(None, GRID, 5) > model.retile_cost(None, OMEGA, 5)

    def test_rejects_non_positive_frames(self, model):
        with pytest.raises(QueryError):
            model.retile_cost(None, GRID, 0)
        with pytest.raises(QueryError):
            model.retile_cost(OMEGA, GRID, 0)


def whole_sot(frame_count: int) -> dict[int, list[Rectangle]]:
    """Every pixel of every frame: the boxes of a read of the whole SOT."""
    return {frame: [Rectangle(0, 0, FRAME_W, FRAME_H)] for frame in range(frame_count)}


class TestRetileCost:
    """R(s, L) is a read of the stored SOT plus an encode under the new layout."""

    @pytest.mark.parametrize("frame_count", [1, 5, 7, 10])
    @pytest.mark.parametrize("current", [OMEGA, GRID, uniform_layout(FRAME_W, FRAME_H, 3, 4)])
    def test_is_the_whole_sot_decode_estimate_plus_the_encode(
        self, model, cost_config, current, frame_count
    ):
        read = model.estimate_query_cost(current, whole_sot(frame_count))
        gops = -(-frame_count // cost_config.codec.gop_frames)
        assert (read.pixels, read.tiles) == (
            current.frame_pixels * frame_count, current.tile_count * gops
        )
        write = (
            ENCODE_COST_PER_PIXEL * GRID.frame_pixels * frame_count
            + ENCODE_COST_PER_TILE * GRID.tile_count * gops
        )
        assert model.retile_cost(current, GRID, frame_count) == pytest.approx(read.cost + write)

    def test_a_sot_never_stored_is_charged_the_encode_only(self, model):
        write = (
            ENCODE_COST_PER_PIXEL * GRID.frame_pixels * 5
            + ENCODE_COST_PER_TILE * GRID.tile_count
        )
        assert model.retile_cost(None, GRID, 5) == pytest.approx(write)
        read = model.estimate_query_cost(OMEGA, whole_sot(5)).cost
        assert model.retile_cost(OMEGA, GRID, 5) == pytest.approx(write + read)

    def test_reading_more_tiles_costs_more(self, model):
        fine = uniform_layout(FRAME_W, FRAME_H, 3, 4)
        assert model.retile_cost(fine, OMEGA, 5) > model.retile_cost(GRID, OMEGA, 5)
        assert model.retile_cost(GRID, OMEGA, 5) > model.retile_cost(OMEGA, OMEGA, 5)


class TestWhatIf:
    def test_compare_reports_delta(self, model):
        frame_boxes = {0: [Rectangle(0, 0, 10, 10)]}
        current = model.estimate_query_cost(OMEGA, frame_boxes)
        alternative = model.estimate_query_cost(GRID, frame_boxes)
        assert model.delta(current, alternative) == current.cost - alternative.cost > 0
        assert alternative.pixels < current.pixels
        assert 0 < model.pixel_ratio(alternative, current) < 1

    def test_estimate_from_entries(self, model):
        entries = [
            IndexEntry("v", "car", 0, Rectangle(0, 0, 10, 10)),
            IndexEntry("v", "car", 1, Rectangle(0, 0, 10, 10)),
        ]
        frame_boxes = {entry.frame_index: [entry.box] for entry in entries}
        estimate = model.estimate_query_cost(GRID, frame_boxes)
        assert estimate.pixels == GRID.tile_rectangles()[0].area * 2


class TestFitCostModel:
    def test_recovers_known_coefficients(self):
        beta, gamma, intercept = 2e-6, 5e-3, 0.01
        samples = [
            (pixels, tiles, intercept + beta * pixels + gamma * tiles)
            for pixels in (1_000, 50_000, 200_000, 1_000_000)
            for tiles in (1, 4, 9, 25)
        ]
        fitted = fit_cost_model(samples)
        assert fitted.beta == pytest.approx(beta, rel=1e-6)
        assert fitted.gamma == pytest.approx(gamma, rel=1e-6)
        assert fitted.r_squared == pytest.approx(1.0)
        assert fitted.predict(10_000, 2) == pytest.approx(intercept + beta * 10_000 + gamma * 2)

    def test_requires_enough_samples(self):
        with pytest.raises(QueryError):
            fit_cost_model([(1.0, 1.0, 1.0), (2.0, 1.0, 2.0)])

    def test_noisy_fit_has_high_r_squared(self):
        import numpy as np

        rng = np.random.default_rng(0)
        samples = []
        for _ in range(200):
            pixels = float(rng.integers(10_000, 5_000_000))
            tiles = float(rng.integers(1, 40))
            seconds = 1e-6 * pixels + 2e-3 * tiles + rng.normal(0, 0.001)
            samples.append((pixels, tiles, seconds))
        fitted = fit_cost_model(samples)
        assert fitted.r_squared > 0.99


class TestLayoutCostOrdering:
    def test_finer_layouts_decode_fewer_pixels_but_more_tiles(self, model):
        frame_boxes = {0: [Rectangle(4, 4, 20, 20)], 1: [Rectangle(100, 80, 140, 110)]}
        coarse = model.estimate_query_cost(uniform_layout(FRAME_W, FRAME_H, 2, 2), frame_boxes)
        fine = model.estimate_query_cost(uniform_layout(FRAME_W, FRAME_H, 4, 4), frame_boxes)
        assert fine.pixels <= coarse.pixels
        assert fine.tiles >= coarse.tiles

    def test_non_uniform_layout_beats_untiled(self, model):
        boxes = [Rectangle(8, 8, 40, 40)]
        layout = TileLayout(FRAME_W, FRAME_H, (48, FRAME_H - 48), (48, FRAME_W - 48))
        tiled = model.estimate_query_cost(layout, {0: boxes})
        untiled = model.untiled_query_cost(FRAME_W, FRAME_H, {0: boxes})
        assert tiled.cost < untiled.cost
