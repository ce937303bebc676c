"""Homomorphic stitching: recombine tiles into full frames.

The paper (and LightDB) stitch tiles back into a playable full-frame video by
interleaving the encoded tile data and rewriting headers, *without* decoding
and re-encoding — so no additional quality is lost.  Our simulated analogue
decodes each tile once and pastes the reconstructions into a full-frame
canvas; because nothing is re-quantised, the stitched pixels are bit-identical
to what the per-tile decoder produces, which preserves the property that
matters for Figure 6(b): stitching adds no loss beyond the tiled encoding
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CodecConfig
from .codec import DecodeStats, TileCodec
from .encoder import EncodedSot
from .frame import Frame

__all__ = ["StitchResult", "stitch_tiles"]


@dataclass
class StitchResult:
    """Full frames reconstructed from a tiled SOT."""

    frames: list[Frame] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)


def stitch_tiles(sot: EncodedSot, codec_config: CodecConfig | None = None) -> StitchResult:
    """Reconstruct every full frame of a SOT from its tiles."""
    codec = TileCodec(codec_config or CodecConfig())
    layout = sot.layout
    result = StitchResult()
    for gop in sot.gops:
        canvases = [
            np.zeros((layout.frame_height, layout.frame_width), dtype=np.uint8)
            for _ in range(gop.frame_count)
        ]
        for tile_index, rectangle in enumerate(layout.tile_rectangles()):
            tile = gop.tiles[tile_index]
            reconstructions = codec.decode_tile(tile, stats=result.stats)
            x1, y1, x2, y2 = rectangle.as_int_tuple()
            for offset, tile_pixels in enumerate(reconstructions):
                canvases[offset][y1:y2, x1:x2] = tile_pixels
        for offset, canvas in enumerate(canvases):
            result.frames.append(Frame(gop.frame_start + offset, canvas))
    return result
