"""Homomorphic stitching: recombine tiles into full frames.

The paper (and LightDB) stitch tiles back into a playable full-frame video by
interleaving the encoded tile data and rewriting headers, *without* decoding
and re-encoding — so no additional quality is lost.  Our simulated analogue
decodes each tile once and pastes the reconstructions into a full-frame
canvas (:meth:`~repro.video.codec.TileCodec.decode_gop`, which is also what a
re-tile encodes again); because nothing is re-quantised, the stitched pixels
are bit-identical to what the per-tile decoder produces, which preserves the
property that matters for Figure 6(b): stitching adds no loss beyond the tiled
encoding itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    frames = codec.decode_gop(sot.tiles, layout.frame_width, layout.frame_height, result.stats)
    result.frames = [Frame(sot.frame_start + offset, frame) for offset, frame in enumerate(frames)]
    return result
