"""Encode raw videos into tiled representations, one SOT at a time.

A *sequence of tiles* (SOT) is a run of frames that share a tile layout; it
covers a whole number of GOPs because layouts may only change at keyframes.
The encoder turns (video, frame range, layout) into an :class:`EncodedSot`
holding one :class:`~repro.video.codec.EncodedGop` per GOP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import CodecConfig
from ..errors import CodecError
from ..tiles.layout import TileLayout
from .codec import EncodedGop, EncodeStats, Handover, TileCodec
from .gop import gop_ranges
from .video import Video

__all__ = ["EncodedSot", "VideoEncoder"]


@dataclass
class EncodedSot:
    """All GOPs of one sequence of tiles, encoded under a single layout."""

    sot_index: int
    frame_start: int
    frame_stop: int
    layout: TileLayout
    gops: list[EncodedGop] = field(default_factory=list)
    encode_seconds: float = 0.0

    @property
    def frame_count(self) -> int:
        return self.frame_stop - self.frame_start

    @property
    def size_bytes(self) -> int:
        return sum(gop.size_bytes for gop in self.gops)

    @property
    def gop_frames(self) -> int:
        """Frames per GOP: every GOP but the last is this long, so the GOP
        holding frame ``f`` is number ``(f - frame_start) // gop_frames``."""
        return self.gops[0].frame_count


class VideoEncoder:
    """Encodes raw frames into tiled SOTs using the simulated codec."""

    def __init__(self, codec_config: CodecConfig | None = None):
        self.codec_config = codec_config or CodecConfig()
        self._codec = TileCodec(self.codec_config)

    def encode_sot(
        self,
        video: Video,
        sot_index: int,
        frame_start: int,
        frame_stop: int,
        layout: TileLayout,
        stats: EncodeStats | None = None,
        handover: Handover | None = None,
    ) -> EncodedSot:
        """Encode frames ``[frame_start, frame_stop)`` under ``layout``; see
        :class:`~repro.video.codec.Handover` for what ``handover`` keeps."""
        if frame_stop <= frame_start:
            raise CodecError("SOT frame range is empty")
        if layout.frame_width != video.width or layout.frame_height != video.height:
            raise CodecError(
                f"layout is {layout.frame_width}x{layout.frame_height} but video "
                f"{video.name!r} is {video.width}x{video.height}"
            )
        regions = layout.tile_rectangles()
        started = time.perf_counter()
        gops: list[EncodedGop] = []
        sot_frame_count = frame_stop - frame_start
        for gop_offset, (gop_start, gop_stop) in enumerate(
            gop_ranges(sot_frame_count, self.codec_config.gop_frames)
        ):
            absolute_start = frame_start + gop_start
            absolute_stop = frame_start + gop_stop
            frames = [video.frame(index).pixels for index in range(absolute_start, absolute_stop)]
            gops.append(
                self._codec.encode_gop(
                    frames,
                    regions,
                    gop_index=gop_offset,
                    frame_start=absolute_start,
                    stats=stats,
                    handover=handover,
                )
            )
        elapsed = time.perf_counter() - started
        return EncodedSot(
            sot_index=sot_index,
            frame_start=frame_start,
            frame_stop=frame_stop,
            layout=layout,
            gops=gops,
            encode_seconds=elapsed,
        )
