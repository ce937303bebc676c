"""Encode raw videos into tiled representations, one SOT at a time.

A *sequence of tiles* (SOT) is a run of frames that share a tile layout; it
covers a whole number of GOPs because layouts may only change at keyframes.
The encoder turns (video, frame range, layout) into an :class:`EncodedSot`
holding one :class:`~repro.video.codec.EncodedGop` per GOP, and an
:class:`EncodedSot` into another under a new layout by transcoding its tiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import CodecConfig
from ..errors import CodecError
from ..tiles.layout import TileLayout
from .codec import DecodeStats, EncodedGop, EncodeStats, Handover, TileCodec
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
    ) -> EncodedSot:
        """Encode frames ``[frame_start, frame_stop)`` of the raw ``video``
        under ``layout``: a SOT's first encode."""
        if frame_stop <= frame_start:
            raise CodecError("SOT frame range is empty")
        if layout.frame_width != video.width or layout.frame_height != video.height:
            raise CodecError(
                f"layout is {layout.frame_width}x{layout.frame_height} but video "
                f"{video.name!r} is {video.width}x{video.height}"
            )
        return self._encode(
            sot_index, frame_start, frame_stop, layout, stats, None,
            lambda _, start, stop: [video.frame(index).pixels for index in range(start, stop)],
        )

    def transcode_sot(
        self,
        stored: EncodedSot,
        layout: TileLayout,
        stats: EncodeStats | None = None,
        handover: Handover | None = None,
        read: DecodeStats | None = None,
    ) -> EncodedSot:
        """Re-encode a stored SOT under ``layout`` from its own tiles.

        Each GOP is decoded and encoded again, which writes the bytes encoding
        the raw frames would (see :meth:`~repro.video.codec.TileCodec.decode_gop`).
        ``handover`` names the frames a decode cache holds of ``stored``: the
        decode resumes after them, and the hand-over is filled as
        :class:`~repro.video.codec.Handover` describes.  ``read`` receives what
        the decode took: pixels inflated, and pixels taken from held frames.
        """
        if (layout.frame_width, layout.frame_height) != (
            stored.layout.frame_width, stored.layout.frame_height
        ):
            raise CodecError("a SOT cannot be transcoded to a layout of another frame size")
        held = handover.held if handover is not None else {}
        width, height = layout.frame_width, layout.frame_height
        return self._encode(
            stored.sot_index, stored.frame_start, stored.frame_stop, layout, stats, handover,
            lambda gop_index, start, _: list(
                self._codec.decode_gop(stored.gops[gop_index], width, height, read, held.get(start))
            ),
        )

    def _encode(
        self,
        sot_index: int,
        frame_start: int,
        frame_stop: int,
        layout: TileLayout,
        stats: EncodeStats | None,
        handover: Handover | None,
        gop_frames: Callable[[int, int, int], list[np.ndarray]],
    ) -> EncodedSot:
        """The GOP loop: ``gop_frames(GOP number, first frame, stop)`` gives
        each GOP's full frames."""
        regions = layout.tile_rectangles()
        started = time.perf_counter()
        gops: list[EncodedGop] = []
        for gop_offset, (gop_start, gop_stop) in enumerate(
            gop_ranges(frame_stop - frame_start, self.codec_config.gop_frames)
        ):
            absolute_start = frame_start + gop_start
            gops.append(
                self._codec.encode_gop(
                    gop_frames(gop_offset, absolute_start, frame_start + gop_stop),
                    regions,
                    gop_index=gop_offset,
                    frame_start=absolute_start,
                    stats=stats,
                    handover=handover,
                )
            )
        return EncodedSot(
            sot_index=sot_index,
            frame_start=frame_start,
            frame_stop=frame_stop,
            layout=layout,
            gops=gops,
            encode_seconds=time.perf_counter() - started,
        )
