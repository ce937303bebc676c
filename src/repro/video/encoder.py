"""Encode raw videos into tiled representations, one SOT at a time.

A *sequence of tiles* (SOT) is a run of frames that share a tile layout.
Layouts may only change at keyframes, and a SOT is exactly one GOP: at most
``codec.gop_frames`` frames, the video's last SOT possibly shorter.  The
encoder turns (video, frame range, layout) into an :class:`EncodedSot`
holding one :class:`~repro.video.codec.EncodedTile` per tile of the layout,
and an :class:`EncodedSot` into another under a new layout by transcoding its
tiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import CodecConfig
from ..errors import CodecError
from ..tiles.layout import TileLayout
from .codec import DecodeStats, EncodedTile, EncodeStats, Handover, TileCodec
from .video import Video

__all__ = ["EncodedSot", "VideoEncoder"]


@dataclass
class EncodedSot:
    """One sequence of tiles — one GOP — encoded under a single layout: its
    tiles, in row-major layout order."""

    sot_index: int
    frame_start: int
    frame_stop: int
    layout: TileLayout
    tiles: list[EncodedTile] = field(default_factory=list)
    encode_seconds: float = 0.0

    @property
    def frame_count(self) -> int:
        return self.frame_stop - self.frame_start

    @property
    def size_bytes(self) -> int:
        return sum(tile.size_bytes for tile in self.tiles)

    @property
    def gops(self) -> tuple["EncodedSot"]:
        """``(self,)``: the SOT as its one GOP.  Only the perf ledger's traced
        drill reads it (``benchmarks/ledger/layers.py``); it goes when the
        ledger is next revised (ROADMAP item 1)."""
        return (self,)


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
        under ``layout``: a SOT's first encode.  The range is one GOP: at most
        ``codec.gop_frames`` frames."""
        if frame_stop <= frame_start:
            raise CodecError("SOT frame range is empty")
        if frame_stop - frame_start > self.codec_config.gop_frames:
            raise CodecError(
                f"a SOT is one GOP: {frame_stop - frame_start} frames exceed the "
                f"GOP length of {self.codec_config.gop_frames}"
            )
        if layout.frame_width != video.width or layout.frame_height != video.height:
            raise CodecError(
                f"layout is {layout.frame_width}x{layout.frame_height} but video "
                f"{video.name!r} is {video.width}x{video.height}"
            )
        return self._encode(
            sot_index, frame_start, frame_stop, layout, stats, None,
            lambda: [video.frame(index).pixels for index in range(frame_start, frame_stop)],
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

        The SOT is decoded and encoded again, which writes the bytes encoding
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
        held = handover.held if handover is not None else None
        width, height = layout.frame_width, layout.frame_height
        return self._encode(
            stored.sot_index, stored.frame_start, stored.frame_stop, layout, stats, handover,
            lambda: list(self._codec.decode_gop(stored.tiles, width, height, read, held)),
        )

    def _encode(
        self,
        sot_index: int,
        frame_start: int,
        frame_stop: int,
        layout: TileLayout,
        stats: EncodeStats | None,
        handover: Handover | None,
        frames: Callable[[], list[np.ndarray]],
    ) -> EncodedSot:
        """The SOT's tiles, encoded from the full frames ``frames()`` gives."""
        started = time.perf_counter()
        tiles = self._codec.encode_gop(frames(), layout.tile_rectangles(), frame_start, stats, handover)
        return EncodedSot(
            sot_index=sot_index,
            frame_start=frame_start,
            frame_stop=frame_stop,
            layout=layout,
            tiles=tiles,
            encode_seconds=time.perf_counter() - started,
        )
