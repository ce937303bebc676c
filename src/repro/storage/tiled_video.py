"""The physical, tiled representation of one video.

A :class:`TiledVideo` owns the encoded form of every SOT of a video together
with the layout specification that produced it.  SOTs are encoded lazily (a
freshly ingested video is simply "untiled": each SOT is a single full-frame
tile, encoded from the raw video the first time it is read) and can be
*re-tiled*: transcoded from its stored tiles to a new layout, which is the
operation whose cost ``R(s, L)`` the incremental strategies weigh against
accumulated regret.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..config import TasmConfig
from ..tiles.layout import TileLayout, VideoLayoutSpec, untiled_layout
from ..video.encoder import EncodedSot, VideoEncoder
from ..video.codec import DecodeStats, EncodeStats, Handover
from ..video.video import Video

__all__ = ["RetileRecord", "TiledVideo"]


@dataclass(frozen=True)
class RetileRecord:
    """Bookkeeping for one (re-)encode of a SOT.

    ``pixels_inflated`` and ``pixels_held`` are what a re-tile read of the
    stored SOT: pixels decoded from its payloads, and pixels taken from the
    frames a decode cache held of it.  A first encode reads the raw video and
    neither.
    """

    sot_index: int
    layout: TileLayout
    pixels_encoded: int
    tiles_encoded: int
    bytes_written: int
    encode_seconds: float
    pixels_inflated: int = 0
    pixels_held: int = 0


@dataclass
class TiledVideo:
    """Encoded tiles of a video plus the layout that produced them."""

    video: Video
    config: TasmConfig
    layout_spec: VideoLayoutSpec = field(init=False)
    _sots: dict[int, EncodedSot] = field(default_factory=dict, init=False)
    _encoder: VideoEncoder = field(init=False)
    retile_history: list[RetileRecord] = field(default_factory=list, init=False)
    #: Serialises lazy first-touch encoding: concurrent batch runners may read
    #: the same unmaterialised SOT at once (both holding read locks), and
    #: without this only luck keeps them from encoding it twice in parallel.
    _encode_lock: threading.Lock = field(default_factory=threading.Lock, init=False)

    def __post_init__(self) -> None:
        self.layout_spec = VideoLayoutSpec(
            frame_width=self.video.width,
            frame_height=self.video.height,
            frame_count=self.video.frame_count,
            sot_frames=self.config.layout_duration_frames,
        )
        self._encoder = VideoEncoder(self.config.codec)

    # ------------------------------------------------------------------
    # Identity and shape
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.video.name

    @property
    def sot_count(self) -> int:
        return self.layout_spec.sot_count

    @property
    def untiled_layout(self) -> TileLayout:
        return untiled_layout(self.video.width, self.video.height)

    def layout_for(self, sot_index: int) -> TileLayout:
        return self.layout_spec.layout_for(sot_index)

    def sots_for_frames(self, frame_start: int, frame_stop: int) -> list[int]:
        return self.layout_spec.sots_for_frames(frame_start, frame_stop)

    def frame_range(self, sot_index: int) -> tuple[int, int]:
        return self.layout_spec.frame_range(sot_index)

    # ------------------------------------------------------------------
    # Encoded data access
    # ------------------------------------------------------------------
    def encoded_sot(self, sot_index: int) -> EncodedSot:
        """The encoded form of a SOT, encoding it on first access.

        Safe under concurrent readers: first-touch encoding runs under a
        lock (double-checked), so two scans racing on a cold SOT encode it
        once and both see the same :class:`EncodedSot`.  Writers (``retile``)
        are already exclusive via the service layer's per-SOT write locks.
        """
        cached = self._sots.get(sot_index)
        if cached is not None:
            return cached
        with self._encode_lock:
            cached = self._sots.get(sot_index)
            if cached is not None:
                return cached
            return self._encode(sot_index, self.layout_for(sot_index), record=False)

    def is_materialised(self, sot_index: int) -> bool:
        """True when the SOT has already been encoded (lazy encode happened)."""
        return sot_index in self._sots

    def stored_layout(self, sot_index: int) -> TileLayout | None:
        """The layout a re-tile of the SOT would read it under; None when it
        was never stored, so a re-tile encodes it from the raw video."""
        stored = self._sots.get(sot_index)
        return None if stored is None else stored.layout

    # ------------------------------------------------------------------
    # Re-tiling
    # ------------------------------------------------------------------
    def retile(
        self, sot_index: int, layout: TileLayout, handover: Handover | None = None
    ) -> RetileRecord:
        """Re-encode one SOT under ``layout`` and record the work done.

        A SOT already stored is transcoded from its own tiles — the raw video
        is read only by a SOT's first encode.  Re-tiling to the layout the
        SOT already has is a no-op that costs nothing; TASM's policies rely
        on this so that "keep the current layout" is always free.
        ``handover`` names what a decode cache holds of the superseded
        encoding — the transcode resumes after it — and receives the new
        encoding's reconstructions of that area
        (:class:`~repro.video.codec.Handover`).  The SOT takes ``layout``
        only once the encode has succeeded: a failed one leaves it claiming
        the layout it is still stored under.
        """
        current = self.layout_for(sot_index)
        if layout == current and self.is_materialised(sot_index):
            return RetileRecord(sot_index, layout, 0, 0, 0, 0.0)
        self.layout_spec.check_layout(sot_index, layout)
        self._encode(sot_index, layout, record=True, handover=handover)
        self.layout_spec.set_layout(sot_index, layout)
        return self.retile_history[-1]

    def _encode(
        self, sot_index: int, layout: TileLayout, record: bool, handover: Handover | None = None
    ) -> EncodedSot:
        stats, read = EncodeStats(), DecodeStats()
        stored = self._sots.get(sot_index)
        if stored is None:
            start, stop = self.layout_spec.frame_range(sot_index)
            encoded = self._encoder.encode_sot(self.video, sot_index, start, stop, layout, stats)
        else:
            encoded = self._encoder.transcode_sot(stored, layout, stats, handover, read)
        self._sots[sot_index] = encoded
        if record:
            self.retile_history.append(
                RetileRecord(
                    sot_index=sot_index,
                    layout=layout,
                    pixels_encoded=stats.pixels_encoded,
                    tiles_encoded=stats.tiles_encoded,
                    bytes_written=stats.bytes_written,
                    encode_seconds=encoded.encode_seconds,
                    pixels_inflated=read.pixels_decoded,
                    pixels_held=read.pixels_served_from_cache,
                )
            )
        return encoded

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def materialise_all(self) -> None:
        """Encode every SOT under its current layout (used by storage studies)."""
        for sot_index in range(self.sot_count):
            self.encoded_sot(sot_index)

    def total_size_bytes(self, materialise: bool = False) -> int:
        """Bytes used by all encoded SOTs.

        With ``materialise=True`` every SOT is encoded first so the figure
        reflects the whole video; otherwise only already-encoded SOTs count.
        """
        if materialise:
            self.materialise_all()
        return sum(sot.size_bytes for sot in self._sots.values())
