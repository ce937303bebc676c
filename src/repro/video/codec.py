"""A simulated tile-capable video codec.

This stands in for HEVC with tiles (the paper encodes with NVENCODE /
NVDECODE).  It is a real, lossy, block-based codec over numpy rasters rather
than a stub, because the evaluation depends on the codec exhibiting the right
*behavioural* properties:

* **Temporal structure** — each GOP starts with an intra-coded keyframe
  (quantised raster, deflate-compressed) followed by predicted frames that
  store only the quantised residual against the previous reconstructed frame.
  Keyframes are therefore much larger than predicted frames, so shorter
  GOPs/SOTs cost storage, exactly as in Section 2 of the paper.
* **Spatial structure** — each tile of a GOP is encoded as an independent
  bitstream over its own rectangle, so a region of the frame can be decoded
  without touching other tiles (spatial random access).  Decoding a tile on
  frame *k* requires decoding that tile on frames ``keyframe..k`` (temporal
  dependency), as in the paper.
* **Quality** — quantisation makes encoding lossy, and blocks that touch a
  tile boundary are quantised more coarsely, reproducing the boundary
  artifacts that make heavily tiled videos score lower PSNR (Figure 6(b)).
* **Cost** — decode work is dominated by per-pixel array operations plus a
  per-tile fixed overhead (header parsing, checksum, deflate stream setup),
  which is the ``beta * pixels + gamma * tiles`` model of Section 4.1.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..config import CodecConfig
from ..errors import BitstreamCorruptionError, CodecError
from ..geometry import Rectangle

__all__ = ["EncodedTile", "EncodedGop", "EncodeStats", "DecodeStats", "Handover", "TileCodec"]

_COMPRESSION_LEVEL = 1


@dataclass
class EncodeStats:
    """Accounting of work done by the encoder."""

    pixels_encoded: int = 0
    tiles_encoded: int = 0
    bytes_written: int = 0

    def merge(self, other: "EncodeStats") -> None:
        self.pixels_encoded += other.pixels_encoded
        self.tiles_encoded += other.tiles_encoded
        self.bytes_written += other.bytes_written


@dataclass
class DecodeStats:
    """Accounting of work done by the decoder.

    ``pixels_decoded`` counts every pixel of every frame reconstructed, and
    ``tiles_decoded`` counts (tile, GOP) pairs whose bitstream was opened.
    These are the P and T of the paper's cost model.  A tile served from the
    decode cache contributes to ``cache_hits`` / ``pixels_served_from_cache``
    instead of P and T — the decode-work counters only ever measure work that
    actually happened, so summing stats across the queries of a batch never
    double-counts a tile that served several of them.
    """

    pixels_decoded: int = 0
    tiles_decoded: int = 0
    frames_decoded: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pixels_served_from_cache: int = 0

    def merge(self, other: "DecodeStats") -> None:
        self.pixels_decoded += other.pixels_decoded
        self.tiles_decoded += other.tiles_decoded
        self.frames_decoded += other.frames_decoded
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.pixels_served_from_cache += other.pixels_served_from_cache


@dataclass
class Handover:
    """What a re-encode keeps for a decode cache that held the old encoding.

    ``resident`` maps a GOP (by its first frame) to the rectangles of the
    superseded encoding the cache holds and the frame offset each is decoded
    to.  The encoder files under ``frames``, by (GOP first frame, tile index),
    ``(reconstructions, checksums)`` of every new tile that intersects one —
    what the decoder would reconstruct from the new bitstream, to the deepest
    offset held over the tile's area.  Other tiles keep nothing.
    """

    resident: dict[int, list[tuple[Rectangle, int]]]
    frames: dict[tuple[int, int], tuple[list[np.ndarray], tuple[int, ...]]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class EncodedTile:
    """One independently decodable tile bitstream covering one GOP.

    Attributes:
        region: the rectangle of the frame this tile covers.
        frame_start: index of the first frame (the keyframe) in the video.
        frame_count: number of frames in the GOP this tile covers.
        payloads: one compressed payload per frame; payload 0 is intra-coded.
        checksums: CRC32 of each payload, verified on decode.
        header_bytes: container overhead attributed to this tile.
        is_boundary_tile: whether boundary-artifact quantisation was applied;
            the decoder must mirror it so predicted frames reference the same
            reconstruction the encoder used.
    """

    region: Rectangle
    frame_start: int
    frame_count: int
    payloads: tuple[bytes, ...]
    checksums: tuple[int, ...]
    header_bytes: int
    is_boundary_tile: bool = True

    @property
    def size_bytes(self) -> int:
        return sum(len(p) for p in self.payloads) + self.header_bytes

    @property
    def keyframe_bytes(self) -> int:
        return len(self.payloads[0]) if self.payloads else 0

    @property
    def width(self) -> int:
        return int(self.region.width)

    @property
    def height(self) -> int:
        return int(self.region.height)

    @property
    def pixels_per_frame(self) -> int:
        return self.width * self.height


@dataclass
class EncodedGop:
    """All tiles of a single GOP, in row-major layout order."""

    gop_index: int
    frame_start: int
    frame_count: int
    tiles: list[EncodedTile] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(tile.size_bytes for tile in self.tiles)

    @property
    def tile_count(self) -> int:
        return len(self.tiles)


class TileCodec:
    """Encode and decode tile bitstreams.

    The codec is stateless apart from its configuration; all methods are pure
    functions of their inputs, which keeps encode/decode trivially testable
    and means concurrent use needs no locking.  (The int16 work buffers the
    kernels compute in belong to one ``encode_tile`` / ``decode_tile`` call.)
    """

    def __init__(self, config: CodecConfig | None = None):
        self.config = config or CodecConfig()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_tile(
        self,
        frames: list[np.ndarray],
        region: Rectangle,
        frame_start: int,
        is_boundary_tile: bool = True,
        stats: EncodeStats | None = None,
        kept: list[np.ndarray] | None = None,
        keep_depth: int = -1,
    ) -> EncodedTile:
        """Encode ``region`` of a list of full frames as one tile bitstream.

        Args:
            frames: raw luma rasters of every frame in the GOP (full frames).
            region: the tile rectangle; must lie within the frame bounds.
            frame_start: video-level index of ``frames[0]`` (the keyframe).
            is_boundary_tile: when True the tile's outer blocks are quantised
                more coarsely to model tile-boundary artifacts.  A 1x1 layout
                (the whole frame as one tile) passes False and suffers no
                boundary loss.
            stats: optional accumulator for encode accounting.
            kept: receives what :meth:`decode_tile` would reconstruct for
                frames ``0..keep_depth`` (none by default) — the encoder
                holds it anyway, to predict the next frame from.
        """
        if not frames:
            raise CodecError("cannot encode an empty GOP")
        x1, y1, x2, y2 = region.as_int_tuple()
        if x2 <= x1 or y2 <= y1:
            raise CodecError(f"tile region {region} is empty")
        height, width = frames[0].shape
        if x2 > width or y2 > height or x1 < 0 or y1 < 0:
            raise CodecError(f"tile region {region} exceeds frame bounds {width}x{height}")

        payloads: list[bytes] = []
        checksums: list[int] = []
        pixels_per_frame = (x2 - x1) * (y2 - y1)
        # What the decoder will hold for the previous frame, kept in int16 and
        # updated in place from frame to frame, and the kernels' scratch.
        reconstruction = np.empty((y2 - y1, x2 - x1), dtype=np.int16)
        work = np.empty_like(reconstruction)

        for frame_offset, frame in enumerate(frames):
            if frame.shape != (height, width):
                raise CodecError("all frames in a GOP must share the same shape")
            block = frame[y1:y2, x1:x2]
            if frame_offset == 0:
                payload = self._encode_keyframe(block, is_boundary_tile, reconstruction)
            else:
                payload = self._encode_predicted(block, reconstruction, work)
            payloads.append(payload)
            checksums.append(zlib.crc32(payload))
            if frame_offset <= keep_depth:
                kept.append(reconstruction.astype(np.uint8))

        encoded = EncodedTile(
            region=Rectangle(x1, y1, x2, y2),
            frame_start=frame_start,
            frame_count=len(frames),
            payloads=tuple(payloads),
            checksums=tuple(checksums),
            header_bytes=self.config.tile_overhead_bytes,
            is_boundary_tile=is_boundary_tile,
        )
        if stats is not None:
            stats.pixels_encoded += pixels_per_frame * len(frames)
            stats.tiles_encoded += 1
            stats.bytes_written += encoded.size_bytes
        return encoded

    def encode_gop(
        self,
        frames: list[np.ndarray],
        regions: list[Rectangle],
        gop_index: int,
        frame_start: int,
        stats: EncodeStats | None = None,
        handover: Handover | None = None,
    ) -> EncodedGop:
        """Encode a GOP under a layout given as a list of tile rectangles."""
        if not regions:
            raise CodecError("a GOP must be encoded with at least one tile region")
        full_frame = len(regions) == 1
        resident = handover.resident.get(frame_start, ()) if handover else ()
        tiles = []
        for tile_index, region in enumerate(regions):
            kept: list[np.ndarray] = []
            depth = max((held for area, held in resident if area.intersects(region)), default=-1)
            tile = self.encode_tile(frames, region, frame_start, not full_frame, stats, kept, depth)
            tiles.append(tile)
            if kept:
                handover.frames[frame_start, tile_index] = (kept, tile.checksums)
        return EncodedGop(
            gop_index=gop_index,
            frame_start=frame_start,
            frame_count=len(frames),
            tiles=tiles,
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_tile(
        self,
        tile: EncodedTile,
        up_to_offset: int | None = None,
        stats: DecodeStats | None = None,
        resume_from: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Decode a tile bitstream and return its reconstructed rasters.

        Args:
            tile: the encoded tile.
            up_to_offset: decode frames ``0..up_to_offset`` inclusive (the
                temporal dependency: reaching frame k requires decoding every
                frame since the keyframe).  None decodes the whole GOP.
            stats: optional accumulator for decode accounting.
            resume_from: this very bitstream's frames ``0..d``, as an earlier
                call returned them: a decoder paused at depth *d*.  Only
                payloads ``d+1..up_to_offset`` are verified and inflated, and
                only they count as frames and pixels decoded; the returned
                list starts with the given arrays themselves.  None (or
                nothing) is the cold decode from the keyframe.
        """
        last = tile.frame_count - 1 if up_to_offset is None else up_to_offset
        if not 0 <= last < tile.frame_count:
            raise CodecError(
                f"frame offset {last} out of range for tile with {tile.frame_count} frames"
            )
        reconstructions = list(resume_from or ())
        held = len(reconstructions)
        previous = reconstructions[-1] if held else None
        work = np.empty((tile.height, tile.width), dtype=np.int16)
        for offset in range(held, last + 1):
            payload = tile.payloads[offset]
            if zlib.crc32(payload) != tile.checksums[offset]:
                raise BitstreamCorruptionError(
                    f"tile {tile.region} frame offset {offset} failed its checksum"
                )
            if offset == 0:
                previous = self._decode_keyframe(payload, work, tile.is_boundary_tile)
            else:
                assert previous is not None
                previous = self._decode_predicted(payload, previous, work)
            reconstructions.append(previous)
        if stats is not None:
            stats.tiles_decoded += 1
            stats.frames_decoded += len(reconstructions) - held
            stats.pixels_decoded += tile.pixels_per_frame * (len(reconstructions) - held)
        return reconstructions

    # ------------------------------------------------------------------
    # Intra / inter coding internals
    # ------------------------------------------------------------------
    def _apply_boundary_penalty(self, raster: np.ndarray) -> None:
        """Coarsen, in place, the outer block ring of a tile to model boundary
        artifacts.  uint8 arithmetic: the decoder must wrap where the encoder did."""
        penalty = self.config.boundary_quant_penalty
        if penalty <= 0:
            return
        border = self.config.block_size
        step = penalty + 1
        height, width = raster.shape
        top = raster[: min(border, height), :]
        bottom = raster[max(height - border, 0):, :]
        left = raster[:, : min(border, width)]
        right = raster[:, max(width - border, 0):]
        for strip in (top, bottom, left, right):
            strip //= step
            strip *= step
            strip += step // 2

    def _dequantise_keyframe(self, work: np.ndarray, is_boundary_tile: bool) -> np.ndarray:
        """Quantised keyframe samples in ``work`` (int16) -> the uint8 raster
        encoder and decoder both predict the next frame from."""
        step = self.config.keyframe_quant
        work *= step
        work += step // 2
        np.clip(work, 0, 255, out=work)
        reconstruction = work.astype(np.uint8)
        if is_boundary_tile:
            self._apply_boundary_penalty(reconstruction)
        return reconstruction

    def _encode_keyframe(
        self, block: np.ndarray, is_boundary_tile: bool, reconstruction: np.ndarray
    ) -> bytes:
        """Intra-code ``block``; leaves what the decoder will see in ``reconstruction``."""
        np.copyto(reconstruction, block)
        reconstruction //= self.config.keyframe_quant
        payload = zlib.compress(reconstruction.astype(np.uint8), _COMPRESSION_LEVEL)
        np.copyto(reconstruction, self._dequantise_keyframe(reconstruction, is_boundary_tile))
        return payload

    def _decode_keyframe(
        self, payload: bytes, work: np.ndarray, is_boundary_tile: bool
    ) -> np.ndarray:
        # The encoder baked the boundary degradation into the reference it
        # predicts from, so the decoder reproduces it bit-exactly.
        np.copyto(work, self._inflate(payload, np.uint8, work.shape, "keyframe"))
        return self._dequantise_keyframe(work, is_boundary_tile)

    def _encode_predicted(
        self, block: np.ndarray, reconstruction: np.ndarray, work: np.ndarray
    ) -> bytes:
        """Code ``block`` as a quantised residual against ``reconstruction``
        (int16), then advance ``reconstruction`` to this frame."""
        step = self.config.predicted_quant
        np.subtract(block, reconstruction, out=work)
        work //= step
        np.clip(work, -128, 127, out=work)
        payload = zlib.compress(work.astype(np.int8), _COMPRESSION_LEVEL)
        work *= step
        reconstruction += work
        np.clip(reconstruction, 0, 255, out=reconstruction)
        return payload

    def _decode_predicted(
        self, payload: bytes, previous: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        quantised = self._inflate(payload, np.int8, previous.shape, "predicted")
        np.multiply(quantised, self.config.predicted_quant, out=work, dtype=np.int16)
        work += previous
        np.clip(work, 0, 255, out=work)
        return work.astype(np.uint8)

    @staticmethod
    def _inflate(payload: bytes, dtype, shape: tuple[int, int], kind: str) -> np.ndarray:
        """The payload's samples, inflated straight into a buffer of the known size."""
        expected = shape[0] * shape[1]
        try:
            raw = zlib.decompress(payload, bufsize=expected)
        except zlib.error as exc:
            raise BitstreamCorruptionError(f"{kind} payload is not valid deflate: {exc}") from exc
        if len(raw) != expected:
            raise BitstreamCorruptionError(
                f"{kind} payload holds {len(raw)} samples, expected {expected}"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
