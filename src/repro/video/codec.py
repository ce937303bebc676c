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
* **Quality** — quantisation makes encoding lossy, and a tile that shares an
  edge with another shows an artifact in its outer block ring: on the
  keyframe, the ring shows the floor of each quantisation bucket instead of
  its midpoint.  That reproduces the boundary artifacts that make heavily
  tiled videos score lower PSNR (Figure 6(b)).
* **Transcoding is exact** — the artifact is on the keyframe's *output*
  only: every later frame predicts from the unpenalised keyframe, which a
  decoder holding only the output recovers from it.  And predicted-frame
  residuals, rounded to the nearest step, are clamped so that no
  reconstruction needs clipping.  The codec is per pixel,
  so the frames the encoder predicts from are the same under every layout,
  and encoding a SOT's decoded frames under any layout writes the very bytes
  its raw frames would (:meth:`TileCodec.decode_gop`).  A re-tile therefore
  transcodes what is stored and never needs the raw video again.
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
    """What a decode cache holds of a superseded encoding, and what its
    re-encode keeps for the cache.

    ``held`` maps a GOP (by its first frame) to ``{tile rectangle: frames}``
    for every tile of the superseded encoding the cache holds, at whatever
    depth.  The re-encode's decode resumes after those frames.  The encoder
    files under ``frames``, by (GOP first frame, tile index),
    ``(reconstructions, checksums)`` of every new tile that intersects a held
    one: what the decoder would reconstruct from the new bitstream, to the
    deepest offset held over the tile's area.  Other tiles keep nothing.
    """

    held: dict[int, dict[Rectangle, list[np.ndarray]]]
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
        is_boundary_tile: whether the keyframe's outer block ring shows the
            boundary artifact; the decoder mirrors it, and undoes it to find
            the reference a decode resumed after the keyframe predicts from.
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
    encoder computes in belong to one ``encode_tile`` call; the decoder
    computes in uint8 and allocates only the frames it returns.)
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
            is_boundary_tile: when True the keyframe's outer block ring shows
                the tile-boundary artifact.  A 1x1 layout (the whole frame as
                one tile) passes False and suffers no boundary loss.
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
        # The reference the next frame is predicted from, kept in int16 and
        # updated in place from frame to frame, and the kernels' scratch.
        reconstruction = np.empty((y2 - y1, x2 - x1), dtype=np.int16)
        work, floor = np.empty_like(reconstruction), np.empty_like(reconstruction)

        for frame_offset, frame in enumerate(frames):
            if frame.shape != (height, width):
                raise CodecError("all frames in a GOP must share the same shape")
            block = frame[y1:y2, x1:x2]
            if frame_offset == 0:
                payload = self._encode_keyframe(block, reconstruction)
            else:
                payload = self._encode_predicted(block, reconstruction, work, floor)
            payloads.append(payload)
            checksums.append(zlib.crc32(payload))
            if frame_offset <= keep_depth:
                output = reconstruction.astype(np.uint8)
                kept.append(
                    self._keyframe_output(output, is_boundary_tile) if frame_offset == 0 else output
                )

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
        held = handover.held.get(frame_start, {}) if handover else {}
        tiles = []
        for tile_index, region in enumerate(regions):
            kept: list[np.ndarray] = []
            depth = max(
                (len(frames) - 1 for area, frames in held.items() if area.intersects(region)),
                default=-1,
            )
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
                nothing) is the cold decode from the keyframe.  A keyframe
                alone is enough: the reference it shows is recovered from it.
        """
        last = tile.frame_count - 1 if up_to_offset is None else up_to_offset
        if not 0 <= last < tile.frame_count:
            raise CodecError(
                f"frame offset {last} out of range for tile with {tile.frame_count} frames"
            )
        reconstructions = list(resume_from or ())
        held = len(reconstructions)
        previous = reconstructions[-1] if held else None
        if held == 1:
            previous = self._keyframe_reference(previous, tile.is_boundary_tile)
        for offset in range(held, last + 1):
            payload = tile.payloads[offset]
            if zlib.crc32(payload) != tile.checksums[offset]:
                raise BitstreamCorruptionError(
                    f"tile {tile.region} frame offset {offset} failed its checksum"
                )
            if offset == 0:
                previous = self._decode_keyframe(payload, (tile.height, tile.width))
                reconstructions.append(self._keyframe_output(previous, tile.is_boundary_tile))
                continue
            assert previous is not None
            previous = self._decode_predicted(payload, previous)
            reconstructions.append(previous)
        if stats is not None:
            stats.tiles_decoded += 1
            stats.frames_decoded += len(reconstructions) - held
            stats.pixels_decoded += tile.pixels_per_frame * (len(reconstructions) - held)
        return reconstructions

    def decode_gop(
        self,
        gop: EncodedGop,
        width: int,
        height: int,
        stats: DecodeStats | None = None,
        held: dict[Rectangle, list[np.ndarray]] | None = None,
    ) -> np.ndarray:
        """Every frame of a GOP, full size: its tiles decoded and put together.

        Encoding these frames under any layout writes the bytes the raw frames
        would: a keyframe pixel, artifact or not, re-quantises to its own
        sample, and every later frame is the reference the next one was
        predicted from.  ``held`` maps tile rectangles to frames a decode
        cache holds of them: those tiles resume after the held frames,
        counted in ``stats.pixels_served_from_cache``.
        """
        canvas = np.empty((gop.frame_count, height, width), dtype=np.uint8)
        for tile in gop.tiles:
            resume_from = held.get(tile.region) if held else None
            if resume_from and stats is not None:
                stats.pixels_served_from_cache += tile.pixels_per_frame * len(resume_from)
            x1, y1, x2, y2 = tile.region.as_int_tuple()
            for offset, frame in enumerate(self.decode_tile(tile, None, stats, resume_from)):
                canvas[offset, y1:y2, x1:x2] = frame
        return canvas

    # ------------------------------------------------------------------
    # Intra / inter coding internals
    # ------------------------------------------------------------------
    def _ring(self, raster: np.ndarray) -> tuple[np.ndarray, ...]:
        """The outer block ring of a tile, as four disjoint strips (views)."""
        border = self.config.block_size
        height, width = raster.shape
        top, bottom = min(border, height), max(height - border, border)
        left, right = min(border, width), max(width - border, border)
        return raster[:top], raster[bottom:], raster[top:bottom, :left], raster[top:bottom, right:]

    def _keyframe_output(self, reference: np.ndarray, is_boundary_tile: bool) -> np.ndarray:
        """What a keyframe shows: its reference, except that a boundary tile's
        ring shows each quantisation bucket's floor ``q * step`` (a copy)."""
        if not is_boundary_tile:
            return reference
        step = self.config.keyframe_quant
        output = reference.copy()
        for strip in self._ring(output):
            strip //= step
            strip *= step
        return output

    def _keyframe_reference(self, output: np.ndarray, is_boundary_tile: bool) -> np.ndarray:
        """The reference a keyframe's output shows: :meth:`_keyframe_output` undone."""
        if not is_boundary_tile:
            return output
        reference = output.copy()
        for strip in self._ring(reference):
            self._lift(strip)
        return reference

    def _lift(self, raster: np.ndarray) -> None:
        """A bucket floor to its level, ``min(floor + step // 2, 255)``, in
        place and in uint8."""
        half = self.config.keyframe_quant // 2
        np.minimum(raster, 255 - half, out=raster)
        raster += half

    def _dequantise_keyframe(self, quantised: np.ndarray) -> np.ndarray:
        """Quantised keyframe samples (uint8) -> the reference (a new uint8
        raster) encoder and decoder both predict the next frame from."""
        reference = np.multiply(quantised, np.uint8(self.config.keyframe_quant))
        self._lift(reference)
        return reference

    def _encode_keyframe(self, block: np.ndarray, reference: np.ndarray) -> bytes:
        """Intra-code ``block``; leaves its reference in ``reference`` (int16)."""
        quantised = block // self.config.keyframe_quant
        payload = zlib.compress(quantised, _COMPRESSION_LEVEL)
        np.copyto(reference, self._dequantise_keyframe(quantised))
        return payload

    def _decode_keyframe(self, payload: bytes, shape: tuple[int, int]) -> np.ndarray:
        return self._dequantise_keyframe(self._inflate(payload, np.uint8, shape, "keyframe"))

    def _encode_predicted(
        self, block: np.ndarray, reference: np.ndarray, work: np.ndarray, floor: np.ndarray
    ) -> bytes:
        """Code ``block`` as a residual against ``reference`` (int16, *R*
        below), quantised to the nearest step, then advance ``reference`` to
        this frame.

        The residual is clamped into ``[-(R // step), (255 - R) // step]`` as
        well as int8, so ``R + residual * step`` never leaves [0, 255] and the
        decoder needs no clip.  Rounding to the nearest step keeps the error a
        frame hands the next one centred, where a floor would start it at the
        edge of a step after a keyframe's midpoint and cost residuals on noise.
        """
        step = self.config.predicted_quant
        np.subtract(block, reference, out=work)
        work += step // 2
        work //= step
        np.floor_divide(reference, step, out=floor)
        np.negative(floor, out=floor)
        np.maximum(work, floor, out=work)
        np.subtract(255, reference, out=floor)
        floor //= step
        np.minimum(work, floor, out=work)
        np.clip(work, -128, 127, out=work)
        payload = zlib.compress(work.astype(np.int8), _COMPRESSION_LEVEL)
        work *= step
        reference += work
        return payload

    def _decode_predicted(self, payload: bytes, previous: np.ndarray) -> np.ndarray:
        # uint8 arithmetic wraps mod 256, and the int8 residuals read as uint8
        # are themselves mod 256: the encoder kept every sum in [0, 255], so
        # the wrapped sum is the exact one.
        residual = self._inflate(payload, np.uint8, previous.shape, "predicted")
        frame = np.multiply(residual, np.uint8(self.config.predicted_quant))
        frame += previous
        return frame

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
