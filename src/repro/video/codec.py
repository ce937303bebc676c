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
* **Cost** — decode work is dominated by per-pixel work (checksumming and
  inflating the samples, then array operations) plus a per-tile fixed
  overhead (the call, its one frame block, a deflate stream per payload),
  which is the ``beta * pixels + gamma * tiles`` model of Section 4.1.  A
  tile decodes in one pass: :meth:`TileCodec.decode_tile` allocates one
  ``(n, h, w)`` block for the ``n`` frames it decodes, and each payload is
  CRC-checked by the engine that inflates it, inflated into its row by
  ``TileCodec._inflate`` and reconstructed there.  The engine is the host's
  libdeflate when ``ctypes`` can load it, else ``zlib``; both compute the
  same CRC-32, give the same samples and refuse the same streams, so only
  ``beta`` differs.  The encoder is ``zlib`` on every host, so stored bytes
  never depend on it.
"""

from __future__ import annotations

import ctypes
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..config import CodecConfig
from ..errors import BitstreamCorruptionError, CodecError
from ..geometry import Rectangle

__all__ = ["EncodedTile", "EncodeStats", "DecodeStats", "Handover", "TileCodec"]

_COMPRESSION_LEVEL = 1
#: A predicted residual's int8 range, as the int16 scalars ``np.clip`` takes
#: without converting Python ints on every call.
_RESIDUAL_MIN, _RESIDUAL_MAX = np.int16(-128), np.int16(127)


def _load_libdeflate() -> ctypes.CDLL | None:
    """The host's libdeflate with its decompressor and CRC-32 calls typed, or
    None when it cannot be loaded (``TileCodec`` then checks and inflates with
    zlib).

    Loaded by its soname, which names the ABI the calls are typed for (and,
    unlike ``ctypes.util.find_library``, runs no ``ldconfig`` at import)."""
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
        alloc, free = lib.libdeflate_alloc_decompressor, lib.libdeflate_free_decompressor
        inflate, crc32 = lib.libdeflate_zlib_decompress, lib.libdeflate_crc32
    except (OSError, AttributeError):
        return None
    pointer, size = ctypes.c_void_p, ctypes.c_size_t
    alloc.argtypes, alloc.restype = (), pointer
    free.argtypes, free.restype = (pointer,), None
    # (decompressor, in, in_nbytes, out, out_nbytes_avail, actual_out_nbytes_ret):
    # a NULL last argument makes an output of any size but out_nbytes_avail a
    # failure, SHORT_OUTPUT or INSUFFICIENT_SPACE, as a bad stream is BAD_DATA.
    inflate.argtypes = (pointer, ctypes.c_char_p, size, pointer, size, pointer)
    inflate.restype = ctypes.c_int
    # (crc, buffer, len): the CRC-32 of buffer continued from crc, so
    # crc32(0, b, len(b)) == zlib.crc32(b).
    crc32.argtypes, crc32.restype = (ctypes.c_uint32, ctypes.c_char_p, size), ctypes.c_uint32
    return lib


# Picked once, at import.  Tests set it to None to run the zlib fallback.
_libdeflate = _load_libdeflate()
#: libdeflate's nonzero ``enum libdeflate_result`` values, as error text.
_LIBDEFLATE_FAILURES = {1: "is not valid deflate", 2: "is short", 3: "is too long"}


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
    ``tiles_decoded`` counts (tile, SOT) pairs whose bitstream was opened.
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

    ``held`` maps the tile rectangle of every tile of the superseded encoding
    the cache holds to its frames, at whatever depth.  The re-encode's decode
    resumes after those frames.  The encoder files under ``frames``, by tile
    index, ``(reconstructions, checksums)`` of every new tile that intersects
    a held one: what the decoder would reconstruct from the new bitstream, to
    the deepest offset held over the tile's area.  Other tiles keep nothing.
    """

    held: dict[Rectangle, list[np.ndarray]]
    frames: dict[int, tuple[list[np.ndarray], tuple[int, ...]]] = field(default_factory=dict)


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


class TileCodec:
    """Encode and decode tile bitstreams.

    The codec is stateless apart from its configuration; all methods are pure
    functions of their inputs, which keeps encode/decode trivially testable
    and means concurrent use needs no locking.  (The int16 work buffers the
    encoder computes in belong to one ``encode_tile`` call; the decoder
    computes in uint8, in the one block of frames a ``decode_tile`` call
    returns.)
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
                holds it anyway, to predict the next frame from — read-only,
                as ``decode_tile`` returns them.
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
                kept.append(reconstruction.astype(np.uint8))
                if frame_offset == 0 and is_boundary_tile:
                    self._floor_ring(kept[-1])
                kept[-1].flags.writeable = False

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
        frame_start: int,
        stats: EncodeStats | None = None,
        handover: Handover | None = None,
    ) -> list[EncodedTile]:
        """Encode a GOP under a layout given as a list of tile rectangles: one
        tile per rectangle, in order."""
        if not regions:
            raise CodecError("a GOP must be encoded with at least one tile region")
        full_frame = len(regions) == 1
        held = handover.held if handover else {}
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
                handover.frames[tile_index] = (kept, tile.checksums)
        return tiles

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

        The frames a call decodes are the rows of one ``(n, h, w)`` block:
        each payload is checked with the CRC-32 of the engine that inflates
        it, inflated into its row and reconstructed there, so nothing but the
        block is allocated (and, resuming after a boundary keyframe alone, the
        reference it shows).  The block is returned read-only.  A call that
        inflates nothing counts no tile.
        """
        last = tile.frame_count - 1 if up_to_offset is None else up_to_offset
        if not 0 <= last < tile.frame_count:
            raise CodecError(
                f"frame offset {last} out of range for tile with {tile.frame_count} frames"
            )
        reconstructions = list(resume_from or ())
        held = len(reconstructions)
        if held > last:
            return reconstructions
        previous = reconstructions[-1] if held else None
        if held == 1:
            previous = self._keyframe_reference(previous, tile.is_boundary_tile)
        block = np.empty((last + 1 - held, tile.height, tile.width), dtype=np.uint8)
        lib, step = _libdeflate, np.uint8(self.config.predicted_quant)
        for offset, row in enumerate(block, held):
            payload = tile.payloads[offset]
            crc = lib.libdeflate_crc32(0, payload, len(payload)) if lib else zlib.crc32(payload)
            if crc != tile.checksums[offset]:
                raise BitstreamCorruptionError(
                    f"tile {tile.region} frame offset {offset} failed its checksum"
                )
            if offset == 0:
                self._inflate(payload, row, "keyframe")
                self._dequantise_keyframe(row)
            else:
                # uint8 arithmetic wraps mod 256, and the int8 residuals read
                # as uint8 are themselves mod 256: the encoder kept every sum
                # in [0, 255], so the wrapped sum is the exact one.
                self._inflate(payload, row, "predicted")
                np.multiply(row, step, out=row)
                row += previous
            previous = row
        if held == 0 and tile.is_boundary_tile:
            # Frame 1 is predicted from the reference; only now may the
            # keyframe's row show what the keyframe shows.
            self._floor_ring(block[0])
        # A cache holds these rows and scans hand out views of them: frozen
        # from here on, and no view of them can be made writable again.
        block.flags.writeable = False
        reconstructions.extend(block)
        if stats is not None:
            stats.tiles_decoded += 1
            stats.frames_decoded += len(block)
            stats.pixels_decoded += tile.pixels_per_frame * len(block)
        return reconstructions

    def decode_gop(
        self,
        tiles: list[EncodedTile],
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
        canvas = np.empty((tiles[0].frame_count, height, width), dtype=np.uint8)
        for tile in tiles:
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

    def _floor_ring(self, reference: np.ndarray) -> None:
        """A boundary tile's keyframe reference to what it shows, in place:
        its ring shows each quantisation bucket's floor ``q * step``."""
        step = self.config.keyframe_quant
        for strip in self._ring(reference):
            strip //= step
            strip *= step

    def _keyframe_reference(self, output: np.ndarray, is_boundary_tile: bool) -> np.ndarray:
        """The reference a keyframe's output shows (a copy for a boundary
        tile): :meth:`_floor_ring` undone."""
        if not is_boundary_tile:
            return output
        reference = output.copy()
        for strip in self._ring(reference):
            self._lift(strip)
        return reference

    def _lift(self, raster: np.ndarray) -> None:
        """A bucket floor to its level, ``min(floor + step // 2, 255)``, in
        place and in uint8.

        Only the top floor, ``255 - 255 % step``, can pass 255, and only when
        ``255 % step < step // 2`` (never at the default step of 4); then the
        raster is clamped first.  The clamp is skipped otherwise because
        numpy's uint8 minimum against a scalar runs unvectorised (numpy 2.4 on
        a 2-vCPU VM: 17-30 us on a 160x170 keyframe), and against a broadcast
        row it allocates an 8 KiB iterator buffer."""
        step = self.config.keyframe_quant
        half = step // 2
        if 255 % step < half:
            np.minimum(raster, 255 - half, out=raster)
        raster += half

    def _dequantise_keyframe(self, samples: np.ndarray) -> None:
        """Quantised keyframe samples (uint8) to the reference encoder and
        decoder both predict the next frame from, in place."""
        np.multiply(samples, np.uint8(self.config.keyframe_quant), out=samples)
        self._lift(samples)

    def _encode_keyframe(self, block: np.ndarray, reference: np.ndarray) -> bytes:
        """Intra-code ``block``; leaves its reference in ``reference`` (int16)."""
        quantised = block // self.config.keyframe_quant
        payload = zlib.compress(quantised, _COMPRESSION_LEVEL)
        self._dequantise_keyframe(quantised)
        np.copyto(reference, quantised)
        return payload

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
        np.clip(work, _RESIDUAL_MIN, _RESIDUAL_MAX, out=work)
        payload = zlib.compress(work.astype(np.int8), _COMPRESSION_LEVEL)
        work *= step
        reference += work
        return payload

    @staticmethod
    def _inflate(payload: bytes, out: np.ndarray, kind: str) -> None:
        """Inflate the payload's samples straight into ``out`` (a C-contiguous
        uint8 raster), which they must fill exactly.  libdeflate checks the
        Adler-32 trailer, as zlib does."""
        expected = out.size
        lib = _libdeflate
        if lib is not None:
            decompressor = lib.libdeflate_alloc_decompressor()
            if not decompressor:
                raise MemoryError("libdeflate could not allocate a decompressor")
            try:
                status = lib.libdeflate_zlib_decompress(
                    decompressor, payload, len(payload),
                    # The row's address; out.ctypes.data costs twice as much.
                    ctypes.addressof(ctypes.c_char.from_buffer(out)), expected, None,
                )
            finally:
                lib.libdeflate_free_decompressor(decompressor)
            if status:
                failure = _LIBDEFLATE_FAILURES.get(status, f"failed with status {status}")
                raise BitstreamCorruptionError(f"{kind} payload {failure} ({expected} samples)")
            return
        try:
            raw = zlib.decompress(payload, bufsize=expected)
        except zlib.error as exc:
            raise BitstreamCorruptionError(f"{kind} payload is not valid deflate: {exc}") from exc
        if len(raw) != expected:
            raise BitstreamCorruptionError(
                f"{kind} payload holds {len(raw)} samples, expected {expected}"
            )
        out[...] = np.frombuffer(raw, dtype=out.dtype).reshape(out.shape)
