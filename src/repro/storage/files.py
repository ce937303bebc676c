"""On-disk persistence of tiled videos (Figure 1's directory hierarchy).

Each tile of each SOT is stored as its own file, exactly as the paper
describes ("TASM stores each tile as a separate video file"):

```
<root>/<video-name>/
    manifest.json                    # video-level metadata
    frames_0-29/
        layout.json                  # the SOT's tile layout
        tile0.bin                    # one independently decodable tile
        tile1.bin
    frames_30-59/
        ...
```

Tile files use a small self-describing binary format (magic, version, region,
frame range, per-frame payload sizes, CRCs, payloads).  The format is not
HEVC, but it preserves the storage property the experiments measure: bytes on
disk equal the sum of the compressed tile payloads plus per-tile overhead.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from ..config import TasmConfig
from ..errors import StorageError
from ..geometry import Rectangle
from ..tiles.layout import TileLayout
from ..video.codec import EncodedGop, EncodedTile
from ..video.encoder import EncodedSot
from ..video.video import Video
from .tiled_video import TiledVideo

__all__ = ["write_tiled_video", "read_tiled_video", "TileFileFormatError"]

_MAGIC = b"TASM"
#: 2: predicted-frame residuals are clamped so no reconstruction clips, and a
#: boundary tile predicts from its unpenalised keyframe.  A version-1 payload
#: would decode to different pixels, so it is refused.
_VERSION = 2
_HEADER = struct.Struct("<4sBBHiiiiii")  # magic, version, flags, reserved, x1,y1,x2,y2, frame_start, frame_count


class TileFileFormatError(StorageError):
    """Raised when a tile file on disk is malformed."""


# ----------------------------------------------------------------------
# Tile file encoding
# ----------------------------------------------------------------------
def _serialise_tile(tile: EncodedTile) -> bytes:
    flags = 1 if tile.is_boundary_tile else 0
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        flags,
        0,
        int(tile.region.x1),
        int(tile.region.y1),
        int(tile.region.x2),
        int(tile.region.y2),
        tile.frame_start,
        tile.frame_count,
    )
    chunks = [header]
    for payload, checksum in zip(tile.payloads, tile.checksums):
        chunks.append(struct.pack("<II", len(payload), checksum))
        chunks.append(payload)
    return b"".join(chunks)


def _deserialise_tile(blob: bytes, overhead_bytes: int) -> EncodedTile:
    if len(blob) < _HEADER.size:
        raise TileFileFormatError("tile file is too short to hold a header")
    magic, version, flags, _, x1, y1, x2, y2, frame_start, frame_count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise TileFileFormatError("tile file magic number mismatch")
    if version != _VERSION:
        raise TileFileFormatError(f"unsupported tile file version {version}")
    offset = _HEADER.size
    payloads: list[bytes] = []
    checksums: list[int] = []
    for _ in range(frame_count):
        if offset + 8 > len(blob):
            raise TileFileFormatError("tile file truncated inside a payload header")
        length, checksum = struct.unpack_from("<II", blob, offset)
        offset += 8
        if offset + length > len(blob):
            raise TileFileFormatError("tile file truncated inside a payload")
        payloads.append(blob[offset : offset + length])
        checksums.append(checksum)
        offset += length
    return EncodedTile(
        region=Rectangle(x1, y1, x2, y2),
        frame_start=frame_start,
        frame_count=frame_count,
        payloads=tuple(payloads),
        checksums=tuple(checksums),
        header_bytes=overhead_bytes,
        is_boundary_tile=bool(flags & 1),
    )


# ----------------------------------------------------------------------
# Directory layout
# ----------------------------------------------------------------------
def _sot_directory(root: Path, video_name: str, frame_start: int, frame_stop: int) -> Path:
    return root / video_name / f"frames_{frame_start}-{frame_stop - 1}"


def write_tiled_video(tiled: TiledVideo, root: str | Path) -> Path:
    """Persist every materialised SOT of ``tiled`` under ``root``.

    Returns the directory of the video.  SOTs that were never encoded are
    skipped — they have no physical representation yet.
    """
    root = Path(root)
    video_dir = root / tiled.name
    video_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "name": tiled.name,
        "width": tiled.video.width,
        "height": tiled.video.height,
        "frame_count": tiled.video.frame_count,
        "frame_rate": tiled.video.frame_rate,
        "sot_frames": tiled.layout_spec.sot_frames,
    }
    (video_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))

    for sot_index in range(tiled.sot_count):
        if not tiled.is_materialised(sot_index):
            continue
        encoded = tiled.encoded_sot(sot_index)
        sot_dir = _sot_directory(root, tiled.name, encoded.frame_start, encoded.frame_stop)
        sot_dir.mkdir(parents=True, exist_ok=True)
        layout = encoded.layout
        (sot_dir / "layout.json").write_text(
            json.dumps(
                {
                    "frame_width": layout.frame_width,
                    "frame_height": layout.frame_height,
                    "row_heights": list(layout.row_heights),
                    "column_widths": list(layout.column_widths),
                    "gop_frame_starts": [gop.frame_start for gop in encoded.gops],
                },
                indent=2,
            )
        )
        for tile_index in range(layout.tile_count):
            chunks = [
                _serialise_tile(gop.tiles[tile_index]) for gop in encoded.gops
            ]
            (sot_dir / f"tile{tile_index}.bin").write_bytes(
                struct.pack("<I", len(chunks)) + b"".join(
                    struct.pack("<I", len(chunk)) + chunk for chunk in chunks
                )
            )
    return video_dir


def read_tiled_video(video: Video, root: str | Path, config: TasmConfig) -> TiledVideo:
    """Load a previously written tiled representation of ``video``.

    The on-disk data restores the layout specification and the encoded SOTs
    without re-encoding.  ``video`` supplies the manifest check and the raw
    frames of SOTs that were never stored; a stored SOT is re-tiled by
    transcoding its own tiles, so its raw frames are never read again.
    """
    root = Path(root)
    video_dir = root / video.name
    manifest_path = video_dir / "manifest.json"
    if not manifest_path.exists():
        raise StorageError(f"no stored tiled video at {video_dir}")
    manifest = json.loads(manifest_path.read_text())
    if manifest["frame_count"] != video.frame_count or manifest["width"] != video.width:
        raise StorageError(
            f"stored manifest for {video.name!r} does not match the supplied raw video"
        )
    if manifest["sot_frames"] != config.layout_duration_frames:
        config = config.with_updates(sot_frames=int(manifest["sot_frames"]))

    tiled = TiledVideo(video=video, config=config)
    overhead = config.codec.tile_overhead_bytes
    for sot_dir in sorted(video_dir.glob("frames_*")):
        first, last = sot_dir.name.removeprefix("frames_").split("-")
        frame_start, frame_stop = int(first), int(last) + 1
        layout_info = json.loads((sot_dir / "layout.json").read_text())
        layout = TileLayout(
            frame_width=layout_info["frame_width"],
            frame_height=layout_info["frame_height"],
            row_heights=tuple(layout_info["row_heights"]),
            column_widths=tuple(layout_info["column_widths"]),
        )
        gop_frame_starts = layout_info["gop_frame_starts"]
        sot_index = tiled.layout_spec.sot_of_frame(frame_start)
        tiled.layout_spec.set_layout(sot_index, layout)

        gops: list[EncodedGop] = []
        tiles_per_gop: list[list[EncodedTile]] = [[] for _ in gop_frame_starts]
        for tile_index in range(layout.tile_count):
            blob = (sot_dir / f"tile{tile_index}.bin").read_bytes()
            (chunk_count,) = struct.unpack_from("<I", blob, 0)
            offset = 4
            if chunk_count != len(gop_frame_starts):
                raise TileFileFormatError(
                    f"tile file {sot_dir / f'tile{tile_index}.bin'} holds {chunk_count} GOPs, "
                    f"expected {len(gop_frame_starts)}"
                )
            for gop_position in range(chunk_count):
                (length,) = struct.unpack_from("<I", blob, offset)
                offset += 4
                tiles_per_gop[gop_position].append(
                    _deserialise_tile(blob[offset : offset + length], overhead)
                )
                offset += length
        for gop_position, gop_start in enumerate(gop_frame_starts):
            tiles = tiles_per_gop[gop_position]
            gops.append(
                EncodedGop(
                    gop_index=gop_position,
                    frame_start=gop_start,
                    frame_count=tiles[0].frame_count,
                    tiles=tiles,
                )
            )
        encoded = EncodedSot(
            sot_index=sot_index,
            frame_start=frame_start,
            frame_stop=frame_stop,
            layout=layout,
            gops=gops,
        )
        tiled._sots[sot_index] = encoded
    return tiled
