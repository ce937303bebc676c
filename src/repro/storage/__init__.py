"""Tile-based physical storage of videos (Section 3.4.5).

A :class:`TiledVideo` is the physical representation TASM manages: every
sequence of tiles (SOT) of the video is encoded under its current layout, and
re-tiling a SOT replaces its encoded form.  The :mod:`files` module persists
that representation to disk using the directory hierarchy of Figure 1
(``video/frames_a-b/tile0.bin``).  :class:`~repro.core.tasm.TASM` keeps every
video it has ingested, by name.
"""

from .tiled_video import TiledVideo, RetileRecord
from .files import write_tiled_video, read_tiled_video, TileFileFormatError

__all__ = [
    "TiledVideo",
    "RetileRecord",
    "write_tiled_video",
    "read_tiled_video",
    "TileFileFormatError",
]
