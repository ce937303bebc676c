"""Video substrate: frames, simulated tile-capable codec, synthetic videos.

The authors' prototype uses hardware HEVC (NVENC/NVDEC).  This package
provides a from-scratch, pure-Python substitute with the same structural
properties TASM relies on: group-of-pictures temporal random access,
independently decodable tiles for spatial random access, keyframe storage
overhead, boundary-artifact quality loss, and decode work proportional to the
number of pixels and tiles decoded.
"""

from .frame import Frame
from .video import Video, VideoMetadata, FrameSource
from .gop import gop_ranges
from .codec import (
    EncodedTile,
    EncodedGop,
    TileCodec,
    DecodeStats,
    EncodeStats,
)
from .quality import mse, psnr, average_psnr
from .synthetic import (
    ObjectTrack,
    SceneSpec,
    SyntheticVideo,
    LinearMotion,
    OscillatingMotion,
    StationaryMotion,
)
from .encoder import VideoEncoder
from .decoder import VideoDecoder, RegionRequest
from .stitching import stitch_tiles, StitchResult

__all__ = [
    "Frame",
    "Video",
    "VideoMetadata",
    "FrameSource",
    "gop_ranges",
    "EncodedTile",
    "EncodedGop",
    "TileCodec",
    "DecodeStats",
    "EncodeStats",
    "mse",
    "psnr",
    "average_psnr",
    "ObjectTrack",
    "SceneSpec",
    "SyntheticVideo",
    "LinearMotion",
    "OscillatingMotion",
    "StationaryMotion",
    "VideoEncoder",
    "VideoDecoder",
    "RegionRequest",
    "stitch_tiles",
    "StitchResult",
]
