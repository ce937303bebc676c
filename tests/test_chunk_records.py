"""What a chunk record may say, and the boxes the client builds from it.

A record's frame index is never negative and its pixel counts never wrap;
either lie is refused with :class:`~repro.errors.TransportError` on the
socket and the shared-memory paths alike.  A received box is built without
``Rectangle.__init__`` and must still be the value one built normally is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scan import ScanRegion
from repro.errors import TransportError
from repro.geometry import Rectangle
from repro.service.transport import (
    _CHUNK_HEADER,
    _REGION_RECORD,
    _SHM_CHUNK_HEADER,
    _flat_views,
    chunk_parts,
    decode_chunk_payload,
    decode_shm_chunk_payload,
)


def regions() -> list[ScanRegion]:
    return [
        ScanRegion(3, Rectangle(1, 2, 9, 8), np.arange(48, dtype=np.uint8).reshape(6, 8), "car"),
        ScanRegion(4, Rectangle(0.5, 0.5, 4.5, 3.5), np.arange(12, dtype=np.uint8).reshape(3, 4), None),
    ]


def socket_payload() -> tuple[bytearray]:
    header, buffers, _ = chunk_parts(7, 3, regions())
    return (bytearray(header + b"".join(bytes(view) for view in _flat_views(buffers))),)


def shm_payload() -> tuple[bytearray, bytearray]:
    header, buffers, total = chunk_parts(7, 3, regions())
    ring = bytearray(256)
    ring[:total] = b"".join(bytes(view) for view in _flat_views(buffers))
    return bytearray(_SHM_CHUNK_HEADER.pack(0, total) + header), ring


PATHS = [(socket_payload, decode_chunk_payload, 0), (shm_payload, decode_shm_chunk_payload, _SHM_CHUNK_HEADER.size)]


def lie(payload: bytearray, at: int, **fields) -> None:
    """Overwrite fields of the first record of the chunk at ``payload[at:]``."""
    *_, table_bytes = _CHUNK_HEADER.unpack_from(payload, at)
    records = np.frombuffer(
        payload, dtype=_REGION_RECORD, count=2, offset=at + _CHUNK_HEADER.size + table_bytes
    )
    for name, value in fields.items():
        records[name][0] = value


@pytest.mark.parametrize("build, decode, at", PATHS, ids=["socket", "shm"])
@pytest.mark.parametrize(
    "fields",
    [dict(frame=-1), dict(frame=-(2**63)), dict(rows=0xFFFFFFFF, cols=0xFFFFFFFF)],
    ids=["frame -1", "frame min", "rows and cols 2**32-1"],
)
def test_a_record_no_server_sends_is_refused(build, decode, at, fields):
    args = build()
    decode(*args)  # the honest chunk decodes
    lie(args[0], at, **fields)
    with pytest.raises(TransportError):
        decode(*args)


def test_a_received_box_is_the_value_one_built_normally_is():
    _, received = decode_chunk_payload(socket_payload()[0])
    for got, sent in zip(received, regions()):
        box, want = got.region, sent.region
        assert type(box) is Rectangle
        assert box == want and hash(box) == hash(want)
        assert not box < want and not want < box and box <= want
        assert {box: 1}[want] == 1
        assert box.area == want.area and box.intersects(want)
    assert sorted(box.region for box in received) == sorted(sent.region for sent in regions())
