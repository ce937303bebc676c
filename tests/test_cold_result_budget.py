"""A cache-less scan's result keeps no decoded tile alive.

Without a decode cache, the tiles a scan decodes are transient: each
region is copied out of them, into one buffer per SOT that holds only the
returned pixels, so the result lets the tiles go.  Through ``TASM.execute``
and ``TASM.execute_batch``, the buffers under a result's regions hold at most
that result's own pixel bytes — what keeps ``lib_cold``'s resident memory
from growing with the tiles it decodes.  The pixels are read-only like a
cached scan's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import Query
from tests.test_exec_engine import assert_read_only_pixels
from tests.test_zero_copy_budget import boxed_tasm


def owners(regions) -> list[np.ndarray]:
    """The distinct buffers the regions' pixels keep alive."""
    roots = {}
    for region in regions:
        pixels = region.pixels
        while isinstance(pixels.base, np.ndarray):
            pixels = pixels.base
        roots[id(pixels)] = pixels
    return list(roots.values())


@pytest.mark.parametrize("path", ["execute", "execute_batch"])
def test_a_cacheless_result_holds_only_its_own_pixels(config, path):
    tasm, video = boxed_tasm(config, cache_bytes=0)
    assert tasm.tile_cache is None
    queries = [Query.select("box", video.name), Query.select_range("box", video.name, 2, 9)]
    if path == "execute":
        results = [tasm.execute(query) for query in queries]
    else:
        results = list(tasm.execute_batch(queries))
    for result in results:
        assert result.regions
        pixel_bytes = sum(region.pixels.nbytes for region in result.regions)
        held = sum(owner.nbytes for owner in owners(result.regions))
        assert held <= pixel_bytes, f"{held} bytes kept alive for {pixel_bytes} returned"
        for region in result.regions:
            assert_read_only_pixels(region.pixels)
