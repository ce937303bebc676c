"""A clock-free budget for what observability adds to a served scan.

``obs.overhead_ratio`` is a ratio of two clocks on a shared host; counts can
gate.  With observability on, a warm single-query scan through the server
makes six instrument updates — ``tasm_batch_size``, ``tasm_queue_wait_seconds``,
``tasm_query_seconds`` and one ``tasm_stage_seconds`` observation per stage,
from the batch's totals — whether it serves one SOT or every SOT of the scene.
It looks no labelled child up (they are resolved when the server is built) and
increments no counter (the server's events are its own ints, read at
snapshot time).  The spans are the product, not the tax: ``queue`` and
``execute``, the latter carrying the result's own accounting.  With
observability off the same six updates are made and no span is.
"""

from __future__ import annotations

from repro.core.predicates import TemporalPredicate
from repro.core.query import Query
from repro.obs import Trace
from repro.obs.metrics import Counter, Histogram, _Family
from tests.test_service_flow_control import make_server


def count_instrument_calls(monkeypatch) -> dict[str, int]:
    counts = dict.fromkeys(("observe", "inc", "labels", "spans"), 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name, owner, attribute in (
        ("observe", Histogram, "observe"),
        ("inc", Counter, "inc"),  # a Gauge's too
        ("labels", _Family, "labels"),
        ("spans", Trace, "add_span"),
    ):
        monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
    return counts


def warm_scan_counts(config, monkeypatch, observability: bool) -> None:
    """Warm every tile and plan, then count what a scan of one SOT and of
    every SOT pays: six updates either way, and ``spans`` per scan."""
    server, video = make_server(config, observability=observability)
    try:
        sot_count = server.tasm.video(video.name).sot_count
        gop = config.codec.gop_frames
        assert sot_count >= 3

        def scan(sots: int):
            window = TemporalPredicate.between(0, sots * gop)
            query = Query(video.name, Query.select("car", video.name).predicate, window)
            return server.submit(query).result(timeout=30)

        for sots in (1, sot_count):
            scan(sots)  # warm every tile, memoise every plan
        counts = count_instrument_calls(monkeypatch)
        spans = 2 if observability else 0
        for sots in (1, sot_count):
            counts.update(dict.fromkeys(counts, 0))
            result = scan(sots)
            assert result.pixels_decoded == 0 and result.regions
            assert counts == {"observe": 6, "inc": 0, "labels": 0, "spans": spans}, (
                f"{counts} at {sots} SOT(s)"
            )
        stages = server.metrics_snapshot()["tasm_stage_seconds"]["values"]
        assert {entry["labels"]["stage"]: entry["count"] for entry in stages} == {
            "plan": 4, "warm": 4, "serve": 4,
        }, "one observation per stage per executed batch"
    finally:
        server.stop()


def test_a_warm_scan_pays_the_same_six_updates_at_any_sot_count(config, monkeypatch):
    warm_scan_counts(config, monkeypatch, observability=True)


def test_with_observability_off_a_warm_scan_pays_the_same_updates_and_no_span(
    config, monkeypatch
):
    warm_scan_counts(config, monkeypatch, observability=False)
