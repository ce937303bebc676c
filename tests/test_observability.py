"""Tests for the observability surface (``repro.obs``) and its wiring.

The contracts pinned here:

* the metrics primitives are exact under concurrency: N threads × M counter
  increments sum to exactly N*M, and a histogram snapshot taken mid-storm is
  never torn (its cumulative buckets are monotone and end at its count);
* a consumer-cancelled query is counted and traced as ``cancelled`` by the
  time the cancel is known to have been handled (every other way a query
  ends, and the conservation law over all of them, is
  ``tests/test_service_accounting.py``);
* ``TasmServer.stats()`` is exactly the ``DecodeStats`` sum of every batch
  the server executed, in process and over the wire's ``stats`` op;
* after a concurrent workload quiesces, histogram totals equal counter
  totals (no lost or double-counted observations), and the server's
  counters agree with the registry's;
* a query trace's top-level spans tile its wall latency, locally and when
  fetched by a remote client over the ``trace`` wire op, and its ``execute``
  span carries the result's own index, decode and cache accounting;
* observability off keeps no trace and logs no slow query, while every
  metric series still counts and served results are unchanged.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.config import TasmConfig
from repro.core.query import Query
import repro.obs as obs_module
from repro.obs import (
    NULL_TRACE,
    Observability,
    SLOW_QUERY_LOGGER,
    Trace,
    TraceLog,
    render_text,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service import RemoteTasmClient, SocketTransport, TasmServer
from repro.video.codec import DecodeStats
from tests.test_exec_engine import make_tasm

CACHE_BYTES = 64 * 1024 * 1024


def make_server(config: TasmConfig, **overrides) -> tuple[TasmServer, object]:
    updates = {"decode_cache_bytes": CACHE_BYTES, **overrides}
    tasm, video = make_tasm(config.with_updates(**updates))
    return TasmServer(tasm).start(), video


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_counter_concurrent_increments_are_exact(self):
        counter = Counter()
        threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == threads * per_thread

    def test_gauge_set_callback_and_failing_callback(self):
        gauge = Gauge()
        gauge.set_callback(lambda: 42)
        assert gauge.value == 42.0

        def boom():
            raise RuntimeError("provider died")

        gauge.set_callback(boom)
        assert gauge.value == 0.0, "a dying provider must not break snapshots"

    def test_histogram_buckets_sum_count(self):
        histogram = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snapshot = histogram._snapshot_value()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(5.555)
        assert snapshot["buckets"] == [[0.01, 1], [0.1, 2], [1.0, 3], ["+Inf", 4]]

    def test_registry_registration_is_idempotent_with_kind_check(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_labelled_family_children_and_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("work_total", "by stage", labels=("stage",))
        family.labels(stage="warm").inc(2)
        family.labels(stage="serve").inc()
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(phase="warm")
        assert not hasattr(family, "inc"), "a labelled family is not an instrument"
        assert isinstance(registry.counter("plain_total"), Counter), (
            "an unlabelled family is its instrument"
        )
        snapshot = registry.snapshot()["work_total"]
        assert snapshot["type"] == "counter"
        assert [(entry["labels"], entry["value"]) for entry in snapshot["values"]] == [
            ({"stage": "serve"}, 1.0),
            ({"stage": "warm"}, 2.0),
        ]

    def test_render_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("tasm_things_total", "Things.").inc(3)
        registry.histogram("tasm_lat_seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.05)
        text = render_text(registry.snapshot())
        assert "# HELP tasm_things_total Things." in text
        assert "# TYPE tasm_things_total counter" in text
        assert "tasm_things_total 3" in text
        assert 'tasm_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'tasm_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "tasm_lat_seconds_count 1" in text
        # The wire format is the snapshot dict itself, so a remotely fetched
        # snapshot renders identically.
        assert render_text(json.loads(json.dumps(registry.snapshot()))) == text


class TestSnapshotConsistencyUnderLoad:
    def test_histogram_snapshots_never_torn(self):
        """Readers racing writers: every snapshot's cumulative buckets are
        monotone and end exactly at its count (each stripe is read under its
        lock, so bucket totals can never drift from counts)."""
        histogram = Histogram(buckets=(0.25, 0.5, 0.75))
        stop = threading.Event()
        torn: list[str] = []

        def write():
            value = 0.0
            while not stop.is_set():
                histogram.observe(value % 1.0)
                value += 0.1

        def read():
            while not stop.is_set():
                snapshot = histogram._snapshot_value()
                cumulative = [count for _, count in snapshot["buckets"]]
                if cumulative != sorted(cumulative):
                    torn.append(f"non-monotone buckets: {snapshot}")
                if cumulative[-1] != snapshot["count"]:
                    torn.append(f"bucket total != count: {snapshot}")

        writers = [threading.Thread(target=write) for _ in range(4)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        time.sleep(0.4)  # the race window: writers and readers contend this long
        stop.set()
        for thread in writers + readers:
            thread.join()
        assert not torn, torn[:3]


class TestSnapshotIsOneInstant:
    def test_buckets_sum_and_count_agree_at_a_short_switch_interval(self):
        """The race above, made likely: the interpreter switches threads every
        few bytecodes, and every observation lands in a finite bucket — so the
        last finite bucket must *equal* the count, which catches buckets read
        before the count as well as after, and the sum must be the count's."""
        histogram = Histogram(buckets=(1.0, 2.0))
        stop = threading.Event()
        torn: list[dict] = []

        def write():
            while not stop.is_set():
                histogram.observe(0.5)

        def read():
            while not stop.is_set():
                snapshot = histogram.snapshot_value()
                count = snapshot["count"]
                if snapshot["buckets"][-2][1] != count or snapshot["sum"] != 0.5 * count:
                    torn.append(snapshot)

        threads = [threading.Thread(target=write) for _ in range(3)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # the race window: writers and readers contend this long
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not torn, torn[:3]


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
class TestTrace:
    def test_top_spans_sum_and_dict_form(self):
        trace = Trace(video="v", labels=("car",))
        trace.add_span("queue", 0.25, top=True)
        trace.add_span("plan", 0.01)
        trace.add_span("execute", 0.5, top=True, sots=3)
        as_dict = trace.to_dict()
        assert as_dict["video"] == "v"
        assert as_dict["labels"] == ["car"]
        assert as_dict["span_seconds"] == pytest.approx(0.75)
        names = [(span["name"], span["top"]) for span in as_dict["spans"]]
        assert names == [("queue", True), ("plan", False), ("execute", True)]
        assert as_dict["spans"][2]["meta"] == {"sots": 3}

    def test_finish_is_idempotent_first_status_wins(self):
        trace = Trace(video="v")
        assert trace.finish("ok") is True
        total = trace.total_seconds
        assert trace.finish("error") is False
        assert trace.status == "ok"
        assert trace.total_seconds == total, "a finished trace's latency is frozen"

    def test_trace_log_is_a_newest_first_bounded_ring(self):
        log = TraceLog(capacity=3)
        traces = [Trace(video=f"v{i}") for i in range(5)]
        for trace in traces:
            trace.finish()
            log.append(trace)
        assert len(log) == 3
        assert [t["video"] for t in log.last(10)] == ["v4", "v3", "v2"]
        assert [t["video"] for t in log.last(2)] == ["v4", "v3"]

    def test_trace_log_last_of_none_is_empty(self):
        log = TraceLog(capacity=8)
        for index in range(3):
            trace = Trace(video=f"v{index}")
            trace.finish()
            log.append(trace)
        assert log.last(0) == []
        assert log.last(-1) == []
        assert len(log.last(3)) == 3

    def test_null_trace_is_inert(self):
        NULL_TRACE.add_span("queue", 1.0, top=True)
        assert NULL_TRACE.finish() is False
        assert NULL_TRACE.to_dict() == {}
        assert NULL_TRACE.enabled is False


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestObservabilityConfig:
    def test_knob_validation(self, monkeypatch):
        # The slow-query threshold and the trace-ring bound are module
        # constants, not config fields: a config that names them is refused.
        with pytest.raises(TypeError):
            TasmConfig(slow_query_ms=-1.0)
        with pytest.raises(TypeError):
            TasmConfig(trace_history=0)
        assert obs_module.SLOW_QUERY_MS > 0.0 and obs_module.TRACE_HISTORY >= 1
        # A bound below one still keeps the newest trace.
        monkeypatch.setattr(obs_module, "TRACE_HISTORY", 0)
        monkeypatch.setattr(obs_module, "SLOW_QUERY_MS", 250.0)
        obs = Observability()
        assert obs.slow_query_seconds == 0.25
        for label in ("car", "person"):
            trace = obs.start_trace(Query.select(label, "v"))
            obs.traces.append(trace)
        assert len(obs.traces) == 1

    def test_from_config_switches_traces_only(self):
        on = Observability.from_config(TasmConfig())
        off = Observability.from_config(TasmConfig(observability=False))
        assert on.keep_traces and not off.keep_traces
        assert off.snapshot() == on.snapshot(), "every series, at zero, either way"
        off.slow_queries.inc()
        assert off.slow_queries.value == 1.0
        assert isinstance(on.start_trace(Query.select("car", "v")), Trace)
        assert off.start_trace(Query.select("car", "v")) is NULL_TRACE


# ----------------------------------------------------------------------
# Cancelled-query accounting over the wire
# ----------------------------------------------------------------------
class TestCancelledAccounting:
    def test_remote_cancel_lands_in_metrics_and_trace_ring(self, config):
        server, video = make_server(config, service_stream_buffer_chunks=1)
        # A 3-SOT scan can finish before a CANCEL crosses the wire, and a
        # finished scan is not a cancelled one.  Hold the decoder after the
        # first SOT until the server has provably processed the CANCEL.
        decoder = server.tasm._decoder
        prefetch = decoder.prefetch_regions
        cancel_landed = threading.Event()

        def gated(sot, requests, scope):
            if sot.sot_index > 0:
                assert cancel_landed.wait(timeout=30), "the CANCEL never landed"
            return prefetch(sot, requests, scope)

        decoder.prefetch_regions = gated
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(
                    transport.address, stream_buffer_chunks=1
                ) as client:
                    stream = client.scan_streaming(video.name, "car")
                    for _sot, _regions in stream:
                        break  # take one chunk, then walk away
                    stream.close()
                    # The connection's reader handles frames in order, so a
                    # reply to a request sent after the CANCEL means the
                    # CANCEL has been handled.
                    client.video_info(video.name)
                    # ... and a handled CANCEL is a counted one: the reader
                    # closed the stream, and closing it accounted the query.
                    assert server.queries_cancelled == 1
                    cancel_landed.set()
            snapshot = server.metrics_snapshot()
            cancelled = snapshot["tasm_queries_cancelled_total"]["values"][0]["value"]
            assert cancelled == 1
            statuses = [trace["status"] for trace in server.traces(8)]
            assert "cancelled" in statuses
        finally:
            cancel_landed.set()
            server.stop()


# ----------------------------------------------------------------------
# The server's decode total
# ----------------------------------------------------------------------
class TestServerDecodeTotal:
    def test_stats_is_the_sum_of_every_batch_in_process_and_over_the_wire(self, config):
        """Two runners, concurrent in-process and remote clients: afterwards
        ``server.stats()`` is the ``DecodeStats`` sum of every
        ``BatchResult.stats`` the executor returned, field for field, and a
        remote client's ``stats()`` is the same value."""
        server, video = make_server(config, service_runners=2)
        execute_batch = server.tasm.execute_batch
        seen: list[DecodeStats] = []

        def spy(queries, **kwargs):
            result = execute_batch(queries, **kwargs)
            seen.append(replace(result.stats))
            return result

        server.tasm.execute_batch = spy
        errors: list[BaseException] = []
        transport = SocketTransport(server).start()

        def scans(client, offset: int) -> None:
            try:
                for index in range(6):
                    client.scan(video.name, ("car", "person", "sign")[(index + offset) % 3])
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        try:
            with RemoteTasmClient(transport.address, use_shm=False) as remote:
                clients = [server.connect(), server.connect(), remote, remote]
                workers = [
                    threading.Thread(target=scans, args=(client, offset))
                    for offset, client in enumerate(clients)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not errors, errors[:3]
                # Each batch is merged before its last stream finishes.
                expected = DecodeStats()
                for stats in seen:
                    expected.merge(stats)
                assert server.stats() == expected
                assert server.connect().stats() == expected
                assert remote.stats() == expected
        finally:
            transport.stop()
            server.stop()
        assert server.batches_executed == len(seen) > 1
        assert expected.pixels_decoded > 0 and expected.cache_hits > 0


# ----------------------------------------------------------------------
# End-to-end integration
# ----------------------------------------------------------------------
class TestObservabilityIntegration:
    def test_trace_top_spans_tile_the_query_latency(self, config):
        server, video = make_server(config)
        try:
            result = server.connect().scan(video.name, "car")
            trace = server.traces(1)[0]
        finally:
            server.stop()
        assert trace["status"] == "ok"
        top = [span for span in trace["spans"] if span["top"]]
        assert [span["name"] for span in top] == ["queue", "execute"]
        assert trace["span_seconds"] == pytest.approx(
            trace["total_seconds"], rel=0.25, abs=0.02
        ), "queue + execute must tile the submit-to-completion latency"
        assert [span["name"] for span in trace["spans"]] == ["queue", "execute"], (
            "in process, a trace is its two top spans and nothing else"
        )
        execute = trace["spans"][1]["meta"]
        assert set(execute) == {
            "index_seconds", "decode_seconds", "pixels_decoded", "tiles_decoded",
            "frames_decoded", "cache_hits", "cache_misses", "pixels_served_from_cache",
        }
        # The batch's warm decoded the tiles; the query's serves read them.
        assert execute["cache_hits"] == result.cache_hits > 0
        assert execute["pixels_served_from_cache"] == result.pixels_served_from_cache > 0
        assert execute["index_seconds"] == result.index_seconds
        assert execute["decode_seconds"] == result.decode_seconds

    def test_every_labelled_series_lists_at_zero_before_traffic(self, config):
        server, _ = make_server(config)
        try:
            snapshot = server.metrics_snapshot()
        finally:
            server.stop()

        def children(name: str, label: str) -> dict:
            return {
                entry["labels"][label]: entry.get("value", entry.get("count"))
                for entry in snapshot[name]["values"]
            }

        assert children("tasm_queries_shed_total", "reason") == {"queue_full": 0}
        assert children("tasm_chunks_sent_total", "path") == {"shm": 0, "socket": 0}
        assert children("tasm_stage_seconds", "stage") == {"plan": 0, "serve": 0, "warm": 0}
        assert snapshot["tasm_queries_submitted_total"]["type"] == "counter", (
            "read from the server, still a counter: the cluster rolls counters up"
        )

    def test_counters_and_histograms_agree_after_concurrent_load(self, config):
        """No torn or lost updates: after N threads × M scans quiesce, the
        latency histogram's count equals the completed counter, which equals
        the server's own count and N*M."""
        server, video = make_server(config)
        threads, per_thread = 6, 5
        errors: list[BaseException] = []
        inconsistent: list[str] = []
        stop_reading = threading.Event()

        def client_load():
            try:
                client = server.connect()
                for index in range(per_thread):
                    label = ("car", "person", "sign")[index % 3]
                    client.scan(video.name, label)
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        def snapshot_load():
            while not stop_reading.is_set():
                for family in server.metrics_snapshot().values():
                    if family["type"] != "histogram":
                        continue
                    for entry in family["values"]:
                        cumulative = [count for _, count in entry["buckets"]]
                        if cumulative != sorted(cumulative) or (
                            cumulative and cumulative[-1] != entry["count"]
                        ):
                            inconsistent.append(f"{family}: {entry}")

        workers = [threading.Thread(target=client_load) for _ in range(threads)]
        reader = threading.Thread(target=snapshot_load)
        reader.start()
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            stop_reading.set()
            reader.join()
            snapshot = server.metrics_snapshot()
            server_completed = server.queries_completed
            server.stop()
        assert not errors, errors[:3]
        assert not inconsistent, inconsistent[:3]
        expected = threads * per_thread

        def value(name):
            return snapshot[name]["values"][0]["value"]

        assert value("tasm_queries_submitted_total") == expected
        assert value("tasm_queries_completed_total") == expected
        assert value("tasm_queries_cancelled_total") == 0
        latency = snapshot["tasm_query_seconds"]["values"][0]
        assert latency["count"] == expected, (
            "histogram totals must equal counter totals after quiesce"
        )
        assert snapshot["tasm_queue_wait_seconds"]["values"][0]["count"] == expected
        assert server_completed == expected

    def test_remote_client_fetches_metrics_and_traces(self, config):
        server, video = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    started = time.perf_counter()
                    client.scan(video.name, "car")
                    wall = time.perf_counter() - started
                    metrics = client.metrics()
                    traces = client.traces(last=4)
        finally:
            server.stop()
        assert metrics["tasm_queries_completed_total"]["values"][0]["value"] == 1
        chunk_paths = {
            entry["labels"]["path"]: entry["value"]
            for entry in metrics["tasm_chunks_sent_total"]["values"]
        }
        assert sum(chunk_paths.values()) >= 1
        trace = traces[0]
        assert trace["status"] == "ok"
        # The acceptance criterion: the fetched trace's top spans account for
        # the observed wall latency (server-side total is a lower bound on
        # the client's wall clock).
        assert trace["span_seconds"] == pytest.approx(
            trace["total_seconds"], rel=0.25, abs=0.02
        )
        assert trace["total_seconds"] <= wall + 0.02
        top = [span for span in trace["spans"] if span["top"]]
        assert [span["name"] for span in top] == ["queue", "execute"], (
            "the fetched trace's top spans tile the wall latency: no other "
            "top-level span, and the two sum to the total (above)"
        )
        assert any(span["name"] == "wire" for span in trace["spans"])
        text = render_text(metrics)
        assert "tasm_query_seconds_bucket" in text

    def test_server_traces_of_none_are_empty(self, config):
        """``TasmServer.traces`` asks the ring for its count as given: none
        for a count of zero or below, however many traces are kept."""
        server, video = make_server(config)
        try:
            for label in ("car", "person"):
                server.connect().scan(video.name, label)
            assert len(server.traces(2)) == 2
            assert server.traces(0) == []
            assert server.traces(-1) == []
        finally:
            server.stop()

    def test_the_wire_trace_op_of_none_is_empty(self, config):
        """The ``trace`` op's ``last`` reaches the ring unchanged: a remote
        client asking for zero traces gets none back."""
        server, video = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    client.scan(video.name, "car")
                    assert len(client.traces(last=1)) == 1
                    assert client.traces(last=0) == []
        finally:
            server.stop()

    def test_slow_query_log_fires_above_threshold(self, config, caplog, monkeypatch):
        monkeypatch.setattr(obs_module, "SLOW_QUERY_MS", 1e-6)
        server, video = make_server(config)
        try:
            with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
                server.connect().scan(video.name, "car")
        finally:
            server.stop()
        records = [r for r in caplog.records if r.name == SLOW_QUERY_LOGGER]
        assert records, "a query above the threshold must be logged"
        attached = records[0].tasm_trace
        assert attached["video"] == video.name
        assert attached["spans"], "the log event carries the span breakdown"
        assert server.obs.slow_queries.value >= 1

    def test_observability_off_keeps_no_trace_and_still_counts(self, config, caplog, monkeypatch):
        from tests.test_exec_engine import assert_scan_results_identical

        monkeypatch.setattr(obs_module, "SLOW_QUERY_MS", 1e-6)
        server, video = make_server(config, observability=False)
        traced, _ = make_server(config)
        reference, _ = make_tasm(config)
        try:
            with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
                stream = server.connect().scan_streaming(video.name, "car")
                assert stream.trace is NULL_TRACE
                result = stream.result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert server.traces() == []
            assert not [r for r in caplog.records if r.name == SLOW_QUERY_LOGGER]
            snapshot = server.metrics_snapshot()
            assert snapshot.keys() == traced.metrics_snapshot().keys(), "every series"
            assert snapshot["tasm_queries_completed_total"]["values"][0]["value"] == 1
            assert snapshot["tasm_query_seconds"]["values"][0]["count"] == 1
            assert snapshot["tasm_slow_queries_total"]["values"][0]["value"] == 1
            assert server.queries_completed == 1
        finally:
            server.stop()
            traced.stop()
