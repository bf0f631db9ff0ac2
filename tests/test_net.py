"""Tests for the network front door (:mod:`repro.net`).

Three layers of coverage:

* **protocol** — frame codec round-trips (including byte-at-a-time
  feeding) and the fuzz contract: truncated/corrupt input raises
  :class:`ProtocolError`, never anything else;
* **loopback differential** — a live server over a seeded engine must
  answer exactly like the wrapped :class:`RangeQueryService` called
  directly, for single queries, columnar batches, mutations, and
  concurrent clients;
* **operational behaviour** — version negotiation, admission-control
  sheds, batching-window coalescing, a malformed-frame hammer that the
  server must survive, and the ``serve --listen`` SIGINT drain
  exercised through a real subprocess.
"""

import asyncio
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import RangeQueryService, ShardedEngine
from repro.filters import FilterSpec
from repro.net import (
    AsyncClient,
    FrameDecoder,
    ProtocolError,
    RemoteError,
    ServerConfig,
    ShedError,
    SyncClient,
    serve_in_thread,
)
from repro.net import protocol as proto
from repro.workloads.queries import zipfian_queries

UNIVERSE = 2**32


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=14, max_range_size=64, seed=7)


@pytest.fixture(scope="module")
def service():
    engine = ShardedEngine(
        UNIVERSE, num_shards=4, memtable_limit=256,
        filter_spec=GRAFITE_SPEC,
    )
    rng = np.random.default_rng(11)
    keys = rng.integers(0, UNIVERSE, 4000, dtype=np.uint64)
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    svc = RangeQueryService(engine, num_threads=2, cache_blocks=512)
    svc.keys = np.unique(keys)  # stashed for the differential tests
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    handle = serve_in_thread(
        service, config=ServerConfig(batch_window=200e-6)
    )
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# Protocol codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        payload = proto.encode_frame(proto.OP_PING, 7, b"abc")
        frames = FrameDecoder().feed(payload)
        assert len(frames) == 1
        frame = frames[0]
        assert (frame.op, frame.status, frame.request_id, frame.body) == (
            proto.OP_PING, proto.STATUS_OK, 7, b"abc"
        )
        assert not frame.is_response
        assert frame.base_op == proto.OP_PING

    def test_byte_at_a_time_feeding(self):
        payload = proto.encode_range(3, 10, 20) + proto.encode_point(4, 5)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(payload)):
            frames.extend(decoder.feed(payload[i:i + 1]))
        assert [f.request_id for f in frames] == [3, 4]
        assert decoder.buffered == 0

    def test_partial_frame_stays_buffered(self):
        payload = proto.encode_range(1, 0, 9)
        decoder = FrameDecoder()
        assert decoder.feed(payload[:-1]) == []
        assert decoder.buffered == len(payload) - 1
        assert len(decoder.feed(payload[-1:])) == 1

    def test_response_bit(self):
        frames = FrameDecoder().feed(proto.encode_range_response(9, True))
        assert frames[0].is_response
        assert frames[0].base_op == proto.OP_RANGE
        assert proto.decode_range_response(frames[0].body) is True

    def test_batch_roundtrip_and_zero_copy(self):
        los = np.array([1, 5, 100], dtype=np.uint64)
        his = np.array([4, 5, 200], dtype=np.uint64)
        frame = FrameDecoder().feed(proto.encode_batch(2, los, his))[0]
        dlos, dhis = proto.decode_batch(frame.body)
        np.testing.assert_array_equal(dlos, los)
        np.testing.assert_array_equal(dhis, his)
        # Zero copy: the decoded columns are views over the frame body.
        assert dlos.base is not None and not dlos.flags.owndata

    def test_batch_response_bitmap(self):
        for n in (0, 1, 7, 8, 9, 64, 100):
            empty = (np.arange(n) % 3 == 0)
            body = FrameDecoder().feed(
                proto.encode_batch_response(1, empty)
            )[0].body
            np.testing.assert_array_equal(
                proto.decode_batch_response(body), empty
            )

    def test_negotiate_version(self):
        assert proto.negotiate_version(1, 1) == proto.PROTOCOL_VERSION
        assert proto.negotiate_version(1, 99) == proto.PROTOCOL_VERSION
        assert proto.negotiate_version(
            proto.PROTOCOL_VERSION + 1, proto.PROTOCOL_VERSION + 5
        ) is None

    def test_oversized_frame_rejected_encode_side(self):
        with pytest.raises(ProtocolError):
            proto.encode_frame(proto.OP_BATCH, 1, b"x" * proto.MAX_FRAME)


class TestFrameFuzz:
    """Malformed input raises ProtocolError — never anything else."""

    def test_length_below_header(self):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack("<I", 2) + b"xx")

    def test_length_above_cap(self):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack("<I", proto.MAX_FRAME + 1))

    def test_batch_body_count_mismatch(self):
        body = struct.pack("<I", 10) + b"\x00" * 16  # says 10, carries 1
        with pytest.raises(ProtocolError):
            proto.decode_batch(body)

    def test_batch_lo_above_hi(self):
        los = np.array([9], dtype=np.uint64)
        his = np.array([3], dtype=np.uint64)
        body = struct.pack("<I", 1) + los.tobytes() + his.tobytes()
        with pytest.raises(ProtocolError):
            proto.decode_batch(body)

    def test_range_lo_above_hi(self):
        with pytest.raises(ProtocolError):
            proto.decode_range(struct.pack("<QQ", 10, 2))

    def test_hello_empty_version_range(self):
        with pytest.raises(ProtocolError):
            proto.decode_hello(struct.pack("<BB", 5, 2))

    def test_truncated_bodies(self):
        for decode in (proto.decode_range, proto.decode_point,
                       proto.decode_delete, proto.decode_hello,
                       proto.decode_insert, proto.decode_batch):
            with pytest.raises(ProtocolError):
                decode(b"\x01")

    def test_insert_value_length_mismatch(self):
        body = struct.pack("<QI", 1, 100) + b"short"
        with pytest.raises(ProtocolError):
            proto.decode_insert(body)

    def test_stats_response_garbage(self):
        with pytest.raises(ProtocolError):
            proto.decode_stats_response(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            proto.decode_stats_response(b"[1, 2]")

    def test_random_garbage_never_raises_other_exceptions(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            blob = rng.integers(0, 256, rng.integers(1, 64)).astype(
                np.uint8
            ).tobytes()
            try:
                FrameDecoder().feed(blob)
            except ProtocolError:
                pass  # the only acceptable exception


# ----------------------------------------------------------------------
# Loopback differential
# ----------------------------------------------------------------------
class TestLoopbackDifferential:
    def test_hello_ping_version(self, server):
        with SyncClient(server.host, server.port) as client:
            assert client.version == proto.PROTOCOL_VERSION
            client.ping()

    def test_single_ranges_match_direct_service(self, service, server):
        los, his = zipfian_queries(
            service.keys, 64, 32, UNIVERSE, seed=3
        )
        direct = service.batch_range_empty(los, his)
        with SyncClient(server.host, server.port) as client:
            for i in range(los.size):
                assert client.range_empty(
                    int(los[i]), int(his[i])
                ) == bool(direct[i])

    def test_batch_matches_direct_service(self, service, server):
        los, his = zipfian_queries(
            service.keys, 500, 16, UNIVERSE, skew=0.9, seed=4
        )
        direct = service.batch_range_empty(los, his)
        with SyncClient(server.host, server.port) as client:
            np.testing.assert_array_equal(
                client.batch_range_empty(los, his), direct
            )

    def test_mutations_roundtrip(self, service, server):
        key = int(service.keys[0]) ^ 0x5A5A5A
        with SyncClient(server.host, server.port) as client:
            assert client.get(key) is None
            client.put(key, b"net-value")
            assert client.get(key) == b"net-value"
            assert client.range_empty(key, key) is False
            client.delete(key)
            assert client.get(key) is None

    def test_stats_op_merges_service_and_server(self, server):
        with SyncClient(server.host, server.port) as client:
            snap = client.stats()
        assert snap["mode"] == "thread"
        assert "compaction" in snap and "backlog" in snap["compaction"]
        assert snap["server"]["connections_total"] >= 1
        assert "queries_answered" in snap["server"]

    def test_concurrent_clients_match_direct_service(self, service, server):
        """Several clients hammering at once all get the right verdicts."""
        los, his = zipfian_queries(
            service.keys, 240, 24, UNIVERSE, seed=5
        )
        direct = service.batch_range_empty(los, his)
        failures = []

        def worker(tid):
            sl = slice(tid * 60, (tid + 1) * 60)
            try:
                with SyncClient(server.host, server.port) as client:
                    got = client.batch_range_empty(los[sl], his[sl])
                    if not np.array_equal(got, direct[sl]):
                        failures.append(f"client {tid}: verdict mismatch")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(f"client {tid}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not failures, failures

    def test_pipelined_async_client_matches(self, service, server):
        los, his = zipfian_queries(service.keys, 80, 8, UNIVERSE, seed=6)
        direct = service.batch_range_empty(los, his)

        async def run():
            client = await AsyncClient.connect(server.host, server.port)
            try:
                results = await asyncio.gather(
                    *(client.range_empty(int(los[i]), int(his[i]))
                      for i in range(los.size))
                )
            finally:
                await client.close()
            return results

        results = asyncio.run(run())
        np.testing.assert_array_equal(np.asarray(results), direct)


# ----------------------------------------------------------------------
# Server behaviour
# ----------------------------------------------------------------------
class TestServerBehaviour:
    def test_hello_required_first(self, server):
        sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        try:
            sock.sendall(proto.encode_frame(proto.OP_PING, 1))
            frame = FrameDecoder().feed(sock.recv(65536))[0]
            assert frame.status == proto.STATUS_ERROR
            assert sock.recv(65536) == b""  # server hung up
        finally:
            sock.close()

    def test_version_mismatch_rejected(self, server):
        sock = socket.create_connection(
            (server.host, server.port), timeout=10
        )
        try:
            sock.sendall(proto.encode_hello(
                1, min_version=proto.PROTOCOL_VERSION + 1,
                max_version=proto.PROTOCOL_VERSION + 2,
            ))
            frame = FrameDecoder().feed(sock.recv(65536))[0]
            assert frame.status == proto.STATUS_ERROR
            assert b"no common version" in frame.body
        finally:
            sock.close()

    def test_malformed_body_answers_error_and_keeps_connection(self, server):
        with SyncClient(server.host, server.port) as client:
            # Well-framed RANGE op with a 3-byte body: error, not a hang.
            rid = 999
            client.send_raw(proto.encode_frame(proto.OP_RANGE, rid, b"xyz"))
            frame = client._recv(rid, time.monotonic() + 10)
            assert frame.status == proto.STATUS_ERROR
            client.ping()  # the connection survived

    def test_corrupt_stream_drops_connection_but_not_server(self, server):
        before = server.stats()["protocol_errors"]
        with SyncClient(server.host, server.port) as bad:
            # A length prefix beyond MAX_FRAME is unresynchronisable.
            bad.send_raw(struct.pack("<I", proto.MAX_FRAME + 5) + b"junk")
            with pytest.raises(ProtocolError):
                bad.ping()
        # Other clients are unaffected and the error was counted.
        with SyncClient(server.host, server.port) as good:
            good.ping()
        assert server.stats()["protocol_errors"] > before

    def test_garbage_hammer_server_survives(self, server):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sock = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            blob = rng.integers(0, 256, 200).astype(np.uint8).tobytes()
            try:
                sock.sendall(blob)
            finally:
                sock.close()
        with SyncClient(server.host, server.port) as client:
            client.ping()

    def test_inflight_budget_sheds_batches(self, service):
        handle = serve_in_thread(
            service,
            config=ServerConfig(batch_window=0.0, max_inflight=1),
        )
        try:
            los = np.array([1, 2], dtype=np.uint64)
            his = np.array([10, 20], dtype=np.uint64)
            with SyncClient(handle.host, handle.port) as client:
                with pytest.raises(ShedError):
                    client.batch_range_empty(los, his)  # 2 > budget of 1
                # A single query fits the budget and still works.
                assert isinstance(client.range_empty(1, 10), bool)
            stats = handle.stats()
            assert stats["shed_inflight"] >= 2
            assert stats["peak_inflight"] <= 1
        finally:
            handle.stop()

    def test_overload_signal_sheds_queries(self, service):
        # A backlog ceiling of -1 makes the (empty) compaction queue
        # already "over", so every query sheds — deterministically.
        handle = serve_in_thread(
            service,
            config=ServerConfig(batch_window=0.0, max_compaction_backlog=-1),
        )
        try:
            with SyncClient(handle.host, handle.port) as client:
                with pytest.raises(ShedError):
                    client.range_empty(0, 100)
                client.ping()  # control traffic is not shed
            assert handle.stats()["shed_overload"] >= 1
        finally:
            handle.stop()

    def test_batching_window_coalesces(self, service):
        handle = serve_in_thread(
            service, config=ServerConfig(batch_window=20e-3, max_batch=512)
        )
        try:
            n = 40

            async def run():
                client = await AsyncClient.connect(handle.host, handle.port)
                try:
                    await asyncio.gather(
                        *(client.range_empty(i * 1000, i * 1000 + 10)
                          for i in range(n))
                    )
                finally:
                    await client.close()

            asyncio.run(run())
            stats = handle.stats()
            # 40 pipelined queries within a 20ms window coalesce into far
            # fewer engine batches than one-per-query.
            assert stats["batches_executed"] <= n // 4
            assert stats["queries_answered"] >= n
        finally:
            handle.stop()

    def test_stop_is_idempotent_and_refuses_new_queries(self, service):
        handle = serve_in_thread(service, config=ServerConfig())
        handle.stop()
        handle.stop()  # second stop is a no-op
        with pytest.raises((ConnectionRefusedError, OSError)):
            SyncClient(handle.host, handle.port, timeout=2)


# ----------------------------------------------------------------------
# Graceful shutdown through the CLI (subprocess regression test)
# ----------------------------------------------------------------------
class TestServeListenSubprocess:
    def test_sigint_drains_and_exits_cleanly(self, tmp_path):
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        srv = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", "--n", "1500", "--seed", "3",
             "--dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={"PYTHONPATH": repo_src, "PATH": "/usr/bin:/bin"},
        )
        try:
            line = srv.stdout.readline()
            m = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert m, f"no listen line: {line!r}"
            with SyncClient(m.group(1), int(m.group(2)), timeout=10) as c:
                c.ping()
                assert isinstance(c.range_empty(10, 500), bool)
            srv.send_signal(signal.SIGINT)
            out, _ = srv.communicate(timeout=60)
        finally:
            if srv.poll() is None:
                srv.kill()
                srv.communicate()
        assert srv.returncode == 0, out
        assert "Traceback" not in out, out
        assert "shutdown clean" in out
        # The drain checkpointed the persistent engine before closing.
        assert (tmp_path / "store").exists()


# ----------------------------------------------------------------------
# Load generator plumbing (fast, loopback)
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_open_loop_run_completes_and_records_latency(self, service):
        from repro.net import LoadConfig, run_loadgen

        handle = serve_in_thread(
            service, config=ServerConfig(batch_window=200e-6)
        )
        try:
            cfg = LoadConfig(
                clients=32, connections=2, rate=4000.0, n_requests=400,
                distribution="zipf", seed=9,
            )
            report = run_loadgen(
                handle.host, handle.port, cfg,
                universe=UNIVERSE, keys=service.keys,
            )
        finally:
            handle.stop()
        assert report.sent == 400
        assert report.completed + report.shed + report.errors == 400
        assert report.errors == 0
        assert report.latencies.size == report.completed
        assert report.p50 > 0 and report.p99 >= report.p50
        d = report.to_dict()
        assert d["completed"] == report.completed

    def test_arrivals_and_queries_deterministic(self):
        from repro.net import LoadConfig, generate_arrivals, generate_queries

        keys = np.sort(
            np.random.default_rng(0).integers(
                0, UNIVERSE, 2000, dtype=np.uint64
            )
        )
        cfg = LoadConfig(n_requests=500, arrivals="bursty", seed=5)
        np.testing.assert_array_equal(
            generate_arrivals(cfg), generate_arrivals(cfg)
        )
        a = generate_queries(cfg, UNIVERSE, keys)
        b = generate_queries(cfg, UNIVERSE, keys)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_truncated_run_cancels_stragglers_into_errors(self):
        """Regression: a run whose requests never come back must cancel
        the straggler tasks at teardown and tally them as errors — the
        old code left fired tasks dangling ("Task was destroyed but it
        is pending") and reported ``sent = n_requests`` even though the
        ledger only covered the completed ones, breaking
        ``completed + shed + errors == sent``."""
        from repro.net import LoadConfig, loadgen
        from repro.net import protocol as proto

        async def scenario():
            async def black_hole(reader, writer):
                # Answer the hello handshake, then swallow every query.
                decoder = proto.FrameDecoder()
                try:
                    while True:
                        data = await reader.read(65536)
                        if not data:
                            break
                        for frame in decoder.feed(data):
                            if frame.op == proto.OP_HELLO:
                                writer.write(proto.encode_hello_response(
                                    frame.request_id, proto.PROTOCOL_VERSION
                                ))
                                await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            cfg = LoadConfig(
                clients=8, connections=2, rate=50_000.0, n_requests=40,
                distribution="uniform", seed=3, timeout=0.5,
            )
            try:
                return await loadgen.run_async(
                    host, port, cfg, universe=UNIVERSE
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(scenario())
        assert report.sent == 40
        assert report.completed == 0 and report.shed == 0
        assert report.errors == 40
        assert report.completed + report.shed + report.errors == report.sent
        assert report.latencies.size == 0

    def test_bursty_arrivals_cluster(self):
        from repro.net import LoadConfig, generate_arrivals

        cfg = LoadConfig(
            n_requests=4000, rate=4000.0, arrivals="bursty",
            burst_factor=8.0, burst_period=0.25, seed=2,
        )
        times = generate_arrivals(cfg)
        gaps = np.diff(times)
        # On/off modulation: the dense phase has much smaller gaps than
        # the sparse phase, so the gap distribution is strongly bimodal.
        assert np.percentile(gaps, 90) > 4 * np.percentile(gaps, 10)
