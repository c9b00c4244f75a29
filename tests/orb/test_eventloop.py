"""The TCP transport's event loop: loop mechanics, batching, auto
pipelining, and metrics safety under mixed loop/worker access."""

import socket
import threading

import pytest

from repro.orb import InterfaceBuilder, TcpTransport, create_orb, ORBIX
from repro.orb.transport import TransportMetrics, _EventLoop, _LoopStream

ECHO = InterfaceBuilder("Echo").operation("echo", "value").build()


class EchoServant:
    def echo(self, value):
        return value


def _echo_deployment(**transport_kwargs):
    transport = TcpTransport(**transport_kwargs)
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    ior = orb.activate(EchoServant(), ECHO, object_name="echo")
    return transport, orb, orb.proxy(ior, ECHO)


# ------------------------------------------------------------ round trips --


def test_loop_serial_roundtrip():
    transport, orb, proxy = _echo_deployment()
    try:
        assert proxy.echo("hello") == "hello"
        assert transport.metrics.messages_sent == 1
    finally:
        transport.close()


def test_loop_large_payload_crosses_recv_and_send_boundaries():
    """A payload much larger than one recv (and than the kernel's
    socket buffers) forces multi-chunk reassembly on the read side and
    partial, writability-driven sends on the write side."""
    transport, orb, proxy = _echo_deployment()
    try:
        blob = bytes(range(256)) * 8192  # 2 MiB
        assert proxy.echo(blob) == blob
    finally:
        transport.close()


def test_loop_pipelined_concurrent_callers():
    transport, orb, proxy = _echo_deployment(pipelined=True, stripes=2)
    try:
        barrier = threading.Barrier(12)
        results = {}

        def caller(index):
            barrier.wait()
            results[index] = proxy.echo(index)

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {index: index for index in range(12)}
        assert transport.metrics.requests_pipelined > 0
    finally:
        transport.close()


def test_loop_server_thread_count_is_bounded():
    """The acceptance bound: however many clients connect, the server
    side is one loop thread plus at most ``loop_workers`` workers."""
    transport, orb, proxy = _echo_deployment(pipelined=True, stripes=4,
                                             loop_workers=6)
    try:
        barrier = threading.Barrier(32)

        def caller(index):
            barrier.wait()
            assert proxy.echo(index) == index

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert transport.server_thread_count() <= 1 + 6
    finally:
        transport.close()


def test_unregister_closes_loop_listener():
    transport, orb, proxy = _echo_deployment()
    endpoint = orb.endpoint
    try:
        assert proxy.echo(1) == 1
        transport.unregister(endpoint)
        with pytest.raises(ConnectionError):
            socket.create_connection(endpoint, timeout=0.5)
    finally:
        transport.close()


# ---------------------------------------------------------- frame batching --


def test_flush_coalesces_queued_frames_into_one_send():
    """Deterministic batching check at the stream level: three frames
    enqueued before one flush leave as a single send."""
    metrics = TransportMetrics()
    loop = _EventLoop(batch_flush=64 * 1024, metrics=metrics)
    left, right = socket.socketpair()
    left.setblocking(False)
    try:
        stream = _LoopStream(loop, left)
        frames = [b"AAAA", b"BBBBBB", b"CC"]

        def enqueue_and_flush():
            for frame in frames:
                stream.enqueue(frame)
            stream.flush()

        loop.call_soon_sync(enqueue_and_flush)
        right.settimeout(2.0)
        assert right.recv(4096) == b"".join(frames)
        snapshot = metrics.snapshot()
        assert snapshot["batch_flushes"] == 1
        assert snapshot["frames_batched"] == 2
    finally:
        loop.stop()
        right.close()


def test_batch_flush_cap_limits_one_batch():
    """A flush stops coalescing at ``batch_flush`` bytes; the rest
    goes in subsequent sends (still all delivered, in order)."""
    metrics = TransportMetrics()
    loop = _EventLoop(batch_flush=8, metrics=metrics)
    left, right = socket.socketpair()
    left.setblocking(False)
    try:
        stream = _LoopStream(loop, left)

        def enqueue_and_flush():
            for frame in (b"12345", b"67890", b"abcde"):
                stream.enqueue(frame)
            stream.flush()

        loop.call_soon_sync(enqueue_and_flush)
        right.settimeout(2.0)
        received = b""
        while len(received) < 15:
            received += right.recv(4096)
        assert received == b"1234567890abcde"
        # First batch took two frames (5 + 5 >= 8), the third went solo.
        assert metrics.snapshot()["frames_batched"] == 1
    finally:
        loop.stop()
        right.close()


def test_call_later_fires_in_order():
    loop = _EventLoop(batch_flush=1, metrics=TransportMetrics())
    try:
        fired = []
        done = threading.Event()
        loop.call_later(0.03, lambda: (fired.append("late"), done.set()))
        loop.call_later(0.01, fired.append, "early")
        loop.call_soon(fired.append, "now")
        assert done.wait(2.0)
        assert fired == ["now", "early", "late"]
    finally:
        loop.stop()


# --------------------------------------------------------- auto pipelining --


class BarrierEchoServant:
    """Echoes only once *parties* calls are in the servant at the same
    time — proof of genuinely concurrent in-flight demand."""

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties)

    def echo(self, value):
        self.barrier.wait(timeout=10.0)
        return value


def test_auto_mode_flips_serial_to_striped_deterministically():
    """Two calls forced to overlap (the servant's barrier needs both in
    flight to release either) promote the endpoint exactly once; a lone
    serial call beforehand does not."""
    transport = TcpTransport(pipelined="auto")
    orb = create_orb(ORBIX, transport, host="127.0.0.1", port=0)
    try:
        servant = BarrierEchoServant(parties=2)
        ior = orb.activate(servant, ECHO, object_name="echo")
        proxy = orb.proxy(ior, ECHO)
        endpoint = orb.endpoint

        # A lone call never promotes: demand was never concurrent.
        servant.barrier = threading.Barrier(1)
        assert proxy.echo(0) == 0
        assert not transport.pipelining_active(endpoint)
        assert transport.metrics.auto_promotions == 0

        # Two overlapping calls: neither can finish until both are in
        # flight, so the second send observes depth 2 and promotes.
        servant.barrier = threading.Barrier(2)
        results = {}

        def caller(index):
            results[index] = proxy.echo(index)

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {1: 1, 2: 2}
        assert transport.pipelining_active(endpoint)
        assert transport.metrics.auto_promotions == 1

        # Promotion is permanent and auto defaults to 4-way striping.
        assert transport.stripes == 4
        servant.barrier = threading.Barrier(1)
        assert proxy.echo(3) == 3
        assert transport.metrics.auto_promotions == 1
    finally:
        transport.close()


def test_auto_mode_rejects_bad_values():
    with pytest.raises(ValueError):
        TcpTransport(pipelined="always")


# ------------------------------------------------------------ metrics safety --


def test_metrics_safe_under_mixed_loop_and_worker_access():
    """Satellite: every counter path hammered from many threads at
    once (as the loop flushes while workers record dispatches) loses no
    increments and snapshots never expose torn multi-field reads."""
    metrics = TransportMetrics()
    endpoint = ("127.0.0.1", 9999)
    threads_count, iterations = 8, 500
    start = threading.Barrier(threads_count + 1)
    torn = []

    def hammer(seed):
        start.wait()
        for index in range(iterations):
            metrics.record(endpoint, 100, 50)
            metrics.record_pipeline(depth=(seed + index) % 7)
            metrics.record_stall()
            metrics.record_overflow()
            metrics.record_batch(frames=3)
            metrics.record_connection(reused=index % 2 == 0)
            metrics.record_auto_promotion()

    def reader():
        start.wait()
        for __ in range(iterations):
            snapshot = metrics.snapshot()
            # Invariant across all paths: bytes follow messages 100/50.
            if snapshot["bytes_sent"] != snapshot["messages_sent"] * 100 \
                    or snapshot["bytes_received"] != \
                    snapshot["messages_sent"] * 50:
                torn.append(snapshot)

    workers = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(threads_count)]
    observer = threading.Thread(target=reader)
    for thread in [*workers, observer]:
        thread.start()
    for thread in [*workers, observer]:
        thread.join()

    assert torn == []
    total = threads_count * iterations
    snapshot = metrics.snapshot()
    assert snapshot["messages_sent"] == total
    assert snapshot["bytes_sent"] == total * 100
    assert snapshot["pipeline_stalls"] == total
    assert snapshot["pipeline_overflows"] == total
    assert snapshot["batch_flushes"] == total
    assert snapshot["frames_batched"] == total * 2
    assert snapshot["auto_promotions"] == total
    assert snapshot["connections_opened"] \
        + snapshot["connections_reused"] == total
    assert metrics.per_endpoint[endpoint] == total
