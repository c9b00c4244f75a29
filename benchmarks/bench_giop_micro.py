"""GIOP/CDR micro-benchmarks: encode, decode, and frame-peek
throughput.

The S9 macro benches measure whole storms; a marshalling regression
(an accidental copy on the decode path, a quadratic join in the
encoder) hides inside their wall-clock noise.  These kernels time the
wire-stack primitives in isolation so CDR/framing regressions surface
on their own axis:

* ``encode`` / ``decode`` of a representative Request round-trip;
* ``encode`` / ``decode`` of a Reply carrying a 33-row x 6-column
  mixed result set, the payload a native fetch ships back;
* ``decode`` over a zero-copy ``memoryview`` (the event-loop server's
  hot path) versus over ``bytes``;
* header peeks — ``peek_frame_size`` / ``peek_request`` /
  ``peek_reply_id`` — which every frame pays once or twice;
* ``FrameBuffer`` slicing of a jumbo coalesced chunk back into frames.

Run with ``pytest benchmarks/bench_giop_micro.py --benchmark-only``.
"""

import datetime

from repro.orb.giop import (ReplyMessage, ReplyStatus, RequestMessage,
                            decode_message, encode_message,
                            peek_frame_size, peek_reply_id, peek_request)
from repro.orb.transport import FrameBuffer

#: A representative discovery-sized request: a handful of mixed-type
#: arguments, a service context, a realistic object key.
REQUEST = RequestMessage(
    request_id=12345,
    object_key=b"obj:codb:sky_survey_main",
    operation="describe_source",
    arguments=["astronomy catalogues", 42, 3.25,
               {"fields": ["ra", "dec", "mag"], "limit": 100}],
    service_context=[(0xBEEF, "orbix")],
)
REQUEST_FRAME = encode_message(REQUEST)

REPLY_FRAME = encode_message(ReplyMessage(
    request_id=12345, status=ReplyStatus.NO_EXCEPTION,
    body={"name": "sky_survey_main", "rows": 100,
          "columns": ["ra", "dec", "mag"]}))


#: A native-fetch answer as an ISI servant ships it: a result set of
#: 33 rows x 6 columns mixing int, str, double, date and null.
RESULT_SET_REPLY = ReplyMessage(
    request_id=4321, status=ReplyStatus.NO_EXCEPTION,
    body={"__kind__": "resultset",
          "columns": ["ClaimId", "Member", "Amount", "Lodged", "Note",
                      "Status"],
          "rows": [[1000 + i, f"member-{i:03d}", 12.5 * i + 0.25,
                    datetime.date(1998, 1 + i % 12, 1 + i % 28),
                    None if i % 3 else "reviewed", "paid"]
                   for i in range(33)],
          "rowcount": 33},
    service_context=[(0xBEEF, "orbix")])
RESULT_SET_FRAME = encode_message(RESULT_SET_REPLY)


def test_encode_request(benchmark):
    frame = benchmark(encode_message, REQUEST)
    assert peek_request(frame) == (12345, True)


def test_decode_request_from_bytes(benchmark):
    message = benchmark(decode_message, REQUEST_FRAME)
    assert message.request_id == 12345


def test_decode_request_from_memoryview(benchmark):
    """The event-loop server decodes frames sliced from its receive
    buffer as views; this must not cost more than decoding bytes."""
    view = memoryview(REQUEST_FRAME)
    message = benchmark(decode_message, view)
    assert message.request_id == 12345


def test_encode_result_set_reply(benchmark):
    frame = benchmark(encode_message, RESULT_SET_REPLY)
    assert frame == RESULT_SET_FRAME


def test_decode_result_set_reply(benchmark):
    message = benchmark(decode_message, memoryview(RESULT_SET_FRAME))
    assert message == RESULT_SET_REPLY


def test_peek_frame_size(benchmark):
    total = benchmark(peek_frame_size, REQUEST_FRAME[:12])
    assert total == len(REQUEST_FRAME)


def test_peek_request_id(benchmark):
    assert benchmark(peek_request, REQUEST_FRAME) == (12345, True)


def test_peek_reply_id(benchmark):
    assert benchmark(peek_reply_id, REPLY_FRAME) == 12345


def test_framebuffer_slices_coalesced_chunk(benchmark):
    """One jumbo recv carrying 64 frames, sliced back out — the
    server-side hot loop under a pipelined client's batched writes."""
    chunk = REQUEST_FRAME * 64

    def slice_all():
        buffer = FrameBuffer()
        buffer.feed(chunk)
        count = 0
        while buffer.next_frame() is not None:
            count += 1
        return count

    assert benchmark(slice_all) == 64


def test_framebuffer_reassembles_split_frames(benchmark):
    """The same 64 frames fed in awkward 1000-byte chunks."""
    stream = REQUEST_FRAME * 64
    chunks = [stream[start:start + 1000]
              for start in range(0, len(stream), 1000)]

    def reassemble():
        buffer = FrameBuffer()
        count = 0
        for chunk in chunks:
            buffer.feed(chunk)
            while buffer.next_frame() is not None:
                count += 1
        return count

    assert benchmark(reassemble) == 64
