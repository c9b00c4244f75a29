"""GIOP framing and IOR stringification tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.orb.cdr import CdrEncoder
from repro.orb.giop import (HEADER_SIZE, MAGIC, LocateReplyMessage,
                            LocateRequestMessage, LocateStatus, MessageType,
                            ReplyMessage, ReplyStatus, RequestMessage,
                            decode_message, encode_message)
from repro.orb.ior import IiopProfile, Ior, make_ior


class TestGiopHeader:
    def test_header_layout(self):
        message = RequestMessage(request_id=1, object_key=b"k",
                                 operation="op")
        data = encode_message(message)
        assert data[:4] == MAGIC
        assert data[4:6] == bytes([1, 0])  # GIOP 1.0
        assert data[7] == MessageType.REQUEST
        size = int.from_bytes(data[8:12], "big")
        assert size == len(data) - HEADER_SIZE

    def test_bad_magic(self):
        with pytest.raises(MarshalError):
            decode_message(b"JUNK" + bytes(10))

    def test_short_message(self):
        with pytest.raises(MarshalError):
            decode_message(b"GIOP")

    def test_truncated_body(self):
        message = encode_message(RequestMessage(1, b"k", "op"))
        with pytest.raises(MarshalError):
            decode_message(message[:-2])

    def test_unknown_version(self):
        data = bytearray(encode_message(RequestMessage(1, b"k", "op")))
        data[5] = 9
        with pytest.raises(MarshalError):
            decode_message(bytes(data))

    def test_unknown_message_type(self):
        data = bytearray(encode_message(RequestMessage(1, b"k", "op")))
        data[7] = 99
        with pytest.raises(MarshalError):
            decode_message(bytes(data))


class TestMessages:
    def test_request_roundtrip(self):
        message = RequestMessage(
            request_id=7, object_key=b"orb/Iface/obj1",
            operation="find_coalitions",
            arguments=["Medical", 3, {"deep": [True, None]}],
            response_expected=True,
            service_context=[(0xBEEF, "Orbix")])
        decoded = decode_message(encode_message(message))
        assert decoded == message

    def test_oneway_request(self):
        message = RequestMessage(1, b"k", "notify", ["x"],
                                 response_expected=False)
        assert decode_message(encode_message(message)).response_expected \
            is False

    def test_reply_roundtrip(self):
        for status in ReplyStatus:
            message = ReplyMessage(request_id=3, status=status,
                                   body={"answer": 42})
            decoded = decode_message(encode_message(message))
            assert decoded.status is status
            assert decoded.body == {"answer": 42}

    def test_locate_roundtrip(self):
        request = LocateRequestMessage(request_id=5, object_key=b"key")
        assert decode_message(encode_message(request)) == request
        reply = LocateReplyMessage(request_id=5,
                                   status=LocateStatus.OBJECT_HERE)
        assert decode_message(encode_message(reply)) == reply

    def test_little_endian_roundtrip(self):
        message = ReplyMessage(1, ReplyStatus.NO_EXCEPTION, body=[1.5, "x"])
        decoded = decode_message(encode_message(message, little_endian=True))
        assert decoded.body == [1.5, "x"]

    @given(request_id=st.integers(0, 2**32 - 1),
           operation=st.text(min_size=1, max_size=20),
           key=st.binary(min_size=1, max_size=30),
           args=st.lists(st.one_of(st.integers(-2**31, 2**31 - 1),
                                   st.text(max_size=15), st.none(),
                                   st.booleans()), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_request_roundtrip_property(self, request_id, operation, key,
                                        args):
        message = RequestMessage(request_id=request_id, object_key=key,
                                 operation=operation, arguments=args)
        assert decode_message(encode_message(message)) == message


class TestIor:
    def test_roundtrip(self):
        ior = make_ior("IDL:webfindit/CoDatabase:1.0",
                       "dba.icis.qut.edu.au", 20001, b"codb-RBH")
        parsed = Ior.from_string(ior.to_string())
        assert parsed == ior
        assert parsed.primary.endpoint == ("dba.icis.qut.edu.au", 20001)

    def test_string_form_prefix(self):
        ior = make_ior("IDL:x:1.0", "h", 1, b"k")
        assert ior.to_string().startswith("IOR:")

    def test_multi_profile(self):
        ior = Ior(type_id="IDL:x:1.0", profiles=(
            IiopProfile("a", 1, b"k1"), IiopProfile("b", 2, b"k2")))
        parsed = Ior.from_string(ior.to_string())
        assert len(parsed.profiles) == 2
        assert parsed.primary.host == "a"

    def test_bad_prefix(self):
        with pytest.raises(MarshalError):
            Ior.from_string("ior:abcdef")

    def test_bad_hex(self):
        with pytest.raises(MarshalError):
            Ior.from_string("IOR:zzzz")

    def test_no_profiles_primary_raises(self):
        with pytest.raises(MarshalError):
            __ = Ior(type_id="IDL:x:1.0").primary

    @given(host=st.text(min_size=1, max_size=20).filter(str.strip),
           port=st.integers(0, 65535), key=st.binary(min_size=1, max_size=40),
           type_id=st.text(min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, host, port, key, type_id):
        ior = make_ior(type_id, host, port, key)
        assert Ior.from_string(ior.to_string()) == ior


class TestUnsupportedMessageTypes:
    def test_close_connection_and_message_error_rejected(self):
        for type_octet in (MessageType.CANCEL_REQUEST,
                           MessageType.CLOSE_CONNECTION,
                           MessageType.MESSAGE_ERROR):
            frame = bytearray(encode_message(RequestMessage(1, b"k", "op")))
            frame[7] = int(type_octet)
            with pytest.raises(MarshalError):
                decode_message(bytes(frame))


class TestTypedFailures:
    def test_out_of_range_port_is_a_marshal_error(self):
        ior = Ior("IDL:x:1.0", (IiopProfile("h", 70000, b"k"),))
        with pytest.raises(MarshalError):
            ior.to_string()

    def test_deeply_nested_reply_body_is_a_marshal_error(self):
        encoder = CdrEncoder()
        encoder.write_ulong(0)  # no service contexts
        encoder.write_ulong(5)  # request id
        encoder.write_ulong(int(ReplyStatus.NO_EXCEPTION))
        for _ in range(5000):
            encoder.write_octet(9)  # TAG_SEQUENCE
            encoder.write_ulong(1)
        encoder.write_octet(0)  # TAG_NULL
        body = encoder.getvalue()
        frame = (MAGIC + bytes([1, 0, 0, int(MessageType.REPLY)])
                 + len(body).to_bytes(4, "big") + body)
        with pytest.raises(MarshalError):
            decode_message(frame)

    def test_self_referential_request_argument_is_a_marshal_error(self):
        cycle: list = []
        cycle.append(cycle)
        with pytest.raises(MarshalError):
            encode_message(RequestMessage(request_id=1, object_key=b"k",
                                          operation="op", arguments=[cycle]))
