"""Golden-bytes fixtures pinning the CDR and GIOP wire format.

Every literal below was produced by the chunk-list CDR codec that
preceded the single-buffer one, and any codec must reproduce each of
them octet for octet.  They cover every ``any`` tag in both byte
orders, each written after 0-7 leading octets (so every alignment pad
is pinned), and one frame of each GIOP message type the ORB sends.
"""

import datetime
import math

import pytest

from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.giop import (LocateReplyMessage, LocateRequestMessage,
                            LocateStatus, ReplyMessage, ReplyStatus,
                            RequestMessage, decode_message, encode_message)

LEAD = 0xAA

VALUES = {
    "null": None,
    "false": False,
    "true": True,
    "long": -123456,
    "longlong": 2**40 + 3,
    "bigint_pos": 2**70 + 1,
    "bigint_neg": -(2**70) - 5,
    "double": 1.5,
    "double_neg_zero": -0.0,
    "double_inf": math.inf,
    "string": 'h\u00e9llo \u2713',
    "bytes": b'\x00\xffk',
    "date": datetime.date(1999, 3, 1),
    "sequence": [7, 'a', None],
    "struct": {'k': 2.5, 'n': [True]},
}


FRAMES = {
    "request": RequestMessage(
        request_id=41, object_key=b"orb/QUT/codb",
        operation="find_coalitions",
        arguments=["Medical Research", 3, {"depth": 2}],
        service_context=[(0xBEEF, "orbix"), (0xD15C, "0.25")]),
    # A multi-row result set: int, str, double, date and null columns.
    "reply": ReplyMessage(
        request_id=41, status=ReplyStatus.NO_EXCEPTION,
        body={"columns": ["id", "name", "amount", "when", "note"],
              "rows": [[1, "Ann", 12.5, datetime.date(1998, 7, 1), None],
                       [2, "B\u00f6b", -0.0, datetime.date(1999, 1, 31),
                        "x"],
                       [2**40, "", 1e300, datetime.date(1970, 1, 1),
                        b"\x01"]]},
        service_context=[(0xBEEF, "visibroker")]),
    "locate_request": LocateRequestMessage(request_id=42,
                                           object_key=b"orb/RBH/isi"),
    "locate_reply": LocateReplyMessage(request_id=42,
                                       status=LocateStatus.OBJECT_HERE),
}

#: (value name, little_endian) -> hex of the value written after
#: 0..7 leading 0xAA octets.
GOLDEN_ANY = {
    ("null", False): [
        "00",
        "aa00",
        "aaaa00",
        "aaaaaa00",
        "aaaaaaaa00",
        "aaaaaaaaaa00",
        "aaaaaaaaaaaa00",
        "aaaaaaaaaaaaaa00",
    ],
    ("null", True): [
        "00",
        "aa00",
        "aaaa00",
        "aaaaaa00",
        "aaaaaaaa00",
        "aaaaaaaaaa00",
        "aaaaaaaaaaaa00",
        "aaaaaaaaaaaaaa00",
    ],
    ("false", False): [
        "01",
        "aa01",
        "aaaa01",
        "aaaaaa01",
        "aaaaaaaa01",
        "aaaaaaaaaa01",
        "aaaaaaaaaaaa01",
        "aaaaaaaaaaaaaa01",
    ],
    ("false", True): [
        "01",
        "aa01",
        "aaaa01",
        "aaaaaa01",
        "aaaaaaaa01",
        "aaaaaaaaaa01",
        "aaaaaaaaaaaa01",
        "aaaaaaaaaaaaaa01",
    ],
    ("true", False): [
        "02",
        "aa02",
        "aaaa02",
        "aaaaaa02",
        "aaaaaaaa02",
        "aaaaaaaaaa02",
        "aaaaaaaaaaaa02",
        "aaaaaaaaaaaaaa02",
    ],
    ("true", True): [
        "02",
        "aa02",
        "aaaa02",
        "aaaaaa02",
        "aaaaaaaa02",
        "aaaaaaaaaa02",
        "aaaaaaaaaaaa02",
        "aaaaaaaaaaaaaa02",
    ],
    ("long", False): [
        "03000000fffe1dc0",
        "aa030000fffe1dc0",
        "aaaa0300fffe1dc0",
        "aaaaaa03fffe1dc0",
        "aaaaaaaa03000000fffe1dc0",
        "aaaaaaaaaa030000fffe1dc0",
        "aaaaaaaaaaaa0300fffe1dc0",
        "aaaaaaaaaaaaaa03fffe1dc0",
    ],
    ("long", True): [
        "03000000c01dfeff",
        "aa030000c01dfeff",
        "aaaa0300c01dfeff",
        "aaaaaa03c01dfeff",
        "aaaaaaaa03000000c01dfeff",
        "aaaaaaaaaa030000c01dfeff",
        "aaaaaaaaaaaa0300c01dfeff",
        "aaaaaaaaaaaaaa03c01dfeff",
    ],
    ("longlong", False): [
        "04000000000000000000010000000003",
        "aa040000000000000000010000000003",
        "aaaa0400000000000000010000000003",
        "aaaaaa04000000000000010000000003",
        "aaaaaaaa040000000000010000000003",
        "aaaaaaaaaa0400000000010000000003",
        "aaaaaaaaaaaa04000000010000000003",
        "aaaaaaaaaaaaaa040000010000000003",
    ],
    ("longlong", True): [
        "04000000000000000300000000010000",
        "aa040000000000000300000000010000",
        "aaaa0400000000000300000000010000",
        "aaaaaa04000000000300000000010000",
        "aaaaaaaa040000000300000000010000",
        "aaaaaaaaaa0400000300000000010000",
        "aaaaaaaaaaaa04000300000000010000",
        "aaaaaaaaaaaaaa040300000000010000",
    ],
    ("bigint_pos", False): [
        "0b00000000000009400000000000000001",
        "aa0b000000000009400000000000000001",
        "aaaa0b0000000009400000000000000001",
        "aaaaaa0b0000000000000009400000000000000001",
        "aaaaaaaa0b00000000000009400000000000000001",
        "aaaaaaaaaa0b000000000009400000000000000001",
        "aaaaaaaaaaaa0b0000000009400000000000000001",
        "aaaaaaaaaaaaaa0b0000000000000009400000000000000001",
    ],
    ("bigint_pos", True): [
        "0b00000009000000400000000000000001",
        "aa0b000009000000400000000000000001",
        "aaaa0b0009000000400000000000000001",
        "aaaaaa0b0000000009000000400000000000000001",
        "aaaaaaaa0b00000009000000400000000000000001",
        "aaaaaaaaaa0b000009000000400000000000000001",
        "aaaaaaaaaaaa0b0009000000400000000000000001",
        "aaaaaaaaaaaaaa0b0000000009000000400000000000000001",
    ],
    ("bigint_neg", False): [
        "0b01000000000009400000000000000005",
        "aa0b010000000009400000000000000005",
        "aaaa0b0100000009400000000000000005",
        "aaaaaa0b0100000000000009400000000000000005",
        "aaaaaaaa0b01000000000009400000000000000005",
        "aaaaaaaaaa0b010000000009400000000000000005",
        "aaaaaaaaaaaa0b0100000009400000000000000005",
        "aaaaaaaaaaaaaa0b0100000000000009400000000000000005",
    ],
    ("bigint_neg", True): [
        "0b01000009000000400000000000000005",
        "aa0b010009000000400000000000000005",
        "aaaa0b0109000000400000000000000005",
        "aaaaaa0b0100000009000000400000000000000005",
        "aaaaaaaa0b01000009000000400000000000000005",
        "aaaaaaaaaa0b010009000000400000000000000005",
        "aaaaaaaaaaaa0b0109000000400000000000000005",
        "aaaaaaaaaaaaaa0b0100000009000000400000000000000005",
    ],
    ("double", False): [
        "05000000000000003ff8000000000000",
        "aa050000000000003ff8000000000000",
        "aaaa0500000000003ff8000000000000",
        "aaaaaa05000000003ff8000000000000",
        "aaaaaaaa050000003ff8000000000000",
        "aaaaaaaaaa0500003ff8000000000000",
        "aaaaaaaaaaaa05003ff8000000000000",
        "aaaaaaaaaaaaaa053ff8000000000000",
    ],
    ("double", True): [
        "0500000000000000000000000000f83f",
        "aa05000000000000000000000000f83f",
        "aaaa050000000000000000000000f83f",
        "aaaaaa0500000000000000000000f83f",
        "aaaaaaaa05000000000000000000f83f",
        "aaaaaaaaaa050000000000000000f83f",
        "aaaaaaaaaaaa0500000000000000f83f",
        "aaaaaaaaaaaaaa05000000000000f83f",
    ],
    ("double_neg_zero", False): [
        "05000000000000008000000000000000",
        "aa050000000000008000000000000000",
        "aaaa0500000000008000000000000000",
        "aaaaaa05000000008000000000000000",
        "aaaaaaaa050000008000000000000000",
        "aaaaaaaaaa0500008000000000000000",
        "aaaaaaaaaaaa05008000000000000000",
        "aaaaaaaaaaaaaa058000000000000000",
    ],
    ("double_neg_zero", True): [
        "05000000000000000000000000000080",
        "aa050000000000000000000000000080",
        "aaaa0500000000000000000000000080",
        "aaaaaa05000000000000000000000080",
        "aaaaaaaa050000000000000000000080",
        "aaaaaaaaaa0500000000000000000080",
        "aaaaaaaaaaaa05000000000000000080",
        "aaaaaaaaaaaaaa050000000000000080",
    ],
    ("double_inf", False): [
        "05000000000000007ff0000000000000",
        "aa050000000000007ff0000000000000",
        "aaaa0500000000007ff0000000000000",
        "aaaaaa05000000007ff0000000000000",
        "aaaaaaaa050000007ff0000000000000",
        "aaaaaaaaaa0500007ff0000000000000",
        "aaaaaaaaaaaa05007ff0000000000000",
        "aaaaaaaaaaaaaa057ff0000000000000",
    ],
    ("double_inf", True): [
        "0500000000000000000000000000f07f",
        "aa05000000000000000000000000f07f",
        "aaaa050000000000000000000000f07f",
        "aaaaaa0500000000000000000000f07f",
        "aaaaaaaa05000000000000000000f07f",
        "aaaaaaaaaa050000000000000000f07f",
        "aaaaaaaaaaaa0500000000000000f07f",
        "aaaaaaaaaaaaaa05000000000000f07f",
    ],
    ("string", False): [
        "060000000000000b68c3a96c6c6f20e29c9300",
        "aa0600000000000b68c3a96c6c6f20e29c9300",
        "aaaa06000000000b68c3a96c6c6f20e29c9300",
        "aaaaaa060000000b68c3a96c6c6f20e29c9300",
        "aaaaaaaa060000000000000b68c3a96c6c6f20e29c9300",
        "aaaaaaaaaa0600000000000b68c3a96c6c6f20e29c9300",
        "aaaaaaaaaaaa06000000000b68c3a96c6c6f20e29c9300",
        "aaaaaaaaaaaaaa060000000b68c3a96c6c6f20e29c9300",
    ],
    ("string", True): [
        "060000000b00000068c3a96c6c6f20e29c9300",
        "aa0600000b00000068c3a96c6c6f20e29c9300",
        "aaaa06000b00000068c3a96c6c6f20e29c9300",
        "aaaaaa060b00000068c3a96c6c6f20e29c9300",
        "aaaaaaaa060000000b00000068c3a96c6c6f20e29c9300",
        "aaaaaaaaaa0600000b00000068c3a96c6c6f20e29c9300",
        "aaaaaaaaaaaa06000b00000068c3a96c6c6f20e29c9300",
        "aaaaaaaaaaaaaa060b00000068c3a96c6c6f20e29c9300",
    ],
    ("bytes", False): [
        "070000000000000300ff6b",
        "aa0700000000000300ff6b",
        "aaaa07000000000300ff6b",
        "aaaaaa070000000300ff6b",
        "aaaaaaaa070000000000000300ff6b",
        "aaaaaaaaaa0700000000000300ff6b",
        "aaaaaaaaaaaa07000000000300ff6b",
        "aaaaaaaaaaaaaa070000000300ff6b",
    ],
    ("bytes", True): [
        "070000000300000000ff6b",
        "aa0700000300000000ff6b",
        "aaaa07000300000000ff6b",
        "aaaaaa070300000000ff6b",
        "aaaaaaaa070000000300000000ff6b",
        "aaaaaaaaaa0700000300000000ff6b",
        "aaaaaaaaaaaa07000300000000ff6b",
        "aaaaaaaaaaaaaa070300000000ff6b",
    ],
    ("date", False): [
        "080000000000299b",
        "aa0800000000299b",
        "aaaa08000000299b",
        "aaaaaa080000299b",
        "aaaaaaaa080000000000299b",
        "aaaaaaaaaa0800000000299b",
        "aaaaaaaaaaaa08000000299b",
        "aaaaaaaaaaaaaa080000299b",
    ],
    ("date", True): [
        "080000009b290000",
        "aa0800009b290000",
        "aaaa08009b290000",
        "aaaaaa089b290000",
        "aaaaaaaa080000009b290000",
        "aaaaaaaaaa0800009b290000",
        "aaaaaaaaaaaa08009b290000",
        "aaaaaaaaaaaaaa089b290000",
    ],
    ("sequence", False): [
        "090000000000000303000000000000070600000000000002610000",
        "aa0900000000000303000000000000070600000000000002610000",
        "aaaa09000000000303000000000000070600000000000002610000",
        "aaaaaa090000000303000000000000070600000000000002610000",
        ("aaaaaaaa090000000000000303000000000000070600000000000002"
         "610000"),
        ("aaaaaaaaaa0900000000000303000000000000070600000000000002"
         "610000"),
        ("aaaaaaaaaaaa09000000000303000000000000070600000000000002"
         "610000"),
        ("aaaaaaaaaaaaaa090000000303000000000000070600000000000002"
         "610000"),
    ],
    ("sequence", True): [
        "090000000300000003000000070000000600000002000000610000",
        "aa0900000300000003000000070000000600000002000000610000",
        "aaaa09000300000003000000070000000600000002000000610000",
        "aaaaaa090300000003000000070000000600000002000000610000",
        ("aaaaaaaa090000000300000003000000070000000600000002000000"
         "610000"),
        ("aaaaaaaaaa0900000300000003000000070000000600000002000000"
         "610000"),
        ("aaaaaaaaaaaa09000300000003000000070000000600000002000000"
         "610000"),
        ("aaaaaaaaaaaaaa090300000003000000070000000600000002000000"
         "610000"),
    ],
    ("struct", False): [
        ("0a00000000000002000000026b000500400400000000000000000002"
         "6e0009000000000102"),
        ("aa0a000000000002000000026b000500400400000000000000000002"
         "6e0009000000000102"),
        ("aaaa0a0000000002000000026b000500400400000000000000000002"
         "6e0009000000000102"),
        ("aaaaaa0a00000002000000026b000500400400000000000000000002"
         "6e0009000000000102"),
        ("aaaaaaaa0a00000000000002000000026b0005000000000040040000"
         "00000000000000026e0009000000000102"),
        ("aaaaaaaaaa0a000000000002000000026b0005000000000040040000"
         "00000000000000026e0009000000000102"),
        ("aaaaaaaaaaaa0a0000000002000000026b0005000000000040040000"
         "00000000000000026e0009000000000102"),
        ("aaaaaaaaaaaaaa0a00000002000000026b0005000000000040040000"
         "00000000000000026e0009000000000102"),
    ],
    ("struct", True): [
        ("0a00000002000000020000006b000500000000000000044002000000"
         "6e0009000100000002"),
        ("aa0a000002000000020000006b000500000000000000044002000000"
         "6e0009000100000002"),
        ("aaaa0a0002000000020000006b000500000000000000044002000000"
         "6e0009000100000002"),
        ("aaaaaa0a02000000020000006b000500000000000000044002000000"
         "6e0009000100000002"),
        ("aaaaaaaa0a00000002000000020000006b0005000000000000000000"
         "00000440020000006e0009000100000002"),
        ("aaaaaaaaaa0a000002000000020000006b0005000000000000000000"
         "00000440020000006e0009000100000002"),
        ("aaaaaaaaaaaa0a0002000000020000006b0005000000000000000000"
         "00000440020000006e0009000100000002"),
        ("aaaaaaaaaaaaaa0a02000000020000006b0005000000000000000000"
         "00000440020000006e0009000100000002"),
    ],
}

GOLDEN_FRAMES = {
    ("request", False):
        ("47494f50010000000000008c000000020000beef000000066f726269"
         "780000000000d15c00000005302e3235000000000000002901000000"
         "0000000c6f72622f5155542f636f64620000001066696e645f636f61"
         "6c6974696f6e73000000000306000000000000114d65646963616c20"
         "526573656172636800030000000000030a0000000000000100000006"
         "646570746800030000000002"),
    ("request", True):
        ("47494f50010001008c00000002000000efbe0000060000006f726269"
         "780000005cd1000005000000302e3235000000002900000001000000"
         "0c0000006f72622f5155542f636f64621000000066696e645f636f61"
         "6c6974696f6e73000300000006000000110000004d65646963616c20"
         "526573656172636800030000030000000a0000000100000006000000"
         "646570746800030002000000"),
    ("reply", False):
        ("47494f500100000100000131000000010000beef0000000b76697369"
         "62726f6b6572000000000029000000000a0000000000000200000008"
         "636f6c756d6e73000900000000000005060000000000000369640006"
         "000000056e616d650006000000000007616d6f756e74000600000005"
         "7768656e00060000000000056e6f74650000000000000005726f7773"
         "00090000000000030900000000000005030000000000000106000000"
         "00000004416e6e0005000000402900000000000008000000000028a8"
         "00090000000000050300000000000002060000000000000542c3b662"
         "000500008000000000000000080000000000297e0600000000000002"
         "78000900000000050400000000000000000001000000000006000000"
         "0000000100050000000000007e37e43c8800759c0800000000000000"
         "070000000000000101"),
    ("reply", True):
        ("47494f50010001013101000001000000efbe00000b00000076697369"
         "62726f6b6572000029000000000000000a0000000200000008000000"
         "636f6c756d6e73000900000005000000060000000300000069640006"
         "050000006e616d650006000007000000616d6f756e74000605000000"
         "7768656e00060000050000006e6f74650000000005000000726f7773"
         "00090000030000000900000005000000030000000100000006000000"
         "04000000416e6e0005000000000000000000294008000000a8280000"
         "00090000050000000300000002000000060000000500000042c3b662"
         "000500000000000000000080080000007e2900000600000002000000"
         "78000900050000000400000000000000000000000001000006000000"
         "0100000000050000000000009c7500883ce4377e0800000000000000"
         "070000000100000001"),
    ("locate_request", False):
        ("47494f5001000003000000130000002a0000000b6f72622f5242482f"
         "697369"),
    ("locate_request", True):
        ("47494f5001000103130000002a0000000b0000006f72622f5242482f"
         "697369"),
    ("locate_reply", False):
        "47494f5001000004000000080000002a00000001",
    ("locate_reply", True):
        "47494f5001000104080000002a00000001000000",
}


ANY_CASES = [(name, little, lead) for name in VALUES
             for little in (False, True) for lead in range(8)]


def _same(decoded, expected):
    """Equality that also tells -0.0 from 0.0."""
    if isinstance(expected, float):
        return (isinstance(decoded, float) and decoded == expected
                and math.copysign(1.0, decoded)
                == math.copysign(1.0, expected))
    return decoded == expected


@pytest.mark.parametrize("name,little,lead", ANY_CASES)
def test_any_encodes_to_golden_bytes(name, little, lead):
    encoder = CdrEncoder(little)
    for _ in range(lead):
        encoder.write_octet(LEAD)
    encoder.write_any(VALUES[name])
    assert encoder.getvalue().hex() == GOLDEN_ANY[name, little][lead]
    assert len(encoder) == len(encoder.getvalue())


@pytest.mark.parametrize("name,little,lead", ANY_CASES)
def test_golden_bytes_decode_to_value(name, little, lead):
    decoder = CdrDecoder(bytes.fromhex(GOLDEN_ANY[name, little][lead]),
                         little)
    for _ in range(lead):
        assert decoder.read_octet() == LEAD
    assert _same(decoder.read_any(), VALUES[name])
    assert decoder.remaining() == 0


@pytest.mark.parametrize("name,little", list(GOLDEN_FRAMES))
def test_frame_encodes_to_golden_bytes(name, little):
    assert encode_message(FRAMES[name], little).hex() == \
        GOLDEN_FRAMES[name, little]


@pytest.mark.parametrize("name,little", list(GOLDEN_FRAMES))
def test_golden_frame_decodes_to_message(name, little):
    frame = bytes.fromhex(GOLDEN_FRAMES[name, little])
    assert decode_message(frame) == FRAMES[name]
    assert decode_message(memoryview(frame)) == FRAMES[name]
