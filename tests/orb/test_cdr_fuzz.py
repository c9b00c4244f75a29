"""Robustness fuzzing: corrupted CDR/GIOP bytes must raise MarshalError,
never crash or hang."""

import collections
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.orb.cdr import decode_any, encode_any
from repro.orb.giop import (ReplyMessage, ReplyStatus, RequestMessage,
                            decode_message, encode_message)

SAMPLE = {"rows": [[1, "x", None], [2.5, True, b"\x00"]],
          "label": "payload"}


@given(cut=st.integers(min_value=0, max_value=len(encode_any(SAMPLE)) - 1))
@settings(max_examples=80, deadline=None)
def test_truncated_cdr_raises_or_decodes_prefix(cut):
    """Truncation either raises MarshalError or (when the cut lands on a
    value boundary) yields a well-formed prefix — never an exception of
    another type."""
    data = encode_any(SAMPLE)[:cut]
    try:
        decode_any(data)
    except MarshalError:
        pass


@given(position=st.integers(min_value=0, max_value=200),
       replacement=st.integers(min_value=0, max_value=255))
@settings(max_examples=120, deadline=None)
def test_bitflipped_cdr_never_crashes(position, replacement):
    data = bytearray(encode_any(SAMPLE))
    position %= len(data)
    data[position] = replacement
    try:
        decode_any(bytes(data))
    except MarshalError:
        pass
    except UnicodeDecodeError:
        pytest.fail("string decoding leaked a UnicodeDecodeError")


@given(junk=st.binary(min_size=0, max_size=64))
@settings(max_examples=100, deadline=None)
def test_random_bytes_as_giop(junk):
    try:
        decode_message(junk)
    except MarshalError:
        pass


@given(position=st.integers(min_value=0, max_value=500),
       replacement=st.integers(min_value=0, max_value=255))
@settings(max_examples=120, deadline=None)
def test_bitflipped_giop_never_crashes(position, replacement):
    frame = bytearray(encode_message(RequestMessage(
        request_id=9, object_key=b"orb/X/obj", operation="op",
        arguments=[SAMPLE])))
    position %= len(frame)
    frame[position] = replacement
    try:
        decode_message(bytes(frame))
    except MarshalError:
        pass
    except UnicodeDecodeError:
        pytest.fail("GIOP decode leaked a UnicodeDecodeError")


# --------------------------------- generated values, both byte orders --

values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2**130, max_value=2**130),
        st.floats(),
        st.text(max_size=20),
        st.binary(max_size=20),
        st.dates(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20)


@given(value=values, little=st.booleans(), cut=st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_truncated_generated_value_raises_marshal_error(value, little, cut):
    """Any strict prefix of an encoded value is rejected with
    MarshalError (a value's encoding never ends early)."""
    data = encode_any(value, little)
    with pytest.raises(MarshalError):
        decode_any(data[:cut % len(data)], little)


@given(value=values, little=st.booleans(),
       flips=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=0, max_value=255)),
                      min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_corrupted_generated_value_never_crashes(value, little, flips):
    data = bytearray(encode_any(value, little))
    for position, replacement in flips:
        data[position % len(data)] = replacement
    try:
        decode_any(bytes(data), little)
    except MarshalError:
        pass


@given(value=values, little=st.booleans(), position=st.integers(min_value=0),
       replacement=st.integers(min_value=0, max_value=255))
@settings(max_examples=150, deadline=None)
def test_corrupted_generated_frame_never_crashes(value, little, position,
                                                 replacement):
    frame = bytearray(encode_message(
        ReplyMessage(request_id=3, status=ReplyStatus.NO_EXCEPTION,
                     body=value, service_context=[(0xBEEF, "orbix")]),
        little))
    frame[position % len(frame)] = replacement
    try:
        decode_message(bytes(frame))
    except MarshalError:
        pass


# ------------------------------------------ subclasses of wire types --

class Status(enum.IntEnum):
    OPEN = 3
    HUGE = 2**40


class Name(str):
    pass


Row = collections.namedtuple("Row", "id name amount")


@pytest.mark.parametrize("little", [False, True])
@pytest.mark.parametrize("value,base", [
    (Status.OPEN, 3),
    (Status.HUGE, 2**40),
    (Name("Medicare"), "Medicare"),
    (Row(1, "Ann", 2.5), [1, "Ann", 2.5]),
    ({Name("k"): [Row(Status.OPEN, Name("x"), 0.5)]},
     {"k": [[3, "x", 0.5]]}),
    (collections.OrderedDict(a=1, b=[2]), {"a": 1, "b": [2]}),
])
def test_subclass_encodes_like_its_base_type(value, base, little):
    assert encode_any(value, little) == encode_any(base, little)
