"""Common Data Representation (CDR) marshalling.

CORBA's GIOP transfers all values in CDR: primitives are aligned to
their natural size and encoded big- or little-endian as announced by
the message flags.  This module implements a faithful subset:

* aligned primitives — octet, boolean, short, long, long long, double;
* strings — unsigned long length (including NUL), UTF-8 bytes, NUL;
* sequences — unsigned long count then elements;
* and a tagged ``any`` encoding that lets the RPC layer ship Python
  values (None, bool, int, float, str, bytes, date, list, tuple, dict)
  without a compiled IDL type for each.

Encoders and decoders track absolute stream position so alignment
padding matches on both sides.  An encoder appends to one
``bytearray``; a decoder reads with ``unpack_from`` at an integer
offset into a ``memoryview``.  The ``struct.Struct`` objects and the
recursive ``any`` writer and reader are built once per byte order at
import time (:class:`_ByteOrder`): a value costs a few exact type or
tag tests and one bound ``pack``/``unpack_from`` call.
"""

from __future__ import annotations

import datetime
import struct
from typing import Any, Callable

from repro.errors import MarshalError

# Type tags for the `any` encoding (one octet each).
TAG_NULL = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_LONG = 3          # 32-bit signed
TAG_LONGLONG = 4      # 64-bit signed
TAG_DOUBLE = 5
TAG_STRING = 6
TAG_BYTES = 7
TAG_DATE = 8          # days since epoch, as long
TAG_SEQUENCE = 9
TAG_STRUCT = 10       # string-keyed map
TAG_BIGINT = 11       # arbitrary precision: sign octet + byte count + bytes

_INT32_MIN, _INT32_MAX = -2**31, 2**31 - 1
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_EPOCH = datetime.date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()

#: Zero-octet runs for alignment: ``_PAD[-length & (n - 1)]`` is the
#: padding that brings *length* to the next multiple of *n* (n <= 8).
_PAD = tuple(bytes(count) for count in range(8))

_Writer = Callable[[bytearray, Any], None]
_Reader = Callable[[memoryview, int, int], tuple[Any, int]]


def _underflow(count: int, pos: int, have: int) -> MarshalError:
    return MarshalError(
        f"CDR underflow: need {count} bytes at {pos}, have {have}")


def _any_writer(order: _ByteOrder) -> tuple[_Writer, _Writer]:
    """The recursive ``any`` writer for one byte order, and the string
    writer it shares with :meth:`CdrEncoder.write_string`."""
    pack_long = order.long.pack
    pack_ulong = order.ulong.pack
    pack_longlong = order.longlong.pack
    pack_double = order.double.pack
    pad = _PAD
    date, datetime_ = datetime.date, datetime.datetime

    def write_int(buf: bytearray, value: int) -> None:
        if _INT32_MIN <= value <= _INT32_MAX:
            buf.append(TAG_LONG)
            buf += pad[-len(buf) & 3]
            buf += pack_long(value)
        elif _INT64_MIN <= value <= _INT64_MAX:
            buf.append(TAG_LONGLONG)
            buf += pad[-len(buf) & 7]
            buf += pack_longlong(value)
        else:
            magnitude = abs(value)
            raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1,
                                     "big")
            buf.append(TAG_BIGINT)
            buf.append(0 if value >= 0 else 1)
            buf += pad[-len(buf) & 3]
            buf += pack_ulong(len(raw))
            buf += raw

    def write_string(buf: bytearray, value: str) -> None:
        encoded = value.encode("utf-8")
        buf += pad[-len(buf) & 3]
        buf += pack_ulong(len(encoded) + 1)  # CDR counts the trailing NUL
        buf += encoded
        buf.append(0)

    def write_struct(buf: bytearray, value: dict) -> None:
        buf.append(TAG_STRUCT)
        buf += pad[-len(buf) & 3]
        buf += pack_ulong(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError(
                    f"struct keys must be strings, got {key!r}")
            write_string(buf, key)
            write(buf, item)

    def write_other(buf: bytearray, value: Any) -> None:
        # Subclasses of the supported types (IntEnum, str subclasses,
        # namedtuple, OrderedDict, ...) marshal as their base type.
        if isinstance(value, int):
            write_int(buf, value)
        elif isinstance(value, float):
            buf.append(TAG_DOUBLE)
            buf += pad[-len(buf) & 7]
            buf += pack_double(value)
        elif isinstance(value, str):
            buf.append(TAG_STRING)
            write_string(buf, value)
        elif isinstance(value, bytes):
            buf.append(TAG_BYTES)
            buf += pad[-len(buf) & 3]
            buf += pack_ulong(len(value))
            buf += value
        elif isinstance(value, date) and not isinstance(value, datetime_):
            buf.append(TAG_DATE)
            buf += pad[-len(buf) & 3]
            buf += pack_long((value - _EPOCH).days)
        elif isinstance(value, (list, tuple)):
            buf.append(TAG_SEQUENCE)
            buf += pad[-len(buf) & 3]
            buf += pack_ulong(len(value))
            for item in value:
                write(buf, item)
        elif isinstance(value, dict):
            write_struct(buf, value)
        else:
            raise MarshalError(
                f"cannot marshal {type(value).__name__} value {value!r}")

    # Branches run in the order of how often each type occurs in the
    # values a native fetch ships: ints, doubles, rows, strings, dates.
    def write(buf: bytearray, value: Any) -> None:
        kind = type(value)
        if kind is int:
            if _INT32_MIN <= value <= _INT32_MAX:
                buf.append(TAG_LONG)
                buf += pad[-len(buf) & 3]
                buf += pack_long(value)
            else:
                write_int(buf, value)
        elif kind is float:
            buf.append(TAG_DOUBLE)
            buf += pad[-len(buf) & 7]
            buf += pack_double(value)
        elif kind is list or kind is tuple:
            buf.append(TAG_SEQUENCE)
            buf += pad[-len(buf) & 3]
            buf += pack_ulong(len(value))
            for item in value:
                write(buf, item)
        elif kind is str:
            buf.append(TAG_STRING)
            encoded = value.encode("utf-8")
            buf += pad[-len(buf) & 3]
            buf += pack_ulong(len(encoded) + 1)
            buf += encoded
            buf.append(0)
        elif kind is date:
            buf.append(TAG_DATE)
            buf += pad[-len(buf) & 3]
            buf += pack_long(value.toordinal() - _EPOCH_ORDINAL)
        elif value is None:
            buf.append(TAG_NULL)
        elif kind is dict:
            write_struct(buf, value)
        elif kind is bool:
            buf.append(TAG_TRUE if value else TAG_FALSE)
        elif kind is bytes:
            buf.append(TAG_BYTES)
            buf += pad[-len(buf) & 3]
            buf += pack_ulong(len(value))
            buf += value
        else:
            write_other(buf, value)

    return write, write_string


def _any_reader(order: _ByteOrder) -> tuple[_Reader, _Reader, _Reader]:
    """The recursive ``any`` reader for one byte order, and the string
    and octet-sequence readers it shares with :class:`CdrDecoder`.

    Each reader takes ``(data, pos, end)``, where *end* is
    ``len(data)``, and returns the value at *pos* with the position
    just past it.
    """
    unpack_long = order.long.unpack_from
    unpack_ulong = order.ulong.unpack_from
    unpack_longlong = order.longlong.unpack_from
    unpack_double = order.double.unpack_from
    fromordinal = datetime.date.fromordinal

    def read_ulong(data: memoryview, pos: int, end: int) -> tuple[int, int]:
        pos = (pos + 3) & -4
        if pos + 4 > end:
            raise _underflow(4, pos, end)
        return unpack_ulong(data, pos)[0], pos + 4

    def read_octets(data: memoryview, pos: int,
                    end: int) -> tuple[memoryview, int]:
        count, pos = read_ulong(data, pos, end)
        stop = pos + count
        if stop > end:
            raise _underflow(count, pos, end)
        return data[pos:stop], stop

    def read_string(data: memoryview, pos: int, end: int) -> tuple[str, int]:
        pos = (pos + 3) & -4
        if pos + 4 > end:
            raise _underflow(4, pos, end)
        length = unpack_ulong(data, pos)[0]
        pos += 4
        if length == 0:
            raise MarshalError("CDR string with zero length (missing NUL)")
        stop = pos + length
        if stop > end:
            raise _underflow(length, pos, end)
        if data[stop - 1] != 0:
            raise MarshalError("CDR string not NUL-terminated")
        try:
            # str(buffer, encoding) decodes a memoryview slice without
            # an intermediate bytes copy.
            return str(data[pos:stop - 1], "utf-8"), stop
        except UnicodeDecodeError as exc:
            raise MarshalError(f"CDR string is not valid UTF-8: {exc}") \
                from exc

    # Tags are tested in the same order of frequency as ``write`` uses.
    def read(data: memoryview, pos: int, end: int) -> tuple[Any, int]:
        if pos >= end:
            raise _underflow(1, pos, end)
        tag = data[pos]
        pos += 1
        if tag == TAG_LONG:
            pos = (pos + 3) & -4
            if pos + 4 > end:
                raise _underflow(4, pos, end)
            return unpack_long(data, pos)[0], pos + 4
        if tag == TAG_DOUBLE:
            pos = (pos + 7) & -8
            if pos + 8 > end:
                raise _underflow(8, pos, end)
            return unpack_double(data, pos)[0], pos + 8
        if tag == TAG_SEQUENCE:
            count, pos = read_ulong(data, pos, end)
            items = []
            append = items.append
            for _ in range(count):
                item, pos = read(data, pos, end)
                append(item)
            return items, pos
        if tag == TAG_STRING:
            return read_string(data, pos, end)
        if tag == TAG_DATE:
            pos = (pos + 3) & -4
            if pos + 4 > end:
                raise _underflow(4, pos, end)
            days = unpack_long(data, pos)[0]
            try:
                return fromordinal(_EPOCH_ORDINAL + days), pos + 4
            except (OverflowError, ValueError) as exc:
                raise MarshalError("CDR date out of range") from exc
        if tag == TAG_NULL:
            return None, pos
        if tag == TAG_STRUCT:
            count, pos = read_ulong(data, pos, end)
            result: dict[str, Any] = {}
            for _ in range(count):
                key, pos = read_string(data, pos, end)
                result[key], pos = read(data, pos, end)
            return result, pos
        if tag == TAG_TRUE:
            return True, pos
        if tag == TAG_FALSE:
            return False, pos
        if tag == TAG_LONGLONG:
            pos = (pos + 7) & -8
            if pos + 8 > end:
                raise _underflow(8, pos, end)
            return unpack_longlong(data, pos)[0], pos + 8
        if tag == TAG_BYTES:
            raw, pos = read_octets(data, pos, end)
            return bytes(raw), pos
        if tag == TAG_BIGINT:
            if pos >= end:
                raise _underflow(1, pos, end)
            negative = data[pos] == 1
            raw, pos = read_octets(data, pos + 1, end)
            magnitude = int.from_bytes(raw, "big")
            return (-magnitude if negative else magnitude), pos
        raise MarshalError(f"unknown CDR any tag {tag}")

    return read, read_string, read_octets


class _ByteOrder:
    """Precompiled packers and ``any`` codec for one byte order."""

    __slots__ = ("short", "ushort", "long", "ulong", "longlong", "double",
                 "write_any", "write_string", "read_any", "read_string",
                 "read_octets")

    def __init__(self, order: str):
        self.short = struct.Struct(order + "h")
        self.ushort = struct.Struct(order + "H")
        self.long = struct.Struct(order + "i")
        self.ulong = struct.Struct(order + "I")
        self.longlong = struct.Struct(order + "q")
        self.double = struct.Struct(order + "d")
        self.write_any, self.write_string = _any_writer(self)
        self.read_any, self.read_string, self.read_octets = _any_reader(self)


_BIG_ENDIAN = _ByteOrder(">")
_LITTLE_ENDIAN = _ByteOrder("<")


class CdrEncoder:
    """Appends CDR-encoded values to a growing buffer."""

    def __init__(self, little_endian: bool = False):
        self.little_endian = little_endian
        self._order = _LITTLE_ENDIAN if little_endian else _BIG_ENDIAN
        self._buf = bytearray()
        self._value = b""

    # -- low level ------------------------------------------------------------

    def _write(self, packer: struct.Struct, value: Any) -> None:
        try:
            packed = packer.pack(value)
        except struct.error as exc:
            raise MarshalError(
                f"cannot marshal {value!r} as CDR {packer.format!r}: {exc}") \
                from exc
        buf = self._buf
        buf += _PAD[-len(buf) & (packer.size - 1)]
        buf += packed

    def align(self, boundary: int) -> None:
        """Pad with zero octets to the next *boundary* multiple."""
        remainder = len(self._buf) % boundary
        if remainder:
            self._buf += bytes(boundary - remainder)

    def write_octet(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_boolean(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def write_short(self, value: int) -> None:
        self._write(self._order.short, value)

    def write_ushort(self, value: int) -> None:
        self._write(self._order.ushort, value)

    def write_long(self, value: int) -> None:
        self._write(self._order.long, value)

    def write_ulong(self, value: int) -> None:
        self._write(self._order.ulong, value)

    def write_longlong(self, value: int) -> None:
        self._write(self._order.longlong, value)

    def write_double(self, value: float) -> None:
        self._write(self._order.double, value)

    def write_string(self, value: str) -> None:
        try:
            self._order.write_string(self._buf, value)
        except UnicodeEncodeError as exc:
            raise MarshalError(f"cannot marshal string {value!r}: {exc}") \
                from exc

    def write_octets(self, value: bytes) -> None:
        self._write(self._order.ulong, len(value))
        self._buf += value

    # -- any ---------------------------------------------------------------------

    def write_any(self, value: Any) -> None:
        """Encode an arbitrary supported Python value with a type tag."""
        try:
            self._order.write_any(self._buf, value)
        except RecursionError as exc:
            raise MarshalError(
                f"cannot marshal {type(value).__name__} value: nested too "
                f"deeply or self-referential") from exc
        except UnicodeEncodeError as exc:
            raise MarshalError(f"cannot marshal a string: {exc}") from exc

    def getvalue(self) -> bytes:
        # The buffer only ever grows, so an unchanged length means the
        # cached copy is still current.
        if len(self._value) != len(self._buf):
            self._value = bytes(self._buf)
        return self._value

    def __len__(self) -> int:
        return len(self._buf)


class CdrDecoder:
    """Reads CDR-encoded values from a byte buffer.

    Accepts ``bytes`` or a ``memoryview`` without copying: the
    event-loop transport slices request frames straight out of its
    receive buffer, and every read here works on that view in place
    (``unpack_from``/``int.from_bytes`` consume buffers directly).
    Values that escape the decoder — octet sequences, strings — are
    materialised at the last moment, so decoding a view allocates only
    for the values actually produced.
    """

    def __init__(self, data: bytes | bytearray | memoryview,
                 little_endian: bool = False, offset: int = 0):
        self._data = data if isinstance(data, memoryview) \
            else memoryview(data)
        self._pos = offset
        self.little_endian = little_endian
        self._order = _LITTLE_ENDIAN if little_endian else _BIG_ENDIAN

    # -- low level -----------------------------------------------------------

    def _read(self, unpacker: struct.Struct) -> Any:
        size = unpacker.size
        pos = (self._pos + size - 1) & -size
        if pos + size > len(self._data):
            raise _underflow(size, pos, len(self._data))
        self._pos = pos + size
        return unpacker.unpack_from(self._data, pos)[0]

    def align(self, boundary: int) -> None:
        remainder = self._pos % boundary
        if remainder:
            self._pos += boundary - remainder

    def read_octet(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            raise _underflow(1, pos, len(self._data))
        self._pos = pos + 1
        return self._data[pos]

    def read_boolean(self) -> bool:
        return self.read_octet() != 0

    def read_short(self) -> int:
        return self._read(self._order.short)

    def read_ushort(self) -> int:
        return self._read(self._order.ushort)

    def read_long(self) -> int:
        return self._read(self._order.long)

    def read_ulong(self) -> int:
        return self._read(self._order.ulong)

    def read_longlong(self) -> int:
        return self._read(self._order.longlong)

    def read_double(self) -> float:
        return self._read(self._order.double)

    def read_string(self) -> str:
        value, self._pos = self._order.read_string(self._data, self._pos,
                                                   len(self._data))
        return value

    def read_octets(self) -> bytes:
        raw, self._pos = self._order.read_octets(self._data, self._pos,
                                                 len(self._data))
        return bytes(raw)

    # -- any -------------------------------------------------------------------

    def read_any(self) -> Any:
        data = self._data
        try:
            value, self._pos = self._order.read_any(data, self._pos,
                                                    len(data))
        except RecursionError as exc:
            raise MarshalError("CDR value nested too deeply") from exc
        return value

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos


def encode_any(value: Any, little_endian: bool = False) -> bytes:
    """Encode one value to standalone CDR bytes."""
    encoder = CdrEncoder(little_endian)
    encoder.write_any(value)
    return encoder.getvalue()


def decode_any(data: bytes, little_endian: bool = False) -> Any:
    """Decode one value from standalone CDR bytes."""
    return CdrDecoder(data, little_endian).read_any()
