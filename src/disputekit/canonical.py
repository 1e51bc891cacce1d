"""Canonical byte encoding for everything that gets hashed or signed.

Digests over ballots, tallies, and transcripts must be bit-identical across
platforms and runs, so all of them are computed over this one encoding:
fixed field order decided by the caller, big-endian fixed-width integers,
and u32 length prefixes on variable-size fields. There is no
self-describing framing — reader and writer must agree on the layout,
which is exactly the property a commitment needs.
"""
from __future__ import annotations

import struct
from typing import Iterable, Mapping

from .errors import DecodeError

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")

# Hard cap on any length prefix we are willing to follow; stops a corrupt
# or hostile length field from triggering a giant allocation.
MAX_FIELD_LEN = 1 << 24


def encode_uint32(value: int) -> bytes:
    if not 0 <= value < 1 << 32:
        raise DecodeError(f"uint32 out of range: {value}")
    return _U32.pack(value)


def encode_int64(value: int) -> bytes:
    if not -(1 << 63) <= value < 1 << 63:
        raise DecodeError(f"int64 out of range: {value}")
    return _I64.pack(value)


def encode_bytes(data: bytes) -> bytes:
    if len(data) > MAX_FIELD_LEN:
        raise DecodeError(f"field too long: {len(data)} bytes")
    return _U32.pack(len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode("utf-8"))


def encode_int_list(values: Iterable[int]) -> bytes:
    items = list(values)
    return _U32.pack(len(items)) + b"".join(encode_int64(v) for v in items)


def encode_int_map(mapping: Mapping[int, int]) -> bytes:
    """Key-sorted (int -> int) map; the canonical form of a tally."""
    items = sorted(mapping.items())
    out = [_U32.pack(len(items))]
    for key, value in items:
        out.append(encode_int64(key))
        out.append(encode_int64(value))
    return b"".join(out)


class Reader:
    """Cursor over a canonical byte string; raises DecodeError on any slip."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise DecodeError("truncated input")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    @property
    def offset(self) -> int:
        """How many bytes have been read."""
        return self._pos

    def read_uint32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def read_int64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def read_bytes(self) -> bytes:
        length = self.read_uint32()
        if length > MAX_FIELD_LEN:
            raise DecodeError(f"length prefix too large: {length}")
        return self._take(length)

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8") from exc

    def read_int_list(self) -> list[int]:
        count = self.read_uint32()
        if count > MAX_FIELD_LEN:
            raise DecodeError(f"count prefix too large: {count}")
        return [self.read_int64() for _ in range(count)]

    def read_int_map(self) -> dict[int, int]:
        count = self.read_uint32()
        if count > MAX_FIELD_LEN:
            raise DecodeError(f"count prefix too large: {count}")
        out: dict[int, int] = {}
        last_key: int | None = None
        for _ in range(count):
            key = self.read_int64()
            if last_key is not None and key <= last_key:
                raise DecodeError("map keys not strictly increasing")
            last_key = key
            out[key] = self.read_int64()
        return out

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes after structure")
