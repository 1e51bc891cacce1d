"""Canonical byte encoding for everything that gets hashed or signed.

Digests over ballots, tallies, and transcripts must be bit-identical across
platforms and runs, so all of them are computed over this one encoding:
fixed field order decided by the caller, big-endian fixed-width integers,
and u32 length prefixes on variable-size fields. There is no
self-describing framing — reader and writer must agree on the layout,
which is exactly the property a commitment needs.
"""
from __future__ import annotations

import functools
import struct
from typing import Iterable, Mapping

from .errors import DecodeError

# the layouts of a u32 prefix and of one int64
U32 = struct.Struct(">I")
I64 = struct.Struct(">q")

# Hard cap on any length prefix we are willing to follow; stops a corrupt
# or hostile length field from triggering a giant allocation.
MAX_FIELD_LEN = 1 << 24


def encode_uint32(value: int) -> bytes:
    if not 0 <= value < 1 << 32:
        raise DecodeError(f"uint32 out of range: {value}")
    return U32.pack(value)


def encode_int64(value: int) -> bytes:
    if not -(1 << 63) <= value < 1 << 63:
        raise DecodeError(f"int64 out of range: {value}")
    return I64.pack(value)


def encode_bytes(data: bytes) -> bytes:
    if len(data) > MAX_FIELD_LEN:
        raise DecodeError(f"field too long: {len(data)} bytes")
    return U32.pack(len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode("utf-8"))


def encode_int_list(values: Iterable[int]) -> bytes:
    items = list(values)
    return U32.pack(len(items)) + b"".join(encode_int64(v) for v in items)


def encode_int_map(mapping: Mapping[int, int]) -> bytes:
    """Key-sorted (int -> int) map; the canonical form of a tally."""
    items = sorted(mapping.items())
    out = [U32.pack(len(items))]
    for key, value in items:
        out.append(encode_int64(key))
        out.append(encode_int64(value))
    return b"".join(out)


class Reader:
    """Cursor over a canonical byte string; raises DecodeError on any slip.
    Numbers are unpacked in place at the cursor (`unpack_from`), with no
    slice copied to unpack them."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _unpack(self, layout: struct.Struct) -> tuple:
        """`layout` unpacked at the cursor, which then moves past it."""
        try:
            values = layout.unpack_from(self._data, self._pos)
        except struct.error:
            raise DecodeError("truncated input") from None
        self._pos += layout.size
        return values

    def _count(self, what: str) -> int:
        """A u32 prefix, refused above MAX_FIELD_LEN."""
        count = self._unpack(U32)[0]
        if count > MAX_FIELD_LEN:
            raise DecodeError(f"{what} prefix too large: {count}")
        return count

    @property
    def offset(self) -> int:
        """How many bytes have been read."""
        return self._pos

    def read_uint32(self) -> int:
        return self._unpack(U32)[0]

    def read_int64(self) -> int:
        return self._unpack(I64)[0]

    def read_bytes(self) -> bytes:
        length = self._count("length")
        start = self._pos
        end = start + length
        if end > len(self._data):
            raise DecodeError("truncated input")
        self._pos = end
        return self._data[start:end]

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8") from exc

    def read_int_list(self) -> list[int]:
        """A counted int64 list, unpacked in one call."""
        count = self._count("count")
        return list(self._unpack(int64_layout(count)))

    def read_int_map(self) -> dict[int, int]:
        flat = self._unpack(int64_layout(2 * self._count("count")))
        keys = flat[0::2]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise DecodeError("map keys not strictly increasing")
        return dict(zip(keys, flat[1::2]))

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes after structure")


@functools.lru_cache(maxsize=64)
def int64_layout(count: int) -> struct.Struct:
    """The layout of `count` big-endian int64s."""
    return struct.Struct(f">{count}q")
