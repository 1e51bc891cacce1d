"""Byte-level encoding: round trips, rejection of malformed input, and
the determinism that commitments lean on."""
from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import naive_command

from disputekit.canonical import (
    MAX_FIELD_LEN,
    Reader,
    encode_bytes,
    encode_int64,
    encode_int_list,
    encode_int_map,
    encode_str,
    encode_uint32,
)
from disputekit.errors import DecodeError, InvalidKey
from disputekit.maci import Command, decode_signed_command, sign_command
from disputekit.primitives import KeyPair

int64s = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def test_known_encodings() -> None:
    assert encode_uint32(1) == b"\x00\x00\x00\x01"
    assert encode_int64(-1) == b"\xff" * 8
    assert encode_bytes(b"ab") == b"\x00\x00\x00\x02ab"
    assert encode_str("") == b"\x00\x00\x00\x00"
    assert encode_int_list([5]) == b"\x00\x00\x00\x01" + (5).to_bytes(8, "big")


def test_out_of_range_integers_refused() -> None:
    with pytest.raises(DecodeError):
        encode_uint32(-1)
    with pytest.raises(DecodeError):
        encode_uint32(1 << 32)
    with pytest.raises(DecodeError):
        encode_int64(1 << 63)


def test_map_encoding_is_key_sorted() -> None:
    assert encode_int_map({2: 5, 0: 7}) == encode_int_map({0: 7, 2: 5})
    reader = Reader(encode_int_map({2: 5, 0: 7}))
    assert reader.read_int_map() == {0: 7, 2: 5}
    reader.expect_end()


def test_reader_rejects_truncation_and_trailing_bytes() -> None:
    encoded = encode_bytes(b"hello")
    with pytest.raises(DecodeError):
        Reader(encoded[:-1]).read_bytes()
    reader = Reader(encoded + b"\x00")
    reader.read_bytes()
    with pytest.raises(DecodeError):
        reader.expect_end()


def test_reader_rejects_hostile_length_prefix() -> None:
    huge = encode_uint32(MAX_FIELD_LEN + 1) + b"x"
    with pytest.raises(DecodeError):
        Reader(huge).read_bytes()


def test_reader_rejects_unsorted_map_keys() -> None:
    # two entries with keys (1, 0): valid frame, illegal ordering
    payload = (
        encode_uint32(2)
        + encode_int64(1)
        + encode_int64(9)
        + encode_int64(0)
        + encode_int64(9)
    )
    with pytest.raises(DecodeError):
        Reader(payload).read_int_map()


def test_reader_rejects_bad_utf8() -> None:
    with pytest.raises(DecodeError):
        Reader(encode_bytes(b"\xff\xfe")).read_str()


@given(st.binary(max_size=64), int64s, st.lists(int64s, max_size=8))
def test_mixed_structure_round_trip(blob: bytes, number: int, values: list[int]) -> None:
    encoded = encode_bytes(blob) + encode_int64(number) + encode_int_list(values)
    reader = Reader(encoded)
    assert reader.read_bytes() == blob
    assert reader.read_int64() == number
    assert reader.read_int_list() == values
    reader.expect_end()


@given(st.dictionaries(int64s, int64s, max_size=8))
def test_map_round_trip(mapping: dict[int, int]) -> None:
    reader = Reader(encode_int_map(mapping))
    assert reader.read_int_map() == mapping
    reader.expect_end()


# ---- the command rule against an independent parser -------------------------


def _fields(key, options, amounts, memo, index, signature) -> list[bytes]:
    """A command's wire fields, each prefix its own item: the key's length
    is item 0, the option and amount counts items 2 and 4, the memo's length
    item 6 and the signature's item 9."""
    def u32(n: int) -> bytes:
        return struct.pack(">I", n)

    def int64s(values) -> bytes:
        return b"".join(struct.pack(">q", v) for v in values)

    return [
        u32(len(key)), key, u32(len(options)), int64s(options),
        u32(len(amounts)), int64s(amounts), u32(len(memo)), memo,
        struct.pack(">q", index), u32(len(signature)), signature,
    ]


_PREFIXES = (0, 2, 4, 6, 9)
EDITS = ("none", "truncated", "trailing", "huge_prefix", "key31", "key33",
         "uneven", "unsorted")


@st.composite
def commands(draw):
    """The fields of a canonical command: options strictly increasing, one
    amount each, a 32-byte key."""
    options = sorted(draw(st.sets(int64s, max_size=4)))
    return (
        draw(st.binary(min_size=32, max_size=32)),
        options,
        draw(st.lists(int64s, min_size=len(options), max_size=len(options))),
        draw(st.binary(max_size=40)),
        draw(int64s),
        draw(st.binary(max_size=70)),
    )


def edited(command, edit: str, at: int) -> list[bytes]:
    """Plaintexts made from `command` by `edit`; `at` picks where."""
    key, options, amounts, memo, index, signature = command
    if edit == "key31":
        key = key[:31]
    elif edit == "key33":
        key = key + b"\x00"
    elif edit == "uneven":  # one amount fewer or one more
        amounts = amounts[:-1] if amounts and at % 2 else [*amounts, at]
    elif edit == "unsorted":  # a repeated option, or two in descending order
        high = max(options[0] if options else 0, 1 - 2**63)
        options, amounts = ([high, high] if at % 2 else [high, high - 1]), [1, 1]
    fields = _fields(key, options, amounts, memo, index, signature)
    if edit == "huge_prefix":
        fields[_PREFIXES[at % len(_PREFIXES)]] = struct.pack(
            ">I", MAX_FIELD_LEN + 1 + at % (2**32 - MAX_FIELD_LEN - 1)
        )
    plaintext = b"".join(fields)
    if edit == "truncated":  # every truncation
        return [plaintext[:n] for n in range(len(plaintext))]
    if edit == "trailing":
        return [plaintext + bytes([at % 256])]
    return [plaintext]


def assert_routes_agree(plaintext: bytes) -> None:
    """`decode_signed_command` and `support.naive_command` return the same
    (command, signed bytes, signature), or refuse with the same error."""
    expected = naive_command(plaintext)
    try:
        command, signed, signature = decode_signed_command(plaintext)
    except (DecodeError, InvalidKey) as exc:
        assert type(exc).__name__ == expected
        return
    assert not isinstance(expected, str), f"decoded what the parser refuses: {expected}"
    key, options, amounts, memo, index, naive_signed, naive_signature = expected
    assert command == Command(key, options, amounts, memo, index)
    assert (signed, signature) == (naive_signed, naive_signature)


def client_plaintexts() -> list[bytes]:
    """Commands as the client signs them (`sign_command`, which
    `build_message` seals): a plain vote, a key rotation with a memo, a
    vote over several options and a vote over none."""
    rng = random.Random(11)
    signer, fresh = KeyPair.generate(rng), KeyPair.generate(rng)
    return [
        sign_command(signer, Command(signer.public, (0,), (1,), b"", 0)),
        sign_command(signer, Command(fresh.public, (1,), (3,), b"proposal", 7)),
        sign_command(signer, Command(signer.public, (0, 2, 5), (1, 0, 2), b"m", 2)),
        sign_command(signer, Command(signer.public, (), (), b"", 1)),
    ]


def prefix_offsets(plaintext: bytes) -> list[int]:
    """Where a command's five prefixes sit: the key's length, the option
    and amount counts, the memo's length and the signature's length."""
    offsets, at = [], 0
    for kind in ("bytes", "ints", "ints", "bytes", "index", "bytes"):
        if kind == "index":
            at += 8
            continue
        offsets.append(at)
        (size,) = struct.unpack_from(">I", plaintext, at)
        at += 4 + (8 * size if kind == "ints" else size)
    assert at == len(plaintext)
    return offsets


@pytest.mark.parametrize("which", range(4))
def test_a_client_command_and_each_of_its_faults_decode_as_the_parser_says(which) -> None:
    """A command the client built decodes to its fields; every truncation
    of it, each of its prefixes set past MAX_FIELD_LEN and one trailing byte
    are refused, each with the error class `support.naive_command` names."""
    plaintext = client_plaintexts()[which]
    assert_routes_agree(plaintext)
    decode_signed_command(plaintext)
    faulted = [plaintext[:n] for n in range(len(plaintext))] + [plaintext + b"\x00"]
    for at in prefix_offsets(plaintext):
        for prefix in (MAX_FIELD_LEN + 1, 2**32 - 1):
            faulted.append(plaintext[:at] + struct.pack(">I", prefix) + plaintext[at + 4:])
    for variant in faulted:
        assert_routes_agree(variant)
        with pytest.raises(DecodeError):
            decode_signed_command(variant)


@settings(max_examples=300)
@given(command=commands(), edit=st.sampled_from(EDITS), at=st.integers(0, 2**40))
def test_the_command_decoder_agrees_with_an_independent_parser(command, edit, at) -> None:
    """Differential check of `decode_signed_command`, which unpacks each
    field at its own cursor, against `support.naive_command`, which reads
    the same wire format with its own offsets: valid commands, every
    truncation, a trailing byte, a length or count prefix above
    MAX_FIELD_LEN, 31- and 33-byte keys, unequal option and amount counts,
    and options that are not strictly increasing."""
    for plaintext in edited(command, edit, at):
        assert_routes_agree(plaintext)


@pytest.mark.parametrize("edit", EDITS)
def test_each_edit_is_refused_as_the_rule_says(edit) -> None:
    """What each edit of one command decodes to or is refused with."""
    command = (bytes(range(32)), [0, 5], [1, 2], b"memo", 3, bytes(64))
    expected = {
        "none": None, "truncated": DecodeError, "trailing": DecodeError,
        "huge_prefix": DecodeError, "key31": InvalidKey, "key33": InvalidKey,
        "uneven": DecodeError, "unsorted": DecodeError,
    }[edit]
    for at in range(len(_PREFIXES)):
        for plaintext in edited(command, edit, at):
            assert_routes_agree(plaintext)
            if expected is None:
                decode_signed_command(plaintext)
            else:
                with pytest.raises(expected):
                    decode_signed_command(plaintext)
