"""The ``repro-record-bin-v1`` container: round-trip, rejection, parity.

Property tests (hypothesis) drive the encoder/decoder over the full
trial-record value domain — nested dicts/lists, arbitrary-precision
ints, exact doubles, unicode, bytes, and :class:`WordBitmap` word
payloads from empty to multi-thousand-bit — and check three contracts:

* **round-trip**: ``decode(encode(v)) == v`` with float bit-exactness,
  and the decoded value canonicalizes to byte-identical JSON (the
  addressing form is untouched by the storage form);
* **rejection**: any truncation or single flipped byte of a container
  either decodes to the identical value (a flip inside a same-length
  varint encoding, say) or raises :class:`BinaryFormatError` — never a
  silently different value;
* **canonical parity**: NaN/Infinity are rejected exactly where
  canonical JSON rejects them, and values canonical JSON refuses
  (sets, arbitrary objects) refuse here too.
"""

from __future__ import annotations

import io
import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.store.binary import (
    BINARY_FORMAT,
    HEADER_SIZE,
    RECORD_TYPE_JOURNAL,
    RECORD_TYPE_TRIAL,
    BinaryFormatError,
    WordBitmap,
    append_journal_frame,
    decode_record,
    encode_record,
    load_journal,
    write_journal_header,
    write_record,
)
from repro.store.canonical import canonical_bytes, canonical_json


# -- value-domain strategies ---------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)


def bitmaps(max_bits: int = 4096):
    return st.builds(
        WordBitmap.from_bits,
        st.lists(st.booleans(), min_size=0, max_size=max_bits),
    )


values = st.recursive(
    st.one_of(scalars, bitmaps(max_bits=256)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=12), children, max_size=5),
    ),
    max_leaves=24,
)

#: JSON-only domain (no WordBitmap, no bytes) for canonical-parity checks.
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=12), children, max_size=5),
    ),
    max_leaves=24,
)


def _assert_same(a, b):
    """Structural equality with float bit-exactness (0.0 != -0.0 here)."""
    assert type(b) in (type(a),) or (
        isinstance(a, (list, tuple)) and isinstance(b, list)
    ), (a, b)
    if isinstance(a, float):
        assert math.copysign(1, a) == math.copysign(1, b)
        assert a.hex() == b.hex()
    elif isinstance(a, dict):
        assert sorted(a) == sorted(b)
        for k in a:
            _assert_same(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_full_domain_round_trips(self, value):
        decoded, record_type = decode_record(
            encode_record(value, RECORD_TYPE_TRIAL)
        )
        assert record_type == RECORD_TYPE_TRIAL
        _assert_same(value, decoded)

    @settings(max_examples=100, deadline=None)
    @given(values)
    def test_decoded_value_addresses_identically(self, value):
        """Storage format never leaks into the content address."""
        decoded, _ = decode_record(encode_record(value))
        assert canonical_bytes(decoded) == canonical_bytes(value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=4096))
    def test_bitmap_words_round_trip(self, bits):
        wb = WordBitmap.from_bits(bits)
        decoded, _ = decode_record(encode_record({"bm": wb}))
        out = decoded["bm"]
        assert isinstance(out, WordBitmap)
        assert out == wb
        assert out.to_bitlist() == [1 if b else 0 for b in bits]

    def test_empty_bitmap(self):
        decoded, _ = decode_record(encode_record(WordBitmap(0)))
        assert decoded == WordBitmap(0)
        assert decoded.nbits == 0
        assert decoded.word_bytes() == b""

    def test_huge_bitmap_million_bits(self):
        n = 1_000_000
        wb = WordBitmap.from_int(n, (1 << n) - 1)
        decoded, _ = decode_record(encode_record(wb))
        assert decoded == wb
        assert decoded.popcount() == n

    def test_tuples_decode_as_lists_like_json(self):
        decoded, _ = decode_record(encode_record({"t": (1, 2, 3)}))
        assert decoded["t"] == [1, 2, 3]

    def test_raw_uint64_buffer_encodes_as_words(self):
        words = array("Q", [0, 2**64 - 1, 7])
        decoded, _ = decode_record(encode_record({"w": words}))
        assert decoded["w"] == WordBitmap(192, words)

    def test_bytes_round_trip(self):
        decoded, _ = decode_record(encode_record({"b": b"\x00\xff" * 9}))
        assert decoded["b"] == b"\x00\xff" * 9


class TestCanonicalParity:
    def test_nan_rejected_like_canonical_json(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonical_json({"x": bad})
            with pytest.raises(ValueError):
                encode_record({"x": bad})

    def test_allow_nan_escape_hatch_for_unaddressed_records(self):
        data = encode_record({"x": float("nan")}, allow_nan=True)
        decoded, _ = decode_record(data)
        assert math.isnan(decoded["x"])

    def test_unserializable_rejected_like_canonical_json(self):
        for bad in ({1, 2}, object(), {"k": object()}):
            with pytest.raises(TypeError):
                canonical_json(bad)
            with pytest.raises(TypeError):
                encode_record(bad)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            encode_record({1: "x"})

    def test_journal_frames_get_the_same_validation(self):
        """Journal events go through the one encoder pass, so NaN and
        key-type checks apply to them too — and a rejected event writes
        nothing to the journal."""
        buf = io.BytesIO()
        write_journal_header(buf)
        size = len(buf.getvalue())
        with pytest.raises(ValueError):
            append_journal_frame(buf, {"x": float("nan")})
        with pytest.raises(TypeError):
            append_journal_frame(buf, {1: 2})
        with pytest.raises(TypeError):
            append_journal_frame(buf, {"ok": 1, "bad": object()})
        assert len(buf.getvalue()) == size
        append_journal_frame(buf, {"x": float("nan")}, allow_nan=True)
        assert len(buf.getvalue()) > size

    def test_rejected_record_writes_nothing(self):
        buf = io.BytesIO()
        with pytest.raises(ValueError):
            write_record(buf, {"a": [1, 2, {"b": float("inf")}]})
        with pytest.raises(TypeError):
            write_record(buf, {"a": "x" * 100, "z": {3}})
        assert buf.getvalue() == b""

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_json_domain_parity(self, value):
        """Everything canonical JSON accepts, the binary codec accepts,
        and both see the same canonical bytes after a binary round trip."""
        decoded, _ = decode_record(encode_record(value))
        assert canonical_bytes(decoded) == canonical_bytes(value)

    def test_wordbitmap_canonicalizes_as_bit_list(self):
        wb = WordBitmap.from_bits([1, 0, 1])
        assert canonical_json({"bm": wb}) == '{"bm":[1,0,1]}'

    def test_dataclass_coercion_matches_canonical(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class P:
            a: int
            b: float

        p = P(3, 0.5)
        decoded, _ = decode_record(encode_record({"p": p}))
        assert decoded["p"] == {"a": 3, "b": 0.5}
        assert canonical_bytes(decoded) == canonical_bytes({"p": p})


class TestRejection:
    @settings(max_examples=60, deadline=None)
    @given(values, st.data())
    def test_truncation_always_rejected(self, value, data):
        blob = encode_record(value)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(BinaryFormatError):
            decode_record(blob[:cut])

    @settings(max_examples=120, deadline=None)
    @given(values, st.data())
    def test_flipped_byte_never_silently_alters_the_value(self, value, data):
        blob = bytearray(encode_record(value))
        i = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[i] ^= 1 << bit
        try:
            decoded, _ = decode_record(bytes(blob))
        except BinaryFormatError:
            return  # CRC (or structure) caught it — the common case
        # A flip may cancel out only if it decodes to the same value
        # (cannot happen with CRC-32 over a single-bit flip, but the
        # contract we care about is "never a different value").
        assert canonical_bytes(decoded) == canonical_bytes(value)

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_record({"x": 1}))
        blob[0] ^= 0xFF
        with pytest.raises(BinaryFormatError):
            decode_record(bytes(blob))

    def test_future_format_version_rejected(self):
        import struct
        import zlib

        blob = bytearray(encode_record({"x": 1}))
        struct.pack_into("<H", blob, 8, 999)  # version field
        struct.pack_into(  # keep the header CRC honest
            "<I", blob, 24, zlib.crc32(bytes(blob[:24]))
        )
        with pytest.raises(BinaryFormatError) as excinfo:
            decode_record(bytes(blob))
        assert "version" in str(excinfo.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(BinaryFormatError):
            decode_record(encode_record({"x": 1}) + b"extra")

    def test_oversized_length_prefix_never_overallocates(self):
        # a field claiming more bytes than the body holds must fail on
        # the budget check, before any read/allocation is attempted
        blob = bytearray(encode_record("abcdef"))
        # tag STR at body[0], varint length at body[1]
        blob[HEADER_SIZE + 1] = 0x7F  # claim 127 bytes in a 6-byte body
        with pytest.raises(BinaryFormatError):
            decode_record(bytes(blob))

    def test_bitmap_with_bits_beyond_width_rejected(self):
        with pytest.raises(ValueError):
            WordBitmap(3, array("Q", [0b1111]))
        blob = bytearray(encode_record(WordBitmap.from_bits([1, 1, 1])))
        # set a word bit beyond nbits=3 inside the words payload
        blob[-5] |= 0b1000
        with pytest.raises(BinaryFormatError):
            decode_record(bytes(blob))


class TestJournalFraming:
    def _journal(self, events):
        buf = io.BytesIO()
        write_journal_header(buf)
        for event in events:
            append_journal_frame(buf, event)
        return buf

    def _load(self, tmp_path, blob):
        path = tmp_path / "j.binj"
        path.write_bytes(blob)
        return load_journal(path)

    def test_frames_round_trip(self, tmp_path):
        events = [{"kind": "meta", "n": 3}, {"kind": "trial", "i": 0}]
        blob = self._journal(events).getvalue()
        assert self._load(tmp_path, blob) == (events, len(blob))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.text(max_size=8), scalars, max_size=4),
                    max_size=6),
           st.binary(min_size=1, max_size=16))
    def test_torn_tail_yields_every_intact_frame(self, events, garbage):
        import pathlib
        import tempfile

        intact = self._journal(events).getvalue()
        # SIGKILL mid-frame: garbage after the last intact frame
        loaded, valid = self._load(
            pathlib.Path(tempfile.mkdtemp()), intact + garbage
        )
        # the torn tail costs at most zero intact frames...
        assert loaded == events or len(loaded) < len(events)
        # ...and the valid prefix never reaches into the garbage
        assert valid <= len(intact)
        assert self._load(
            pathlib.Path(tempfile.mkdtemp()), (intact + garbage)[:valid]
        ) == (loaded, valid)

    def test_flipped_frame_crc_stops_the_stream(self, tmp_path):
        buf = self._journal([{"i": 0}, {"i": 1}, {"i": 2}])
        blob = bytearray(buf.getvalue())
        blob[-3] ^= 0x01  # corrupt the last frame's payload
        loaded, _ = self._load(tmp_path, bytes(blob))
        assert loaded == [{"i": 0}, {"i": 1}]

    def test_single_record_reader_refuses_journals(self):
        buf = self._journal([{"i": 0}])
        with pytest.raises(BinaryFormatError):
            decode_record(buf.getvalue())

    def test_journal_writer_refuses_single_record_api(self):
        with pytest.raises(ValueError):
            write_record(io.BytesIO(), {"x": 1}, RECORD_TYPE_JOURNAL)


def _golden_corpus():
    """A fixed value corpus covering every tag and coercion the encoder has."""
    import pathlib
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Point:
        x: int
        y: float

    class BitmapLike:  # duck-typed Bitmap: ``size``/``bits`` ints
        size = 70
        bits = (1 << 69) | 0b1011

    bitmaps = {
        f"w{width}": WordBitmap.from_int(
            width, (0x9E3779B97F4A7C15 ** 7) & ((1 << width) - 1)
        )
        for width in (0, 1, 64, 65, 4096)
    }
    return [
        None,
        True,
        False,
        0,
        -1,
        2**64 - 1,
        2**70 + 12345,
        -(2**100) - 7,
        0.0,
        -0.0,
        1.5e-300,
        -123456.789,
        "",
        "ascii",
        "unicode: ü ß 漢字 🚀",
        b"",
        b"\x00\xff" * 17,
        [],
        {},
        (1, "two", 3.0),
        {"nested": {"list": [1, [2, [3, {"deep": None}]]], "z": -0.0},
         "a": [True, False, None], "ü": "key order is by code point"},
        bitmaps,
        {"words": array("Q", [0, 2**64 - 1, 7]), "bitmap_like": BitmapLike()},
        {"dataclass": Point(3, 0.5), "path": pathlib.PurePosixPath("a/b.c")},
        {"big": [2**k + k for k in range(0, 200, 13)]},
    ]


class TestEncoderGolden:
    """Pins the exact encoder bytes: any encoder rewrite must keep them."""

    GOLDEN_SHA256 = (
        "51afcabc2cd975eb466865606e82dc35975c93e5e1650605ec4ac8cf45f1aa41"
    )

    def _blob(self):
        import hashlib

        h = hashlib.sha256()
        corpus = _golden_corpus()
        for record_type in (RECORD_TYPE_TRIAL, 0, 3):
            for value in corpus:
                h.update(encode_record(value, record_type))
        h.update(encode_record({"inf": float("inf"), "-inf": float("-inf")},
                               allow_nan=True))
        journal = io.BytesIO()
        write_journal_header(journal)
        for value in corpus:
            append_journal_frame(journal, value)
        append_journal_frame(journal, {"inf": float("inf")}, allow_nan=True)
        h.update(journal.getvalue())
        return h.hexdigest()

    def test_encoder_and_journal_bytes_are_pinned(self):
        assert self._blob() == self.GOLDEN_SHA256


class TestFingerprintMixing:
    def test_binary_format_version_moves_every_cache_key(self, monkeypatch):
        """A format bump must invalidate all cached keys by construction."""
        from repro.store import binary, fingerprint

        fingerprint.code_fingerprint.cache_clear()
        before = fingerprint.code_fingerprint()
        monkeypatch.setattr(binary, "BINARY_FORMAT", "repro-record-bin-v2")
        fingerprint.code_fingerprint.cache_clear()
        after = fingerprint.code_fingerprint()
        fingerprint.code_fingerprint.cache_clear()
        assert before != after
        assert BINARY_FORMAT == "repro-record-bin-v1"
