"""``repro-record-bin-v1`` — the compact binary record container.

Canonical JSON (:mod:`repro.store.canonical`) stays the *addressing*
format: every content address is still the SHA-256 of canonical JSON,
so keys, dedupe semantics and cross-host verification are untouched.
This module is the *payload* format: trial records, checkpoint journal
events and ``repro serve`` job records round-trip through a
strongly-typed, compact container instead of JSON text —
uint64 bitmap words are written raw (8 bytes per word, via
``memoryview``, no copies) where JSON spends ~2 bytes *per bit*.

Container layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     8  magic               b"RPRBIN1\\n"
         8     2  format version      (currently 1)
        10     2  record type         (trial / journal / job / generic)
        12     4  flags               (reserved, must be 0)
        16     8  body length         bytes of encoded value (0 = journal
                                      stream: framed records follow)
        24     4  header CRC-32       over bytes [0, 24)
    ----------------------------------------------------------------
        28     n  body                one encoded value (see below)
      28+n     4  body CRC-32         over the n body bytes

Journal containers (``record type = journal``) carry ``body length = 0``
and are followed by a stream of *frames*, each::

    u32 payload length | u32 payload CRC-32 | payload (one encoded value)

A frame whose length or CRC does not check out ends the readable stream,
so a SIGKILL mid-append costs at most the frame being written.

Value encoding — one tag byte, then a type-specific payload.  Lengths
and counts are unsigned LEB128 varints; integers are zigzag LEB128
(arbitrary precision, like Python ints); floats are raw IEEE-754
doubles; dict keys are sorted strings (the same order canonical JSON
uses, so encoding is deterministic).  ``NaN``/``Infinity`` are rejected
by default for parity with canonical JSON; records that never feed a
digest (e.g. job telemetry) may pass ``allow_nan=True``.

:class:`WordBitmap` is the payload type the format exists for: an
``nbits``-wide bit vector stored as ``ceil(nbits/64)`` raw little-endian
uint64 words.  Its canonical-JSON form (what digests see, via
``__canonical_json__``) is the per-slot ``[0, 1, ...]`` list — which is
what makes the binary form ~16x smaller on disk.

Versioning and compatibility rules:

* the format version is bumped on any layout change; decoders reject
  versions they do not understand (:class:`BinaryFormatError`);
* :data:`BINARY_FORMAT` is mixed into
  :func:`repro.store.fingerprint.code_fingerprint`, so every cached key
  moves when the format version moves — a store written by a future
  format version is never half-read by an old decoder, it is simply
  recomputed under new keys.

One encoder, one decoder: :func:`encode_record` builds a container in a
single pass, validating as it goes (non-finite floats, non-``str`` keys,
unencodable types), and :func:`write_record` /
:func:`append_journal_frame` hand the finished bytes to the file in one
write — a rejected value writes nothing.  :func:`decode_record` decodes
an in-memory container, bounds-checking every declared length before
slicing; :func:`load_journal` replays journal frames through the same
value decoder.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import struct
import sys
import zlib
from array import array
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

__all__ = [
    "BINARY_FORMAT",
    "FORMAT_VERSION",
    "MAGIC",
    "HEADER_SIZE",
    "RECORD_TYPE_GENERIC",
    "RECORD_TYPE_TRIAL",
    "RECORD_TYPE_JOURNAL",
    "RECORD_TYPE_JOB",
    "RECORD_TYPE_NAMES",
    "BinaryFormatError",
    "WordBitmap",
    "encode_record",
    "decode_record",
    "write_record",
    "read_record_path",
    "write_journal_header",
    "append_journal_frame",
    "load_journal",
]

#: Version string mixed into ``code_fingerprint()`` — bump with
#: :data:`FORMAT_VERSION` so stale cache keys invalidate by construction.
BINARY_FORMAT = "repro-record-bin-v1"

MAGIC = b"RPRBIN1\n"
FORMAT_VERSION = 1
HEADER_SIZE = 28

RECORD_TYPE_GENERIC = 0
RECORD_TYPE_TRIAL = 1
RECORD_TYPE_JOURNAL = 2
RECORD_TYPE_JOB = 3

RECORD_TYPE_NAMES = {
    RECORD_TYPE_GENERIC: "generic",
    RECORD_TYPE_TRIAL: "trial",
    RECORD_TYPE_JOURNAL: "journal",
    RECORD_TYPE_JOB: "job",
}

# Value tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_WORDS = 0x09

_HEADER = struct.Struct("<8sHHIQ")  # magic, version, rtype, flags, body_len
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_FRAME = struct.Struct("<II")  # payload length, payload crc

_LITTLE = sys.byteorder == "little"


class BinaryFormatError(ValueError):
    """A record that is not valid ``repro-record-bin-v1`` data.

    Raised on bad magic, unknown format version, CRC mismatch,
    truncation, unknown tags, or payload invariants that do not hold
    (e.g. nonzero bits beyond a bitmap's declared width).  Store readers
    treat it as a cache miss, never as data.
    """


class WordBitmap:
    """An ``nbits``-wide bit vector backed by raw uint64 words.

    ``words`` is any read-only buffer of little-endian uint64 words
    (``array('Q')``, a numpy uint64 array, or a ``memoryview`` into a
    decoded record — the zero-copy path).  Bit ``i`` lives at word
    ``i // 64``, bit ``i % 64``; bits at positions >= ``nbits`` must be
    zero (enforced, so every bit pattern has exactly one encoding).

    Its canonical JSON form is the per-slot ``[0, 1, ...]`` int list —
    the representation a JSON record would have carried — so digests and
    ``cache verify`` see identical bytes whether a record was stored as
    JSON or binary.
    """

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int, words: Any = None):
        nbits = int(nbits)
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        n_words = (nbits + 63) // 64
        if words is None:
            words = array("Q", bytes(8 * n_words))
        view = memoryview(words)
        if view.itemsize != 8:
            raise ValueError(
                "words must be a buffer of 8-byte unsigned items "
                f"(itemsize={view.itemsize})"
            )
        if view.ndim != 1:
            raise ValueError("words must be one-dimensional")
        if len(view) != n_words:
            raise ValueError(
                f"{nbits} bits needs {n_words} words, got {len(view)}"
            )
        tail = nbits % 64
        if tail and n_words and int(view[n_words - 1]) >> tail:
            raise ValueError(
                f"bits set beyond declared width {nbits}"
            )
        self.nbits = nbits
        self.words = words

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, nbits: int, value: int) -> "WordBitmap":
        """From a big-int bit pattern (:class:`repro.core.bitmap.Bitmap`)."""
        if value < 0:
            raise ValueError("bit pattern must be non-negative")
        if value >> nbits:
            raise ValueError(f"value has bits beyond width {nbits}")
        n_words = (int(nbits) + 63) // 64
        words = array(
            "Q", value.to_bytes(8 * n_words, "little") if n_words else b""
        )
        return cls(nbits, words)

    @classmethod
    def from_bitmap(cls, bitmap: Any) -> "WordBitmap":
        """From any object with ``size`` and ``bits`` attributes."""
        return cls.from_int(bitmap.size, bitmap.bits)

    @classmethod
    def from_bits(cls, bits: Any) -> "WordBitmap":
        """From an iterable of per-slot truthy flags."""
        flags = [1 if b else 0 for b in bits]
        value = 0
        for i, flag in enumerate(flags):
            if flag:
                value |= 1 << i
        return cls.from_int(len(flags), value)

    # -- views -------------------------------------------------------------

    def word_bytes(self) -> bytes:
        """The raw little-endian word payload."""
        view = memoryview(self.words)
        if _LITTLE:
            return view.cast("B").tobytes()
        swapped = array("Q", view)
        swapped.byteswap()
        return swapped.tobytes()

    def to_int(self) -> int:
        return int.from_bytes(self.word_bytes(), "little")

    def to_bitlist(self) -> List[int]:
        """The per-slot ``[0, 1, ...]`` list (the canonical JSON form)."""
        value = self.to_int()
        return [(value >> i) & 1 for i in range(self.nbits)]

    def __canonical_json__(self) -> List[int]:
        return self.to_bitlist()

    def popcount(self) -> int:
        return self.to_int().bit_count()

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordBitmap):
            return NotImplemented
        return self.nbits == other.nbits and (
            self.word_bytes() == other.word_bytes()
        )

    def __hash__(self) -> int:
        return hash((self.nbits, self.word_bytes()))

    def __repr__(self) -> str:
        return (
            f"WordBitmap(nbits={self.nbits}, "
            f"popcount={self.popcount()})"
        )


def _as_words(obj: Any) -> Optional[WordBitmap]:
    """``obj`` as a words payload, or None if it is not one.

    Accepts :class:`WordBitmap` directly, duck-typed ``Bitmap``-likes
    (``.size``/``.bits`` ints), and any 1-D buffer of 8-byte unsigned
    items (``array('Q')``, numpy uint64 arrays) — the latter encode as
    ``nbits = 64 * len``.
    """
    if isinstance(obj, WordBitmap):
        return obj
    size = getattr(obj, "size", None)
    bits = getattr(obj, "bits", None)
    if isinstance(size, int) and isinstance(bits, int):
        return WordBitmap.from_int(size, bits)
    try:
        view = memoryview(obj)
    except TypeError:
        return None
    if view.ndim == 1 and view.itemsize == 8 and view.format in ("Q", "L"):
        return WordBitmap(64 * len(view), obj)
    return None


def _coerce(value: Any) -> Any:
    """The canonical-JSON coercions mirrored for the binary encoder.

    Dataclasses and paths (and any ``__canonical_json__`` provider that
    is not a words payload) encode here exactly as they canonicalize in
    :mod:`repro.store.canonical` — a record either serializes in both
    formats or in neither.  Returns ``None`` when no coercion applies.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, pathlib.PurePath):
        return str(value)
    hook = getattr(value, "__canonical_json__", None)
    if callable(hook):
        return hook()
    return None


# -- varints -------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _uvarint_at(buf: memoryview, pos: int, end: int) -> Tuple[int, int]:
    """In-memory uvarint -> (value, next_pos); bounds-checked by ``end``."""
    shift = 0
    value = 0
    while True:
        if pos >= end:
            raise BinaryFormatError("truncated varint")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) if not z & 1 else -((z + 1) >> 1)


# -- encoder -------------------------------------------------------------------


def _write_value(out: bytearray, value: Any, allow_nan: bool) -> None:
    """Append ``value``'s encoding to ``out`` — the single encoder pass.

    Validation (non-finite floats, non-``str`` dict keys, unencodable
    types) happens as the value is walked; callers only hand ``out`` to
    a file once the whole walk succeeded, so an invalid value writes
    nothing.
    """
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_uvarint(out, _zigzag(value))
    elif isinstance(value, float):
        if not allow_nan and not math.isfinite(value):
            raise ValueError(
                f"non-finite float {value!r} has no canonical form "
                "(pass allow_nan=True for non-addressed records)"
            )
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item, allow_nan)
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"binary record keys must be str, got "
                    f"{type(key).__name__}"
                )
        out.append(_T_DICT)
        _write_uvarint(out, len(value))
        # Canonical JSON's sort order, so encoding is deterministic and
        # key streams match what digests were computed over.
        for key in sorted(value):
            raw = key.encode("utf-8")
            _write_uvarint(out, len(raw))
            out += raw
            _write_value(out, value[key], allow_nan)
    else:
        words = _as_words(value)
        if words is None:
            coerced = _coerce(value)
            if coerced is None:
                raise TypeError(
                    f"{type(value).__name__} is not binary-record "
                    "serializable"
                )
            _write_value(out, coerced, allow_nan)
            return
        out.append(_T_WORDS)
        _write_uvarint(out, words.nbits)
        if _LITTLE:
            # raw words straight from the caller's buffer
            out += memoryview(words.words).cast("B")
        else:  # pragma: no cover - big-endian hosts
            out += words.word_bytes()


def _encode_value(value: Any, allow_nan: bool) -> bytearray:
    out = bytearray()
    _write_value(out, value, allow_nan)
    return out


# -- decoder -------------------------------------------------------------------


def _decode_from(buf: bytes, pos: int, end: int) -> Tuple[Any, int]:
    """The value decoder -> (value, next_pos).

    Behind :func:`decode_record` and :func:`load_journal`: the CRC is
    validated in one :func:`zlib.crc32` call *before* this runs, so the
    cursor needs no per-field CRC accounting — just bounds checks, which
    keep a CRC-colliding corrupt length prefix from over-allocating.
    ``buf`` is ``bytes`` (not a memoryview) and every varint is inlined:
    cache-hit reads decode one of these per trial, so per-byte indexing
    and per-field call overhead are what this loop is shaped around.
    """
    if pos >= end:
        raise BinaryFormatError("truncated record")
    tag = buf[pos]
    pos += 1
    if tag == _T_STR or tag == _T_BYTES:
        if pos >= end:
            raise BinaryFormatError("truncated varint")
        length = buf[pos]
        pos += 1
        if length >= 0x80:
            length &= 0x7F
            shift = 7
            while True:
                if pos >= end:
                    raise BinaryFormatError("truncated varint")
                byte = buf[pos]
                pos += 1
                length |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
        if length > end - pos:
            raise BinaryFormatError(
                f"field claims {length} bytes with {end - pos} remaining"
            )
        stop = pos + length
        if tag == _T_BYTES:
            return buf[pos:stop], stop
        try:
            return str(buf[pos:stop], "utf-8"), stop
        except UnicodeDecodeError as exc:
            raise BinaryFormatError(f"invalid UTF-8 in record: {exc}")
    if tag == _T_FLOAT:
        if end - pos < 8:
            raise BinaryFormatError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_INT:
        value, pos = _uvarint_at(buf, pos, end)
        return _unzigzag(value), pos
    if tag == _T_DICT:
        count, pos = _uvarint_at(buf, pos, end)
        result: Dict[str, Any] = {}
        for _ in range(count):
            if pos >= end:
                raise BinaryFormatError("truncated varint")
            length = buf[pos]
            pos += 1
            if length >= 0x80:
                length &= 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise BinaryFormatError("truncated varint")
                    byte = buf[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            if length > end - pos:
                raise BinaryFormatError(
                    f"key claims {length} bytes with {end - pos} remaining"
                )
            stop = pos + length
            try:
                key = str(buf[pos:stop], "utf-8")
            except UnicodeDecodeError as exc:
                raise BinaryFormatError(f"invalid UTF-8 key: {exc}")
            result[key], pos = _decode_from(buf, stop, end)
        return result, pos
    if tag == _T_LIST:
        count, pos = _uvarint_at(buf, pos, end)
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _decode_from(buf, pos, end)
            append(item)
        return items, pos
    if tag == _T_WORDS:
        nbits, pos = _uvarint_at(buf, pos, end)
        nbytes = 8 * ((nbits + 63) // 64)
        if nbytes > end - pos:
            raise BinaryFormatError(
                f"bitmap claims {nbytes} bytes with {end - pos} remaining"
            )
        stop = pos + nbytes
        if _LITTLE:
            # zero-copy: a uint64 view straight into the record buffer
            words: Any = memoryview(buf)[pos:stop].cast("Q")
        else:  # pragma: no cover - big-endian hosts
            words = array("Q", buf[pos:stop])
            words.byteswap()
        try:
            return WordBitmap(nbits, words), stop
        except ValueError as exc:
            raise BinaryFormatError(str(exc))
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    raise BinaryFormatError(f"unknown value tag 0x{tag:02x}")


# -- single-record containers --------------------------------------------------


def _pack_header(record_type: int, body_len: int) -> bytes:
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, record_type, 0, body_len)
    return head + _U32.pack(zlib.crc32(head))


def _parse_header(raw: Union[bytes, memoryview]) -> Tuple[int, int]:
    """Validated (record_type, body_len) of a 28-byte header."""
    if len(raw) < HEADER_SIZE:
        raise BinaryFormatError("truncated header")
    raw = bytes(raw[:HEADER_SIZE])
    magic, version, record_type, flags, body_len = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != MAGIC:
        raise BinaryFormatError(f"bad magic {magic!r}")
    (crc,) = _U32.unpack(raw[_HEADER.size :])
    if crc != zlib.crc32(raw[: _HEADER.size]):
        raise BinaryFormatError("header CRC mismatch")
    if version != FORMAT_VERSION:
        raise BinaryFormatError(
            f"unsupported format version {version} "
            f"(this reader speaks {FORMAT_VERSION})"
        )
    if flags != 0:
        raise BinaryFormatError(f"unknown flags 0x{flags:08x}")
    if record_type not in RECORD_TYPE_NAMES:
        raise BinaryFormatError(f"unknown record type {record_type}")
    return record_type, body_len


def encode_record(
    value: Any,
    record_type: int = RECORD_TYPE_GENERIC,
    *,
    allow_nan: bool = False,
) -> bytes:
    """One record container as bytes: header, body, body CRC."""
    if record_type == RECORD_TYPE_JOURNAL:
        raise ValueError(
            "journal containers are streams; use write_journal_header() "
            "+ append_journal_frame()"
        )
    body = _encode_value(value, allow_nan)
    return b"".join(
        (_pack_header(record_type, len(body)), body,
         _U32.pack(zlib.crc32(body)))
    )


def write_record(
    fh: BinaryIO,
    value: Any,
    record_type: int = RECORD_TYPE_GENERIC,
    *,
    allow_nan: bool = False,
) -> int:
    """Write one record container to ``fh``; returns bytes written.

    The container is encoded in full before the single ``fh.write``, so
    a value that fails validation leaves ``fh`` untouched.
    """
    data = encode_record(value, record_type, allow_nan=allow_nan)
    fh.write(data)
    return len(data)


def decode_record(data: Union[bytes, bytearray, memoryview]) -> Tuple[Any, int]:
    """Decode one record container from bytes -> (value, record_type).

    The in-memory fast path ``ResultStore`` reads with: word payloads
    decode as zero-copy ``memoryview`` casts into ``data``.
    """
    buf = data if isinstance(data, bytes) else bytes(data)
    record_type, body_len = _parse_header(buf)
    if record_type == RECORD_TYPE_JOURNAL:
        raise BinaryFormatError(
            "journal container: use load_journal()"
        )
    if len(buf) != HEADER_SIZE + body_len + 4:
        raise BinaryFormatError(
            f"record is {len(buf)} bytes, header declares "
            f"{HEADER_SIZE + body_len + 4}"
        )
    body_end = HEADER_SIZE + body_len
    (crc,) = _U32.unpack_from(buf, body_end)
    if crc != zlib.crc32(memoryview(buf)[HEADER_SIZE:body_end]):
        raise BinaryFormatError("body CRC mismatch")
    try:
        value, pos = _decode_from(buf, HEADER_SIZE, body_end)
    except RecursionError:
        raise BinaryFormatError("record nests too deep")
    if pos != body_end:
        raise BinaryFormatError(
            f"body declares {body_len} bytes, value used "
            f"{pos - HEADER_SIZE}"
        )
    return value, record_type


# -- journal streams -----------------------------------------------------------


def write_journal_header(fh: BinaryIO) -> None:
    """Start a journal container (header only; frames follow)."""
    fh.write(_pack_header(RECORD_TYPE_JOURNAL, 0))


def append_journal_frame(
    fh: BinaryIO, event: Any, *, allow_nan: bool = False
) -> int:
    """Append one framed event record; returns bytes written.

    The frame is length-prefixed and CRC-protected, so a SIGKILL
    mid-write loses at most this frame — the reader stops at the first
    frame that does not check out.
    """
    payload = _encode_value(event, allow_nan)
    if len(payload) > 0xFFFFFFFF:
        raise ValueError("journal event exceeds 4 GiB frame limit")
    fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
    return _FRAME.size + len(payload)


def load_journal(path: Any) -> Tuple[List[Any], int]:
    """All intact events in the journal at ``path``, plus the byte
    length of its valid prefix (header + intact frames).

    The valid-prefix length is what a resuming writer truncates the
    file to before appending: binary frames do not self-delimit, so a
    torn tail must be cut off or it would shadow every frame
    appended after it.  A missing file, or one whose header is not a
    journal container, reads as ``([], 0)`` — the writer then starts
    the journal fresh.
    """
    events: List[Any] = []
    try:
        fh = open(path, "rb")
    except OSError:
        return events, 0
    with fh:
        try:
            record_type, _ = _parse_header(fh.read(HEADER_SIZE))
        except BinaryFormatError:
            return events, 0
        if record_type != RECORD_TYPE_JOURNAL:
            return events, 0
        valid = HEADER_SIZE
        while True:
            head = fh.read(_FRAME.size)
            if len(head) != _FRAME.size:
                return events, valid
            length, crc = _FRAME.unpack(head)
            payload = fh.read(length)
            if len(payload) != length or zlib.crc32(payload) != crc:
                return events, valid
            try:
                value, consumed = _decode_from(payload, 0, length)
                if consumed != length:
                    return events, valid
            except (BinaryFormatError, RecursionError):
                return events, valid
            events.append(value)
            valid = fh.tell()


def read_record_path(path: Any) -> Tuple[Any, int]:
    """Decode the record container stored at ``path``."""
    with open(path, "rb") as fh:
        return decode_record(fh.read())
