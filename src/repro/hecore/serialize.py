"""Binary serialization for ciphertexts, public keys, and evaluation keys.

The paper's communication costs are serialized-ciphertext bytes; this module
provides the actual wire format so byte counts are measurable, not just
modeled.  Two ciphertext representations exist:

* **full** — every polynomial component, every residue of every
  coefficient;
* **seed-compressed** — for fresh symmetric ciphertexts, only ``c0`` plus
  the 32-byte seed of the uniform component (the receiver regenerates
  ``c1`` with :func:`repro.hecore.keys.expand_uniform_poly`, the same
  expansion evaluation keys use), halving upload sizes.  Always in
  evaluation form, the form the seed expands to.

Every residue row travels at its modulus' byte width, ``ceil(bits(q) /
8)`` (:func:`_rows`): 3 bytes for a 24-bit limb, 4 for a 30-bit one.  The
width is derived, not declared: every blob header already carries its
moduli (``u64`` entries), so there is no width field.  A row is written as
byte planes of its residues, low byte first — a 3-byte row as one ``u16``
plane of the low 16 bits, then one ``u8`` plane of the high 8; a 4-byte row
as one ``u32`` plane — so every plane is one truncating cast on the way
out and one shift-and-or on the way in.

Evaluation keys (relinearization and Galois) are always seed-compressed:
a key-switching key is ``L`` digit pairs ``(k0, k1 = a_i)`` over the
rows ``q_0..q_{L-1}, P`` whose uniform halves all expand from one public
seed (:func:`repro.hecore.keys.expand_keyswitch_uniform`, cut to those
rows), so only ``k0`` travels.  A relinearization key has a digit per
data limb; a Galois key has ``1..k`` (it is made for the level its
program rotates it at), each key's ``n_digits`` giving its own length.
There is no "full" key format.  A real offload server needs
keys on the wire once per key lifetime (the offline phase of
``docs/PROTOCOL.md``).  Public keys ship both components.

Every header is a record declared once on this module's field codecs —
the blob headers below, and the runtime's frame header and payloads
(:mod:`repro.runtime.framing`): one ``pack``, one ``unpack_from`` and the
record's ``LAYOUT`` are derived from the declaration.  The blob-layout
table of ``docs/PROTOCOL.md`` shows each header's ``LAYOUT`` beside the
body it precedes, and a test keeps the two equal.

``VERSION`` is one constant for every blob kind.  Version 2 introduced the
seeded key layout; version 3 redefined a ciphertext seed's expansion as the
evaluation-form ``c1`` (a SEEDED blob always carries NTT too); version 4
narrowed every residue word from ``int64`` to ``u32``; version 5 sends
each row at its modulus' byte width.  There is no negotiation: an older
blob of any kind is refused with ``unsupported version N``.

Every deserializer validates magic, version, declared counts, and the exact
blob length *before* touching numpy or expanding a seed, and — when
parameters are supplied — checks the declared moduli against them.  It then
unpacks the planes straight into the ``int64`` arrays the arithmetic uses
and checks every residue row against its modulus (one max reduction)
before any value is used: the NTT and the dyadic kernels assume canonical
inputs, and a row's byte width holds values up to ``2**(8 * width) - 1``,
so a residue at or above its modulus is refused by name, not computed
with.  Malformed input raises
:class:`ValueError`; it never crashes in low-level array code.
"""

from __future__ import annotations

import enum
import inspect
import math
import struct
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import attrgetter
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.hecore.ciphertext import Ciphertext
from repro.hecore import keys as _keys
from repro.hecore.keys import (
    SEED_BYTES,
    GaloisKeys,
    KeySwitchKey,
    PublicKey,
    RelinKeys,
    expand_uniform_poly,
)
from repro.hecore.params import EncryptionParameters, SchemeType
from repro.hecore.polyring import RnsPoly
from repro.hecore.rns import RnsBase

MAGIC = b"CHOC"
VERSION = 5

_FLAG_SEEDED = 1
_FLAG_NTT = 2

#: Ciphertexts carry at most three components (pre-relinearization product).
_MAX_COMPONENTS = 3


class KeyKind(enum.IntEnum):
    """What a key blob (and a ``KEY_UPLOAD`` frame) carries."""

    PUBLIC = 1
    RELIN = 2
    GALOIS = 3


# ---------------------------------------------------------------------------
# Field codecs: ``put(value, out)`` appends the bytes to *out*; ``read(buf,
# off)`` returns ``(value, next_offset)``.  A short buffer or a value that
# does not fit raises struct.error / KeyError, which unpack / pack name; a
# wire value a codec refuses raises ValueError.
# ---------------------------------------------------------------------------

class _Codec:
    label = ""
    layout = "{name} {label}"   # this field's part of the record's LAYOUT
    arity = 1                   # consecutive dataclass fields it carries
    size = None                 # fixed wire width in bytes (None: varies)


class _Int(_Codec):
    """One little-endian number of ``struct`` format *fmt*."""

    def __init__(self, fmt: str, label: str = ""):
        self.fmt, self.struct = fmt, struct.Struct("<" + fmt)
        self.size = self.struct.size
        self.label = label or f"u{8 * self.size}"

    def put(self, value, out):
        out.append(self.struct.pack(value))

    def read(self, buf, off):
        return self.struct.unpack_from(buf, off)[0], off + self.size


class _Bytes(_Codec):
    """Bytes after a *prefix*-wide length, exactly *size* bytes, or the
    rest of the buffer."""

    def __init__(self, prefix: Optional[_Int] = None, label: str = "",
                 size: Optional[int] = None):
        self.prefix, self.size = prefix, size
        self.label = label or f"u8[{size}]"

    def put(self, data, out):
        if self.prefix:
            self.prefix.put(len(data), out)
        elif self.size not in (None, len(data)):
            raise struct.error(f"{len(data)} bytes, not {self.size}")
        out.append(data)

    def read(self, buf, off):
        n, off = (self.prefix.read(buf, off) if self.prefix
                  else (self.size or len(buf) - off, off))
        if off + n > len(buf):
            raise struct.error("buffer truncated")
        return buf[off:off + n], off + n


class _Mapped(_Codec):
    """*inner*'s value mapped through *encode* / *decode*; a wire value
    that *decode* refuses is a ValueError saying *what*."""

    def __init__(self, inner: _Codec, encode, decode, what: str, label=""):
        self.inner, self.encode, self.decode = inner, encode, decode
        self.what, self.label = what, label or inner.label
        self.size = inner.size

    def put(self, value, out):
        self.inner.put(self.encode(value), out)

    def read(self, buf, off):
        raw, off = self.inner.read(buf, off)
        try:
            return self.decode(raw), off
        except (ValueError, KeyError, RecursionError) as exc:
            raise ValueError(f"{self.what}: {exc}") from exc


def _enum(width: _Int, codes, what: str = "") -> _Mapped:
    """A member as its *width* code: *codes* maps member -> code, or is an
    ``IntEnum`` whose values are the codes."""
    if not isinstance(codes, dict):
        codes = {member: int(member) for member in codes}
    members = {code: member for member, code in codes.items()}
    what = what or f"unknown {type(next(iter(codes))).__name__}"
    return _Mapped(width, codes.__getitem__, members.__getitem__, what)


class _List(_Codec):
    """A *count*-prefixed list of *item* numbers."""

    def __init__(self, count: _Int, item: _Int):
        self.count, self.item = count, item
        self.layout = (f"n_{{name}} {count.label} | "
                       f"{{name}} {item.label}[n_{{name}}]")

    def put(self, values, out):
        out.append(struct.pack(f"<{self.count.fmt}{len(values)}"
                               f"{self.item.fmt}", len(values), *values))

    def read(self, buf, off):
        n, off = self.count.read(buf, off)
        return (struct.unpack_from(f"<{n}{self.item.fmt}", buf, off),
                off + n * self.item.size)


class _LogicalBits(_Codec):
    """The parameter spec's logical prime sizes, with the special-prime
    count between count and list: always 1, as ``create`` derives the one
    special prime."""

    layout = "n_logical u8 | n_special u8 | {name} u16[n_logical]"

    def put(self, bits, out):
        out.append(struct.pack(f"<BB{len(bits)}H", len(bits), 1, *bits))

    def read(self, buf, off):
        n, n_special = struct.unpack_from("<BB", buf, off)
        if n_special != 1:
            raise ValueError(f"parameter blob declares {n_special} special "
                             f"primes; key switching uses exactly one")
        return struct.unpack_from(f"<{n}H", buf, off + 2), off + 2 + 2 * n


U8, U16, U32, U64 = map(_Int, "BHIQ")
F64 = _Int("d", "f64")
BYTES16 = _Bytes(U16, "bytes16")
STR16 = _Mapped(BYTES16, str.encode, bytes.decode,
                "invalid UTF-8 in str16 field", "str16")
SCHEME = _enum(U8, {SchemeType.BFV: 0, SchemeType.CKKS: 1},
               "unknown scheme code")
_MODULI = _List(U8, U64)
_SEED = _Bytes(size=SEED_BYTES)
#: A bit count that may be absent: ``i16``, -1 when it is.
_OPTIONAL_BITS = _Mapped(_Int("h", "i16"),
                         lambda bits: -1 if bits is None else bits,
                         lambda raw: None if raw < 0 else raw, "")


def _f(codec: _Codec, refuse: str = "", **kwargs):
    """A record field carried by *codec* (``field`` keywords pass on).
    With *refuse* it is a constant: its ``default`` is always written, and
    reading anything else is refused with *refuse*, formatted with the
    record's ``what`` and the value read as ``got``."""
    if refuse:
        kwargs["init"] = False
    return field(metadata={"codec": codec, "refuse": refuse}, **kwargs)


def _shown(value) -> str:
    """A constant as ``LAYOUT`` shows it: ``"CHOC"`` or ``4``."""
    if isinstance(value, bytes):
        return f'"{value.decode()}"'
    return str(int(value))


class _Record:
    """Every binary header and frame payload: a subclass becomes a frozen
    dataclass whose fields' codecs, in declaration order, are its wire
    layout, walked by the one ``pack`` and ``unpack_from`` and spelled out
    in ``LAYOUT``; ``SIZE`` is its wire width when that is fixed.  A
    subclass that declares no field only sets the error texts below."""

    error, what = ValueError, "blob"
    short = "{what} blob shorter than its header"      # a truncated record
    trailing = "{what} blob has {n} trailing bytes"   # ``unpack`` only

    def __init_subclass__(cls):
        if "__annotations__" not in cls.__dict__:
            return
        dataclass(frozen=True)(cls)
        names = [f.name for f in fields(cls)]
        cls._schema = tuple(
            (f.name, attrgetter(*names[i:i + codec.arity]), codec,
             f.metadata["refuse"], f.default)
            for i, f in enumerate(fields(cls))
            if (codec := f.metadata.get("codec")))
        cls.LAYOUT = " | ".join(
            c.layout.format(name=name, label=c.label)
            + (f" = {_shown(want)}" if refuse else "")
            for name, _, c, refuse, want in cls._schema)
        sizes = [c.size for _, _, c, _, _ in cls._schema]
        cls.SIZE = None if None in sizes else sum(sizes)
        cls.__doc__ = (f"{inspect.cleandoc(cls.__doc__)}\n\n"
                       f"Layout: {cls.LAYOUT}.")

    def pack(self) -> bytes:
        out: List[bytes] = []
        for name, get, codec, _, _ in self._schema:
            try:
                codec.put(get(self), out)
            except (struct.error, KeyError) as exc:
                raise self.error(f"{type(self).__name__}.{name} does not fit "
                                 f"its field: {exc}") from None
        return b"".join(out)

    @classmethod
    def unpack_from(cls, buf: bytes, off: int = 0):
        """The record at *off* of *buf*, and the offset after it."""
        values = []
        try:
            for _, _, codec, refuse, want in cls._schema:
                value, off = codec.read(buf, off)
                if not refuse:
                    values += value if codec.arity > 1 else (value,)
                elif value != want:
                    raise ValueError(refuse.format(what=cls.what, got=value))
        except struct.error:
            raise cls.error(cls.short.format(what=cls.what)) from None
        except ValueError as exc:
            raise cls.error(str(exc)) from None
        record = cls(*values)
        record._check()
        return record, off

    @classmethod
    def unpack(cls, buf: bytes):
        """The record that is all of *buf*."""
        record, off = cls.unpack_from(buf)
        if off != len(buf):
            raise cls.error(cls.trailing.format(what=cls.what,
                                                n=len(buf) - off))
        return record

    def _check(self) -> None:
        """The record's own invariant beyond its field codecs."""


# ---------------------------------------------------------------------------
# Blob headers
# ---------------------------------------------------------------------------

_WRONG_KIND = "blob is not a {what} (kind {got})"


class _BlobHeader(_Record):
    """What every blob starts with."""

    magic: bytes = _f(_Bytes(size=4), "not a CHOCO {what} blob", default=MAGIC)
    version: int = _f(U8, "unsupported version {got}", default=VERSION)


class _CiphertextHeader(_BlobHeader):
    """A ciphertext blob's header."""

    what = "ciphertext"
    scheme: SchemeType = _f(SCHEME)
    flags: int = _f(U8)
    n_components: int = _f(U8)
    poly_degree: int = _f(U32)
    scale: float = _f(F64)
    moduli: Tuple[int, ...] = _f(_MODULI)

    def _check(self) -> None:
        if not 1 <= self.n_components <= _MAX_COMPONENTS:
            raise ValueError(
                f"implausible component count {self.n_components}")
        if not self.moduli:
            raise ValueError("ciphertext blob declares no moduli")
        seeded = self.flags & _FLAG_SEEDED
        if seeded and self.n_components != 2:
            raise ValueError("seed compression applies only to 2-component "
                             "ciphertexts")
        if seeded and not self.flags & _FLAG_NTT:
            raise ValueError("seeded ciphertext blob without _FLAG_NTT: a "
                             "seed expands to an evaluation-form c1")
        # Decryption divides by the scale (BFV never reads it, CKKS does):
        # NaN, an infinity, zero or a negative value is never one.
        if not 0 < self.scale < math.inf:
            raise ValueError(f"ciphertext scale {self.scale} is not a finite "
                             f"positive number")


class _KeyHeader(_BlobHeader):
    """A key blob's header: a public key's (kind 1), whose two components
    follow."""

    what = "public-key"
    kind: int = _f(U8, _WRONG_KIND, default=KeyKind.PUBLIC)
    poly_degree: int = _f(U32)
    moduli: Tuple[int, ...] = _f(_MODULI)

    def _check(self) -> None:
        if not self.moduli:
            raise ValueError("key blob declares no moduli")


class _RelinHeader(_KeyHeader):
    """A relinearization-key blob's header: one key-switching key follows."""

    what = "relinearization-key"
    kind: int = _f(U8, _WRONG_KIND, default=KeyKind.RELIN)


class _GaloisHeader(_KeyHeader):
    """A Galois-key blob's header: ``n_keys`` entries follow, each an
    element id and its key-switching key, ascending element.  The moduli
    are the full base; a key of ``d`` digits carries rows ``q_0..q_{d-1},
    P`` of it."""

    what = "Galois-key"
    kind: int = _f(U8, _WRONG_KIND, default=KeyKind.GALOIS)
    n_keys: int = _f(U16)

    def _check(self) -> None:
        super()._check()
        if self.n_keys < 1:
            raise ValueError("Galois-key blob declares no keys")


class _KskHeader(_Record):
    """One key-switching key: ``k0`` of every digit follows, each over the
    key's ``n_digits + 1`` rows; the uniform halves expand from the
    seed."""

    what = "key-switching key"
    n_digits: int = _f(U8)
    seed: bytes = _f(_SEED)


class _GaloisEntry(_Record):
    """One key of a Galois set: its element id, then its key."""

    what = "Galois-key"
    elt: int = _f(U32)


class _ParamsSpec(_BlobHeader):
    """A parameter set's spec: everything ``EncryptionParameters.create``
    derives the rest from."""

    what = "parameter"
    magic: bytes = _f(_Bytes(size=4), "not a CHOCO {what} blob (bad magic)",
                      default=b"CHOP")
    scheme: SchemeType = _f(SCHEME)
    poly_degree: int = _f(U32)
    plain_bits: Optional[int] = _f(_OPTIONAL_BITS)
    scale_bits: Optional[int] = _f(_OPTIONAL_BITS)
    logical_coeff_bits: Tuple[int, ...] = _f(_LogicalBits())
    label: str = _f(STR16)


class _Plane(NamedTuple):
    """One byte plane of a residue row: *dtype*-wide values of bits
    ``shift..`` of each residue, from byte ``at * n`` of the row."""

    dtype: np.dtype
    shift: int
    at: int


class _Rows(NamedTuple):
    """How a block of residue rows over some moduli travels.  Each row
    takes its modulus' byte width, ``ceil(bits(q) / 8)``, as planes of
    power-of-two-wide unsigned integers, low byte first (3 bytes: ``u16``
    of the low 16 bits, then ``u8`` of the high 8; 4 bytes: one ``u32``).
    *runs* groups consecutive rows of one width as ``(first row, end row,
    width, byte offset of the first row per coefficient, planes)``; a
    block of ``n`` coefficients is ``row_bytes * n`` bytes."""

    runs: Tuple[Tuple[int, int, int, int, Tuple[_Plane, ...]], ...]
    row_bytes: int


def _widths(moduli: Tuple[int, ...]) -> List[int]:
    """Each row's bytes per residue: its modulus' byte width."""
    return [(q.bit_length() + 7) // 8 for q in moduli]


def _body_bytes(moduli: Tuple[int, ...], degree: int) -> int:
    """Bytes of one block of *degree*-residue rows over *moduli*.  Not
    memoised: it sizes blobs whose moduli are not checked yet, and a
    hostile blob adds no memo entry."""
    return degree * sum(_widths(moduli))


@lru_cache(maxsize=256)
def _rows(moduli: Tuple[int, ...]) -> _Rows:
    """The row-width table of *moduli*, which are checked already
    (memoised: every blob of a session shares a handful of bases)."""
    widths = _widths(moduli)
    runs, start, at = [], 0, 0
    for row in range(1, len(widths) + 1):
        if row < len(widths) and widths[row] == widths[start]:
            continue
        width, planes, low = widths[start], [], 0
        for size in (4, 2, 1):
            if width & size:
                planes.append(_Plane(np.dtype(f"<u{size}"), 8 * low, low))
                low += size
        runs.append((start, row, width, at, tuple(planes)))
        at += (row - start) * width
        start = row
    return _Rows(tuple(runs), at)


def _body(blocks: List[np.ndarray], moduli: Tuple[int, ...]) -> list:
    """The ``(len(moduli), n)`` canonical residue *blocks* (components, or
    digits) as their wire pieces, in order, for the caller's one
    ``b"".join``: block by block, row by row, each row's planes low byte
    first.  Each plane of a run of rows is one truncating cast over every
    block at once (of a ``u32`` copy shifted in place, for rows of
    several planes)."""
    rows, n = _rows(moduli), blocks[0].shape[-1]
    runs = []
    for start, end, _, _, planes in rows.runs:
        part = np.empty((len(blocks), end - start, n),
                        np.uint32 if len(planes) > 1 else planes[0].dtype)
        for copy, block in zip(part, blocks):
            np.copyto(copy, block[start:end], casting="unsafe")
        arrays, shifted = [], 0
        for plane in planes:
            if plane.shift > shifted:
                np.right_shift(part, plane.shift - shifted, out=part)
                shifted = plane.shift
            arrays.append(part.reshape(-1, n) if len(planes) == 1
                          else part.astype(plane.dtype).reshape(-1, n))
        runs.append((end - start, list(zip(*arrays))))
    return [piece for b in range(len(blocks)) for count, run in runs
            for row in run[b * count:(b + 1) * count] for piece in row]


def _checked_rows(blob: bytes, offset: int, base: RnsBase, blocks: int,
                  degree: int, what: str, block: str,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``(blocks, len(base), degree)`` residues of the body at *offset*,
    unpacked into the ``int64`` array *out* (a new one when none) and
    returned once every row's largest residue is below its modulus."""
    rows, n = _rows(base.moduli), degree
    body = np.frombuffer(blob, np.uint8, blocks * rows.row_bytes * n,
                         offset).reshape(blocks, -1)
    if out is None:
        out = np.empty((blocks, len(base), n), dtype=np.int64)
    for start, end, width, at, planes in rows.runs:
        run = body[:, at * n:(at + (end - start) * width) * n].reshape(
            blocks, end - start, width * n)
        top, *lower = [run[:, :, plane.at * n:(plane.at + plane.dtype.itemsize)
                           * n].view(plane.dtype) for plane in planes[::-1]]
        if lower:           # the high plane, shifted up past each lower one
            top = top.astype(np.uint32)
            for plane, view in zip(planes[-2::-1], lower):
                top <<= 8 * plane.dtype.itemsize
                top |= view
        np.copyto(out[:, start:end], top)
    # One max per modulus over every block; the offender is located only
    # on the way out.
    peaks = out.max(axis=(0, 2)).tolist()
    if any(peak >= q for peak, q in zip(peaks, base.moduli)):
        row_peaks = out.max(axis=2)
        at, row = np.argwhere(row_peaks >= base.moduli_col.ravel())[0]
        raise ValueError(
            f"{what} {block} {at} residue {row}: word {row_peaks[at, row]} "
            f"is not below its modulus {base.moduli[row]}")
    return out


@lru_cache(maxsize=256)
def _ciphertext_header(*values) -> bytes:
    """The packed :class:`_CiphertextHeader` of *values*.  Memoised: a
    session's ciphertexts share scheme, flags, degree, moduli and (per
    level) scale, and the header walk would otherwise cost about half of a
    seeded upload's serialization."""
    return _CiphertextHeader(*values).pack()


def _stored(ct: Ciphertext, compress_seed: bool):
    """*ct*'s header bytes, the components its blob stores, and the seed
    that stands in for ``c1`` (``b""`` when the blob is full)."""
    seeded = compress_seed and ct.seed is not None and len(ct.components) == 2
    if seeded and not ct.is_ntt:
        raise ValueError("a seeded ciphertext is in evaluation form: its "
                         "seed expands to c1 there")
    header = _ciphertext_header(
        ct.params.scheme,
        (_FLAG_SEEDED if seeded else 0) | (_FLAG_NTT if ct.is_ntt else 0),
        len(ct.components), ct.params.poly_degree, float(ct.scale),
        ct.level_base.moduli)
    if seeded:
        return header, ct.components[:1], ct.seed
    return header, ct.components, b""


def serialize_ciphertext(ct: Ciphertext, compress_seed: bool = True) -> bytes:
    """Serialize a ciphertext, seed-compressing when possible."""
    header, stored, seed = _stored(ct, compress_seed)
    if seed and len(seed) != SEED_BYTES:
        raise ValueError("seed must be 32 bytes")
    return b"".join([header, seed, *_body([comp.data for comp in stored],
                                          ct.level_base.moduli)])


def serialized_size(ct: Ciphertext, compress_seed: bool = True) -> int:
    """Exact wire size without materializing the residue body."""
    header, stored, seed = _stored(ct, compress_seed)
    return len(header) + len(seed) + len(stored) * _body_bytes(
        ct.level_base.moduli, ct.params.poly_degree)


def deserialize_ciphertext(blob: bytes,
                           params: EncryptionParameters) -> Ciphertext:
    """Reconstruct a ciphertext serialized by :func:`serialize_ciphertext`.

    Validation is strict: the blob's magic, version, scheme, degree,
    component count, scale, moduli (which must be a prefix of the parameter
    set's data base — ciphertexts only shed residues from the top), and its
    exact length are all checked before any array is built, and every
    unpacked residue against its modulus before the components are built.
    """
    header, offset = _CiphertextHeader.unpack_from(blob)
    moduli, degree = header.moduli, header.poly_degree
    if header.scheme is not params.scheme or degree != params.poly_degree:
        raise ValueError("blob does not match the supplied parameters")
    seeded = bool(header.flags & _FLAG_SEEDED)
    stored_count = header.n_components - seeded
    expected = (offset + seeded * SEED_BYTES
                + stored_count * _body_bytes(moduli, degree))
    if len(blob) != expected:
        raise ValueError(
            f"ciphertext blob is {len(blob)} bytes, expected {expected} "
            f"(truncated or trailing bytes)"
        )
    if moduli != params.data_base.moduli[:len(moduli)]:
        raise ValueError("blob moduli do not match the supplied parameters")
    base = RnsBase.of(moduli)

    seed: Optional[bytes] = None
    if seeded:
        seed, offset = _SEED.read(blob, offset)

    is_ntt = bool(header.flags & _FLAG_NTT)
    stored = _checked_rows(blob, offset, base, stored_count, degree,
                           "ciphertext", "component")
    components = [RnsPoly(base, degree, data, is_ntt=is_ntt)
                  for data in stored]
    if seed is not None:
        components.append(expand_uniform_poly(seed, base, degree))
    return Ciphertext(params, components, scale=header.scale, seed=seed)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def _check_key(header: _KeyHeader, blob: bytes,
               params: Optional[EncryptionParameters],
               expected: Optional[int]) -> None:
    """Refuse a key blob that is not over *params*' full base (when given)
    or is not exactly *expected* bytes long (when given)."""
    if params is not None and header.poly_degree != params.poly_degree:
        raise ValueError(f"{header.what} degree does not match the supplied "
                         f"parameters")
    if params is not None and header.moduli != params.full_base.moduli:
        raise ValueError(f"{header.what} moduli do not match the supplied "
                         f"parameters")
    if expected is not None and len(blob) != expected:
        raise ValueError(
            f"{header.what} blob is {len(blob)} bytes, expected {expected} "
            f"(truncated or trailing bytes)")


def serialize_public_key(pk: PublicKey) -> bytes:
    """Serialize a public key (both components over the full base, NTT)."""
    p0, p1 = pk.p0, pk.p1
    return b"".join([_KeyHeader(p0.degree, p0.base.moduli).pack(),
                     *_body([p0.data, p1.data], p0.base.moduli)])


def deserialize_public_key(blob: bytes,
                           params: Optional[EncryptionParameters] = None,
                           ) -> PublicKey:
    """Reconstruct a public key, validating it against *params* if given.

    A public key lives over the full (data + special) base; when *params*
    are supplied the blob's degree and moduli must match them exactly —
    the same contract :func:`deserialize_ciphertext` enforces.
    """
    header, offset = _KeyHeader.unpack_from(blob)
    degree = header.poly_degree
    _check_key(header, blob, params,
               offset + 2 * _body_bytes(header.moduli, degree))
    base = RnsBase.of(header.moduli)
    p0, p1 = (RnsPoly(base, degree, data, is_ntt=True) for data in
              _checked_rows(blob, offset, base, 2, degree, header.what,
                            "component"))
    return PublicKey(p0, p1)


def _ksk_parts(ksk: KeySwitchKey) -> list:
    """The key's wire pieces, each digit's ``k0`` as its own body: the
    caller's single ``join`` sizes the blob, allocates it once and copies
    every ``k0`` straight into its slice."""
    if ksk.seed is None:
        raise ValueError("key-switching key has no seed: only generated or "
                         "deserialized keys can be serialized")
    return [_KskHeader(len(ksk.digits), ksk.seed).pack(),
            *_body([k0.data for k0, _k1 in ksk.digits],
                   ksk.digits[0][0].base.moduli)]


def _ksk_size(params: EncryptionParameters, n_digits: int) -> int:
    """Exact wire size of one *n_digits*-digit key-switching key: ``k0``
    of every digit over rows ``q_0..q_{n_digits-1}, P``."""
    return _KskHeader.SIZE + n_digits * _body_bytes(
        _keys.key_base(params, n_digits).moduli, params.poly_degree)


def _check_digits(header: _KskHeader, params: EncryptionParameters,
                  trimmed: bool) -> None:
    """Refuse a digit count *params* cannot use: anything but one per data
    limb, or (*trimmed*, a Galois key) none or more than that."""
    k = len(params.data_base)
    if header.n_digits != k and not (trimmed and 1 <= header.n_digits < k):
        raise ValueError(
            f"key-switching key has {header.n_digits} digits, parameters "
            f"require {'1..' if trimmed else ''}{k}")


def _check_ksk(blob: bytes, offset: int, params: EncryptionParameters,
               what: str):
    """Unpack and validate the ``k0`` residues of the key at *offset* of a
    blob whose length and digit counts are checked, and return its header
    and key store.

    The store is the stacked cache layout: one contiguous ``(digits, 2,
    rows, n)`` block whose slices back the per-digit RnsPolys as views.
    The key's own-level ``stacked_digits()`` restriction — what every key
    switch at that level (and every hoisted rotation) asks for — is then
    the block itself, so deserialized keys skip the re-layout copy
    entirely.  ``k0`` is unpacked straight into ``store[:, 0]``."""
    header, offset = _KskHeader.unpack_from(blob, offset)
    base = _keys.key_base(params, header.n_digits)
    store = np.empty((header.n_digits, 2, len(base), params.poly_degree),
                     dtype=np.int64)
    _checked_rows(blob, offset, base, header.n_digits, params.poly_degree,
                  what, "digit", store[:, 0])
    return header, store


def _unpack_ksk(header: _KskHeader, store: np.ndarray,
                params: EncryptionParameters,
                cls=KeySwitchKey) -> KeySwitchKey:
    """Build a key from its :func:`_check_ksk`-validated header and store
    (no seed is expanded before that)."""
    n_digits, degree = header.n_digits, params.poly_degree
    base = _keys.key_base(params, n_digits)
    # k1 is regenerated from the seed by the key generator's own expansion
    # (looked up on the module at each call: there is one definition of a
    # key's uniform half), through the key's own digits only and cut to
    # its rows.
    uniform = _keys.expand_keyswitch_uniform(header.seed, params.full_base,
                                             degree, n_digits)
    store[:, 1] = (uniform if n_digits == len(params.data_base)
                   else uniform[:, _keys.key_rows(params, n_digits)])
    digits = [
        (RnsPoly(base, degree, store[d, 0], is_ntt=True),
         RnsPoly(base, degree, store[d, 1], is_ntt=True))
        for d in range(n_digits)
    ]
    ksk = cls(digits, header.seed, params.full_base)
    ksk._stacked[n_digits] = store
    return ksk


def serialize_relin_key(rk: RelinKeys) -> bytes:
    """Serialize a relinearization key (``k0`` of every digit + the seed)."""
    k0 = rk.digits[0][0]
    return b"".join([_RelinHeader(k0.degree, k0.base.moduli).pack(),
                     *_ksk_parts(rk)])


def deserialize_relin_key(blob: bytes,
                          params: EncryptionParameters) -> RelinKeys:
    header, offset = _RelinHeader.unpack_from(blob)
    _check_key(header, blob, params,
               offset + _ksk_size(params, len(params.data_base)))
    _check_digits(_KskHeader.unpack_from(blob, offset)[0], params, False)
    ksk, store = _check_ksk(blob, offset, params, header.what)
    return _unpack_ksk(ksk, store, params, RelinKeys)


def serialize_galois_keys(gk: GaloisKeys) -> bytes:
    """Serialize a Galois key set: ``(galois_elt, key)`` pairs, each key
    at its own level, after a header that carries the full base."""
    if not gk.keys:
        raise ValueError("cannot serialize an empty Galois key set")
    first = next(iter(gk.keys.values()))
    if any(key.full_base != first.full_base for key in gk.keys.values()):
        raise ValueError("Galois keys of one set must share a full base")
    parts = [_GaloisHeader(first.digits[0][0].degree, first.full_base.moduli,
                           len(gk.keys)).pack()]
    for elt in sorted(gk.keys):
        parts += [_GaloisEntry(elt).pack(), *_ksk_parts(gk.keys[elt])]
    return b"".join(parts)


def deserialize_galois_keys(blob: bytes,
                            params: EncryptionParameters) -> GaloisKeys:
    header, offset = _GaloisHeader.unpack_from(blob)
    _check_key(header, blob, params, None)
    # Each key's size follows from its digit count, so one walk over the
    # entry headers finds every key's offset and the blob's exact length;
    # the length, element ids, digit counts and every k0 residue are then
    # checked before the first key is built.
    at, entries = offset, []
    for _ in range(header.n_keys):
        entry, key_at = _GaloisEntry.unpack_from(blob, at)
        ksk, _ = _KskHeader.unpack_from(blob, key_at)
        _check_digits(ksk, params, True)
        entries.append((entry.elt, key_at))
        at = key_at + _ksk_size(params, ksk.n_digits)
    if len(blob) != at:
        raise ValueError(
            f"{header.what} blob is {len(blob)} bytes, its keys' digits "
            f"make {at} (truncated or trailing bytes)")
    checked = {}
    for elt, key_at in entries:
        if elt < 3 or elt >= 2 * header.poly_degree or elt % 2 == 0:
            raise ValueError(f"invalid Galois element {elt}")
        if elt in checked:
            raise ValueError(f"duplicate Galois element {elt}")
        checked[elt] = _check_ksk(blob, key_at, params,
                                  f"{header.what} element {elt}")
    return GaloisKeys({elt: _unpack_ksk(ksk, store, params)
                       for elt, (ksk, store) in checked.items()})


# ---------------------------------------------------------------------------
# Parameter specs (for rebuilding contexts in other processes)
# ---------------------------------------------------------------------------

def serialize_params(params: EncryptionParameters) -> bytes:
    """Serialize the *spec* of a parameter set, not its derived material.

    :meth:`EncryptionParameters.create` derives the plaintext modulus, the
    RNS bases, and the CKKS scale deterministically from the spec, so a
    worker process that re-runs ``create`` on the deserialized spec gets
    bit-identical moduli — the fleet runtime ships this blob instead of
    pickling live parameter objects (or, worse, live contexts).
    """
    return _ParamsSpec(params.scheme, params.poly_degree, params.plain_bits,
                       params.scale_bits, params.logical_coeff_bits,
                       params.label).pack()


def deserialize_params(blob: bytes) -> EncryptionParameters:
    """Rebuild a parameter set from a :func:`serialize_params` spec blob."""
    spec = _ParamsSpec.unpack(blob)
    # enforce_security=False: the derivation is identical either way, and
    # deliberately-small test parameter sets must round-trip too.
    return EncryptionParameters.create(
        spec.scheme, spec.poly_degree, spec.logical_coeff_bits,
        plain_bits=spec.plain_bits, scale_bits=spec.scale_bits,
        label=spec.label, enforce_security=False)
