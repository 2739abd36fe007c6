"""Binary serialization for ciphertexts, public keys, and evaluation keys.

The paper's communication costs are serialized-ciphertext bytes; this module
provides the actual wire format so byte counts are measurable, not just
modeled.  Two ciphertext representations exist:

* **full** — every polynomial component, one 4-byte word per (residue,
  coefficient);
* **seed-compressed** — for fresh symmetric ciphertexts, only ``c0`` plus
  the 32-byte seed of the uniform component (the receiver regenerates
  ``c1`` with :func:`repro.hecore.keys.expand_uniform_poly`, the same
  expansion evaluation keys use), halving upload sizes.  Always in
  evaluation form, the form the seed expands to.

Every residue body travels as a little-endian ``u32`` word (``_WORD``).
The word is derived, not chosen: every modulus is below
``2**modmath.MAX_MODULUS_BITS`` (30), so a canonical residue fits 32 bits,
and the module refuses to import if the limb width ever outgrows the word.
Moduli themselves stay ``u64`` header entries.

Ciphertext format (little-endian):

    magic "CHOC" | version u8 | scheme u8 | flags u8 | n_components u8
    poly_degree u32 | scale f64 | n_moduli u8 | moduli u64[n]
    [seed: 32 bytes, if flag SEEDED]
    component data: u32[n_moduli * poly_degree] per stored component

Evaluation keys (relinearization and Galois) are always seed-compressed:
a key-switching key is ``L`` digit pairs ``(k0, k1 = a_i)`` over the
data+special base whose uniform halves all expand from one public seed
(:func:`repro.hecore.keys.expand_keyswitch_uniform`), so only ``k0``
travels.  There is no "full" key format.  Key blob format (little-endian):

    magic "CHOC" | version u8 | kind u8 | poly_degree u32 | n_moduli u8
    moduli u64[n_moduli]
    public:  p0 u32[n_moduli * degree] | p1 u32[n_moduli * degree]
    relin:   key
    Galois:  n_keys u16 | (galois_elt u32 | key) * n_keys, ascending elt
    key:     n_digits u8 | seed 32 B | k0 u32[n_digits * n_moduli * degree]

A real offload server needs them on the wire once per key lifetime (the
offline phase of ``docs/PROTOCOL.md``).  Public keys (kind 1) ship both
components.

``VERSION`` is one constant for every blob kind.  Version 2 introduced the
seeded key layout; version 3 redefined a ciphertext seed's expansion as the
evaluation-form ``c1`` (a SEEDED blob always carries NTT too); version 4
narrowed every residue word from ``int64`` to ``u32``.  There is no
negotiation: an older blob of any kind is refused with ``unsupported
version N``.

Every deserializer validates magic, version, declared counts, and the exact
blob length *before* touching numpy or expanding a seed, and — when
parameters are supplied — checks the declared moduli against them.  It then
checks every residue row against its modulus (one max reduction) before
widening the words into the ``int64`` arrays the arithmetic uses: the lazy
and Shoup kernels assume canonical inputs, so a word at or above its
modulus is refused by name, not computed with.  Malformed input raises
:class:`ValueError`; it never crashes in low-level array code.
"""

from __future__ import annotations

import struct
from typing import Optional

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
from repro.hecore.modmath import MAX_MODULUS_BITS
from repro.hecore.params import EncryptionParameters, SchemeType
from repro.hecore.polyring import RnsPoly
from repro.hecore.rns import RnsBase

MAGIC = b"CHOC"
VERSION = 4

#: The one wire word for a residue, following the one limb width: a
#: canonical residue is below ``2**MAX_MODULUS_BITS``, so it fits 32 bits.
if MAX_MODULUS_BITS >= 32:
    raise ImportError(f"{MAX_MODULUS_BITS}-bit residues do not fit the "
                      f"4-byte wire word")
_WORD = np.dtype("<u4")

_FLAG_SEEDED = 1
_FLAG_NTT = 2

_SCHEME_CODES = {SchemeType.BFV: 0, SchemeType.CKKS: 1}
_SCHEME_FROM_CODE = {v: k for k, v in _SCHEME_CODES.items()}

_HEADER = struct.Struct("<4sBBBBIdB")

#: Ciphertexts carry at most three components (pre-relinearization product).
_MAX_COMPONENTS = 3

# Key blobs: magic, version, kind, poly_degree, n_moduli.
_KEY_HEADER = struct.Struct("<4sBBIB")
_KIND_PUBLIC = 1
_KIND_RELIN = 2
_KIND_GALOIS = 3


def _words(data: np.ndarray) -> memoryview:
    """A residue array as its wire words, ready for ``b"".join``."""
    return data.astype(_WORD).data


def _checked_words(blob: bytes, offset: int, base: RnsBase, blocks: int,
                   degree: int, what: str, block: str) -> np.ndarray:
    """The ``(blocks, len(base), degree)`` residue words at *offset*, once
    every row's largest word is below its modulus; callers widen them to
    ``int64`` only after this returns."""
    words = np.frombuffer(blob, dtype=_WORD, count=blocks * len(base) * degree,
                          offset=offset).reshape(blocks, len(base), degree)
    # One max per modulus over every block; the offender is located only
    # on the way out.
    peaks = words.max(axis=(0, 2)).tolist()
    if any(peak >= q for peak, q in zip(peaks, base.moduli)):
        row_peaks = words.max(axis=2)
        at, row = np.argwhere(row_peaks >= base.moduli_col.ravel())[0]
        raise ValueError(
            f"{what} {block} {at} residue {row}: word {row_peaks[at, row]} "
            f"is not below its modulus {base.moduli[row]}")
    return words


def serialize_ciphertext(ct: Ciphertext, compress_seed: bool = True) -> bytes:
    """Serialize a ciphertext, seed-compressing when possible."""
    seeded = compress_seed and ct.seed is not None and len(ct.components) == 2
    if seeded and not ct.is_ntt:
        raise ValueError("a seeded ciphertext is in evaluation form: its "
                         "seed expands to c1 there")
    flags = (_FLAG_SEEDED if seeded else 0) | (_FLAG_NTT if ct.is_ntt else 0)
    moduli = ct.level_base.moduli
    parts = [_HEADER.pack(
        MAGIC, VERSION, _SCHEME_CODES[ct.params.scheme], flags,
        len(ct.components), ct.params.poly_degree, float(ct.scale),
        len(moduli),
    )]
    parts.append(struct.pack(f"<{len(moduli)}Q", *moduli))
    if seeded:
        if len(ct.seed) != 32:
            raise ValueError("seed must be 32 bytes")
        parts.append(ct.seed)
        stored = ct.components[:1]
    else:
        stored = ct.components
    parts.extend(_words(comp.data) for comp in stored)
    return b"".join(parts)


def deserialize_ciphertext(blob: bytes,
                           params: EncryptionParameters) -> Ciphertext:
    """Reconstruct a ciphertext serialized by :func:`serialize_ciphertext`.

    Validation is strict: the blob's magic, version, scheme, degree,
    component count, moduli (which must be a prefix of the parameter set's
    data base — ciphertexts only shed residues from the top), and its exact
    length are all checked before any array is built, and every residue
    word against its modulus before the components are widened.
    """
    if len(blob) < _HEADER.size:
        raise ValueError("ciphertext blob shorter than its header")
    magic, version, scheme_code, flags, n_components, degree, scale, n_moduli = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise ValueError("not a CHOCO ciphertext blob")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    scheme = _SCHEME_FROM_CODE.get(scheme_code)
    if scheme is None:
        raise ValueError(f"unknown scheme code {scheme_code}")
    if scheme is not params.scheme or degree != params.poly_degree:
        raise ValueError("blob does not match the supplied parameters")
    if not 1 <= n_components <= _MAX_COMPONENTS:
        raise ValueError(f"implausible component count {n_components}")
    data_moduli = params.data_base.moduli
    if not 1 <= n_moduli <= len(data_moduli):
        raise ValueError(f"implausible modulus count {n_moduli}")

    seeded = bool(flags & _FLAG_SEEDED)
    if seeded and n_components != 2:
        raise ValueError("seed compression applies only to 2-component "
                         "ciphertexts")
    if seeded and not flags & _FLAG_NTT:
        raise ValueError("seeded ciphertext blob without _FLAG_NTT: a seed "
                         "expands to an evaluation-form c1")
    stored_count = n_components - 1 if seeded else n_components

    offset = _HEADER.size
    expected = (offset + 8 * n_moduli + (32 if seeded else 0)
                + stored_count * _WORD.itemsize * n_moduli * degree)
    if len(blob) != expected:
        raise ValueError(
            f"ciphertext blob is {len(blob)} bytes, expected {expected} "
            f"(truncated or trailing bytes)"
        )
    moduli = struct.unpack_from(f"<{n_moduli}Q", blob, offset)
    offset += 8 * n_moduli
    if moduli != data_moduli[:n_moduli]:
        raise ValueError("blob moduli do not match the supplied parameters")
    base = RnsBase.of(moduli)

    seed: Optional[bytes] = None
    if seeded:
        seed = blob[offset: offset + 32]
        offset += 32

    is_ntt = bool(flags & _FLAG_NTT)
    wide = _checked_words(blob, offset, base, stored_count, degree,
                          "ciphertext", "component").astype(np.int64)
    components = [RnsPoly(base, degree, data, is_ntt=is_ntt) for data in wide]
    if seed is not None:
        components.append(expand_uniform_poly(seed, base, degree))
    return Ciphertext(params, components, scale=scale, seed=seed)


# ---------------------------------------------------------------------------
# Public keys
# ---------------------------------------------------------------------------

def serialize_public_key(pk: PublicKey) -> bytes:
    """Serialize a public key (both components over the full base, NTT)."""
    p0, p1 = pk.p0, pk.p1
    moduli = p0.base.moduli
    parts = [_KEY_HEADER.pack(MAGIC, VERSION, _KIND_PUBLIC, p0.degree,
                              len(moduli))]
    parts.append(struct.pack(f"<{len(moduli)}Q", *moduli))
    parts.append(_words(p0.data))
    parts.append(_words(p1.data))
    return b"".join(parts)


def _read_key_header(blob: bytes, kind: int, what: str):
    """Validate a key blob's fixed header; returns (degree, n_moduli)."""
    if len(blob) < _KEY_HEADER.size:
        raise ValueError(f"{what} blob shorter than its header")
    magic, version, blob_kind, degree, n_moduli = _KEY_HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"not a CHOCO {what} blob")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    if blob_kind != kind:
        raise ValueError(f"blob is not a {what} (kind {blob_kind})")
    if n_moduli < 1:
        raise ValueError("key blob declares no moduli")
    return degree, n_moduli


def _read_moduli(blob: bytes, offset: int, n_moduli: int):
    if offset + 8 * n_moduli > len(blob):
        raise ValueError("key blob truncated inside its modulus list")
    moduli = struct.unpack_from(f"<{n_moduli}Q", blob, offset)
    return moduli, offset + 8 * n_moduli


def deserialize_public_key(blob: bytes,
                           params: Optional[EncryptionParameters] = None,
                           ) -> PublicKey:
    """Reconstruct a public key, validating it against *params* if given.

    A public key lives over the full (data + special) base; when *params*
    are supplied the blob's degree and moduli must match them exactly —
    the same contract :func:`deserialize_ciphertext` enforces.
    """
    degree, n_moduli = _read_key_header(blob, _KIND_PUBLIC, "public-key")
    moduli, offset = _read_moduli(blob, _KEY_HEADER.size, n_moduli)
    if params is not None:
        if degree != params.poly_degree:
            raise ValueError("public-key degree does not match the supplied "
                             "parameters")
        if moduli != params.full_base.moduli:
            raise ValueError("public-key moduli do not match the supplied "
                             "parameters")
    if len(blob) != offset + 2 * _WORD.itemsize * n_moduli * degree:
        raise ValueError("public-key blob has a truncated or oversized body")
    base = RnsBase.of(moduli)
    p0, p1 = (RnsPoly(base, degree, data, is_ntt=True) for data in
              _checked_words(blob, offset, base, 2, degree, "public-key",
                             "component").astype(np.int64))
    return PublicKey(p0, p1)


# ---------------------------------------------------------------------------
# Evaluation keys (relinearization / Galois)
# ---------------------------------------------------------------------------

_KSK_HEADER = struct.Struct(f"<B{SEED_BYTES}s")        # n_digits, seed


def _ksk_parts(ksk: KeySwitchKey) -> list:
    """The key's wire pieces, each digit's ``k0`` as its own array of
    words: the caller's single ``join`` sizes the blob, allocates it once
    and copies every ``k0`` straight into its slice."""
    if ksk.seed is None:
        raise ValueError("key-switching key has no seed: only generated or "
                         "deserialized keys can be serialized")
    return [_KSK_HEADER.pack(len(ksk.digits), ksk.seed),
            *(_words(k0.data) for k0, _k1 in ksk.digits)]


def _ksk_size(params: EncryptionParameters) -> int:
    """Exact wire size of one key-switching key under *params*."""
    return _KSK_HEADER.size + _WORD.itemsize * (len(params.data_base)
                                                * len(params.full_base)
                                                * params.poly_degree)


def _check_ksk(blob: bytes, offset: int, params: EncryptionParameters,
               what: str) -> np.ndarray:
    """Validate the key at *offset* of a blob of checked length — its digit
    count, then every ``k0`` residue — and return its ``k0`` words."""
    (n_digits,) = struct.unpack_from("<B", blob, offset)
    if n_digits != len(params.data_base):
        raise ValueError(
            f"key-switching key has {n_digits} digits, parameters require "
            f"{len(params.data_base)}"
        )
    return _checked_words(blob, offset + _KSK_HEADER.size, params.full_base,
                          n_digits, params.poly_degree, what, "digit")


def _unpack_ksk(blob: bytes, offset: int, words: np.ndarray,
                params: EncryptionParameters,
                cls=KeySwitchKey) -> KeySwitchKey:
    """Build the key at *offset* from its :func:`_check_ksk`-validated
    ``k0`` *words* (nothing is allocated or expanded before that)."""
    base, degree = params.full_base, params.poly_degree
    n_digits, seed = _KSK_HEADER.unpack_from(blob, offset)
    n_moduli = len(base)
    # Deserialize straight into the stacked cache layout: one contiguous
    # (digits, 2, k, n) block whose slices back the per-digit RnsPolys as
    # views.  The full-level stacked_digits() restriction — what every key
    # switch at the top level (and every hoisted rotation) asks for — is
    # then the block itself, so deserialized keys skip the re-layout copy
    # entirely.  k0 is widened off the wire; k1 is regenerated from the seed
    # by the key generator's own expansion (looked up on the module at each
    # call: there is one definition of a key's uniform half).
    store = np.empty((n_digits, 2, n_moduli, degree), dtype=np.int64)
    store[:, 0] = words
    store[:, 1] = _keys.expand_keyswitch_uniform(seed, base, degree, n_digits)
    digits = [
        (RnsPoly(base, degree, store[d, 0], is_ntt=True),
         RnsPoly(base, degree, store[d, 1], is_ntt=True))
        for d in range(n_digits)
    ]
    ksk = cls(digits, seed)
    ksk._stacked[(tuple(range(n_moduli)), n_digits)] = store
    return ksk


def _key_preamble(kind: int, params_like: RnsPoly) -> "list[bytes]":
    moduli = params_like.base.moduli
    return [
        _KEY_HEADER.pack(MAGIC, VERSION, kind, params_like.degree, len(moduli)),
        struct.pack(f"<{len(moduli)}Q", *moduli),
    ]


def serialize_relin_key(rk: RelinKeys) -> bytes:
    """Serialize a relinearization key (``k0`` of every digit + the seed)."""
    return b"".join(_key_preamble(_KIND_RELIN, rk.digits[0][0])
                    + _ksk_parts(rk))


def _validate_key_base(moduli, degree: int, params: EncryptionParameters,
                       what: str) -> None:
    if degree != params.poly_degree:
        raise ValueError(f"{what} degree does not match the supplied "
                         f"parameters")
    if moduli != params.full_base.moduli:
        raise ValueError(f"{what} moduli do not match the supplied parameters")


def _check_key_length(blob: bytes, expected: int, what: str) -> None:
    if len(blob) != expected:
        raise ValueError(
            f"{what} blob is {len(blob)} bytes, expected {expected} "
            f"(truncated or trailing bytes)"
        )


def deserialize_relin_key(blob: bytes,
                          params: EncryptionParameters) -> RelinKeys:
    what = "relinearization-key"
    degree, n_moduli = _read_key_header(blob, _KIND_RELIN, what)
    moduli, offset = _read_moduli(blob, _KEY_HEADER.size, n_moduli)
    _validate_key_base(moduli, degree, params, what)
    _check_key_length(blob, offset + _ksk_size(params), what)
    words = _check_ksk(blob, offset, params, what)
    return _unpack_ksk(blob, offset, words, params, RelinKeys)


def serialize_galois_keys(gk: GaloisKeys) -> bytes:
    """Serialize a Galois key set: ``(galois_elt, key)`` pairs."""
    if not gk.keys:
        raise ValueError("cannot serialize an empty Galois key set")
    sample = next(iter(gk.keys.values())).digits[0][0]
    parts = _key_preamble(_KIND_GALOIS, sample)
    parts.append(struct.pack("<H", len(gk.keys)))
    for elt in sorted(gk.keys):
        parts.append(struct.pack("<I", elt))
        parts.extend(_ksk_parts(gk.keys[elt]))
    return b"".join(parts)


def deserialize_galois_keys(blob: bytes,
                            params: EncryptionParameters) -> GaloisKeys:
    what = "Galois-key"
    degree, n_moduli = _read_key_header(blob, _KIND_GALOIS, what)
    moduli, offset = _read_moduli(blob, _KEY_HEADER.size, n_moduli)
    _validate_key_base(moduli, degree, params, what)
    if offset + 2 > len(blob):
        raise ValueError("Galois-key blob truncated before its key count")
    (n_keys,) = struct.unpack_from("<H", blob, offset)
    offset += 2
    if n_keys < 1:
        raise ValueError("Galois-key blob declares no keys")
    # Every key has the same size under *params*, so the whole blob —
    # length, element ids, digit counts, every k0 residue — is checked at
    # fixed strides before the first key is built.
    stride = 4 + _ksk_size(params)
    _check_key_length(blob, offset + n_keys * stride, what)
    checked = {}
    for at in range(offset, len(blob), stride):
        (elt,) = struct.unpack_from("<I", blob, at)
        if elt < 3 or elt >= 2 * degree or elt % 2 == 0:
            raise ValueError(f"invalid Galois element {elt}")
        if elt in checked:
            raise ValueError(f"duplicate Galois element {elt}")
        checked[elt] = (at + 4, _check_ksk(blob, at + 4, params,
                                           f"{what} element {elt}"))
    return GaloisKeys({elt: _unpack_ksk(blob, at, words, params)
                       for elt, (at, words) in checked.items()})


# ---------------------------------------------------------------------------
# Parameter specs (for rebuilding contexts in other processes)
# ---------------------------------------------------------------------------

#: Parameter-spec blobs: magic, version, scheme, poly_degree, plain_bits
#: (-1 when absent), scale_bits (-1 when absent), n_logical, n_special
#: (always 1: ``create`` derives the one special prime).
_PARAMS_MAGIC = b"CHOP"
_PARAMS_HEADER = struct.Struct("<4sBBIhhBB")


def serialize_params(params: EncryptionParameters) -> bytes:
    """Serialize the *spec* of a parameter set, not its derived material.

    :meth:`EncryptionParameters.create` derives the plaintext modulus, the
    RNS bases, and the CKKS scale deterministically from the spec, so a
    worker process that re-runs ``create`` on the deserialized spec gets
    bit-identical moduli — the fleet runtime ships this blob instead of
    pickling live parameter objects (or, worse, live contexts).
    """
    label = params.label.encode("utf-8")
    if len(label) > 0xFFFF:
        raise ValueError("parameter label exceeds 64 KiB")
    logical = params.logical_coeff_bits
    if len(logical) > 0xFF:
        raise ValueError("too many logical moduli to serialize")
    parts = [_PARAMS_HEADER.pack(
        _PARAMS_MAGIC, VERSION, _SCHEME_CODES[params.scheme],
        params.poly_degree,
        -1 if params.plain_bits is None else params.plain_bits,
        -1 if params.scale_bits is None else params.scale_bits,
        len(logical), 1,
    )]
    parts.append(struct.pack(f"<{len(logical)}H", *logical))
    parts.append(struct.pack("<H", len(label)))
    parts.append(label)
    return b"".join(parts)


def deserialize_params(blob: bytes) -> EncryptionParameters:
    """Rebuild a parameter set from a :func:`serialize_params` spec blob."""
    if len(blob) < _PARAMS_HEADER.size:
        raise ValueError("parameter blob shorter than its header")
    (magic, version, scheme_code, poly_degree, plain_bits, scale_bits,
     n_logical, n_special) = _PARAMS_HEADER.unpack_from(blob)
    if magic != _PARAMS_MAGIC:
        raise ValueError("not a CHOCO parameter blob (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported parameter blob version {version}")
    scheme = _SCHEME_FROM_CODE.get(scheme_code)
    if scheme is None:
        raise ValueError(f"unknown scheme code {scheme_code}")
    if n_special != 1:
        raise ValueError(f"parameter blob declares {n_special} special primes; "
                         f"key switching uses exactly one")
    offset = _PARAMS_HEADER.size
    need = 2 * n_logical + 2
    if len(blob) < offset + need:
        raise ValueError("parameter blob truncated")
    logical = struct.unpack_from(f"<{n_logical}H", blob, offset)
    offset += 2 * n_logical
    (label_len,) = struct.unpack_from("<H", blob, offset)
    offset += 2
    if len(blob) != offset + label_len:
        raise ValueError("parameter blob length mismatch")
    try:
        label = blob[offset:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError("invalid UTF-8 in parameter label") from exc
    # enforce_security=False: the derivation is identical either way, and
    # deliberately-small test parameter sets must round-trip too.
    return EncryptionParameters.create(
        scheme, poly_degree, logical,
        plain_bits=None if plain_bits < 0 else plain_bits,
        scale_bits=None if scale_bits < 0 else scale_bits,
        label=label, enforce_security=False)


# ---------------------------------------------------------------------------
# Size accounting
# ---------------------------------------------------------------------------

def serialized_size(ct: Ciphertext, compress_seed: bool = True) -> int:
    """Exact wire size without materializing the blob."""
    seeded = compress_seed and ct.seed is not None and len(ct.components) == 2
    n_moduli = len(ct.level_base)
    header = _HEADER.size + 8 * n_moduli + (32 if seeded else 0)
    stored = 1 if seeded else len(ct.components)
    return header + stored * _WORD.itemsize * n_moduli * ct.params.poly_degree
