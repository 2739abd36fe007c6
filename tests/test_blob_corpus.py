"""Every ``hecore.serialize`` blob kind, pinned byte for byte over a fixed
corpus.

``tests/blob_corpus.json`` holds, at small test parameters (N = 16):
ciphertexts of both schemes in coefficient and evaluation form, seeded,
three-component and mod-switched; one public key, one relinearization key,
a two-element Galois set and one whose keys sit at two levels (1 and 2 of
the 2 limbs); a CKKS relinearization key and a CKKS Galois set at two
levels; and parameter specs with and without ``plain_bits`` /
``scale_bits``, with an empty and a non-ASCII label.  The BFV rows are
28-bit limbs and a 30-bit special prime, 4 bytes a residue; the CKKS set's
second limb is 24 bits, 3 bytes a residue, so its ciphertexts and keys mix
3- and 4-byte rows.  It was recorded before the blob headers became
declared records and re-recorded when residues began to travel at their
modulus' byte width (version 5); every entry must decode and re-encode
byte-equal, and the builder below must still produce it (CKKS entries
encrypt zeros, whose encoding is exact, so no floating-point rounding
enters the bytes).

The mutation tests damage every header at its field boundaries:
truncation at every offset, magic / version / kind / scheme codes out of
range, and every count (components, moduli, keys, digits, logical primes,
special primes, label length) moved by one and set to its maximum.  A
damaged blob is either refused with :class:`ValueError` (never
``struct.error``, ``IndexError`` or ``KeyError``) or it decodes to a value
that re-encodes to exactly those bytes, so no damage is silently absorbed.
``_fields`` spells each header out independently of ``serialize.py``, and
``_planes`` each residue body: every blob's planes are walked to its last
byte and read back as the decoded residues, a cut at any plane boundary is
refused, and a version-4 blob of any kind is refused by name.

Re-record (only for a deliberate wire change, which also bumps
``serialize.VERSION``) with ``PYTHONPATH=src python -m
tests.test_blob_corpus``, which rewrites ``tests/blob_corpus.json``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.hecore import context_for
from repro.hecore.keys import RotationSteps
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    deserialize_params,
    deserialize_public_key,
    deserialize_relin_key,
    serialize_ciphertext,
    serialize_galois_keys,
    serialize_params,
    serialize_public_key,
    serialize_relin_key,
)

GOLDEN = Path(__file__).parent / "blob_corpus.json"

PARAMS = {
    "bfv": small_test_parameters(SchemeType.BFV, poly_degree=16,
                                 plain_bits=16, data_bits=(28, 28)),
    "ckks": small_test_parameters(SchemeType.CKKS, poly_degree=16,
                                  data_bits=(30, 24)),
}

#: kind -> (decode(blob, params), encode(value)); params specs ignore the
#: parameter argument.
CODECS = {
    "ciphertext": (deserialize_ciphertext, serialize_ciphertext),
    "public_key": (deserialize_public_key, serialize_public_key),
    "relin_key": (deserialize_relin_key, serialize_relin_key),
    "galois_keys": (deserialize_galois_keys, serialize_galois_keys),
    "params": (lambda blob, _params: deserialize_params(blob),
               serialize_params),
}


def _blobs():
    """name -> blob; the name's first part is its kind, the second the
    scheme of the parameters it decodes under."""
    out = {}
    for scheme, params in PARAMS.items():
        ctx = context_for(params, seed=b"blob-corpus-" + scheme.encode())
        values = (np.arange(8, dtype=np.int64) if scheme == "bfv"
                  else np.zeros(8))
        coefficient = ctx.encrypt(values)
        seeded = ctx.encrypt_symmetric(values)
        product = ctx.multiply(coefficient, coefficient, relinearize=False)
        cts = {
            "coefficient": serialize_ciphertext(coefficient),
            "evaluation": serialize_ciphertext(seeded, compress_seed=False),
            "seeded": serialize_ciphertext(seeded),
            "three_component": serialize_ciphertext(product),
            "mod_switched": serialize_ciphertext(
                ctx.mod_switch_down(coefficient)),
        }
        out.update({f"ciphertext/{scheme}/{form}": blob
                    for form, blob in cts.items()})
        if scheme == "bfv":
            out["public_key/bfv"] = serialize_public_key(
                ctx.keygen.public_key())
            out["relin_key/bfv"] = serialize_relin_key(ctx.relin_keys())
            out["galois_keys/bfv"] = serialize_galois_keys(
                ctx.make_galois_keys([1, 2]))
            # Keys at their programs' levels: step 1 on 1 of the 2 limbs.
            out["galois_keys/bfv/trimmed"] = serialize_galois_keys(
                context_for(params, seed=b"blob-corpus-trimmed")
                .make_galois_keys(RotationSteps({1: 1, 2: 2})))
        else:
            out["relin_key/ckks"] = serialize_relin_key(ctx.relin_keys())
            out["galois_keys/ckks/trimmed"] = serialize_galois_keys(
                ctx.make_galois_keys(RotationSteps({1: 1, 2: 2})))
    # A spec carries only what ``create`` takes, so ``replace`` makes one.
    out["params/bfv/plain_bits"] = serialize_params(PARAMS["bfv"])
    out["params/bfv/both_bits_empty_label"] = serialize_params(
        replace(PARAMS["bfv"], scale_bits=20, label=""))
    out["params/ckks/scale_bits"] = serialize_params(PARAMS["ckks"])
    out["params/ckks/utf8_label"] = serialize_params(
        replace(PARAMS["ckks"], label="параметры ✓ 漢"))
    return out


def _corpus():
    return {name: blob.hex() for name, blob in _blobs().items()}


CORPUS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
NAMES = sorted(CORPUS)


def _case(name):
    kind, scheme = name.split("/")[:2]
    decode, encode = CODECS[kind]
    return kind, bytes.fromhex(CORPUS[name]), (
        lambda blob: decode(blob, PARAMS[scheme])), encode


def test_corpus_covers_every_kind_form_and_option():
    decoded = {}
    for name in NAMES:
        _, blob, decode, _ = _case(name)
        decoded[name] = decode(blob)
    cts = [ct for name, ct in decoded.items()
           if name.startswith("ciphertext/")]
    for scheme in PARAMS.values():
        mine = [ct for ct in cts if ct.params.scheme is scheme.scheme]
        assert {(ct.seed is not None, ct.is_ntt) for ct in mine} == {
            (False, False), (False, True), (True, True)}
        assert {len(ct.components) for ct in mine} == {2, 3}
        assert {len(ct.level_base) for ct in mine} == {
            len(scheme.data_base), len(scheme.data_base) - 1}
    assert len(decoded["galois_keys/bfv"].keys) == 2
    assert sorted(key.limbs for key in
                  decoded["galois_keys/bfv/trimmed"].keys.values()) == [1, 2]
    specs = [p for name, p in decoded.items() if name.startswith("params/")]
    assert {(p.plain_bits is None, p.scale_bits is None) for p in specs} == {
        (False, True), (True, False), (False, False)}
    assert {p.label for p in specs} >= {"", "test", "параметры ✓ 漢"}


@pytest.mark.parametrize("name", NAMES)
def test_corpus_blob_decodes_and_reencodes_byte_equal(name):
    _, blob, decode, encode = _case(name)
    assert encode(decode(blob)) == blob


def test_corpus_regenerates_byte_equal():
    assert _corpus() == CORPUS


# ---------------------------------------------------------------------------
# Field-boundary mutations
# ---------------------------------------------------------------------------

def _fields(kind, blob):
    """The header fields of *blob* that carry a constant, a code or a
    count, as name -> (offset, width), written out independently of the
    codecs: every blob starts ``magic 4 B | version u8``; a ciphertext
    continues ``scheme u8 | flags u8 | n_components u8 | poly_degree u32 |
    scale f64 | n_moduli u8 | u64[n_moduli]``, a key blob ``kind u8 |
    poly_degree u32 | n_moduli u8 | u64[n_moduli]`` (a Galois set then
    ``n_keys u16`` and per key ``elt u32``), every key-switching key starts
    ``n_digits u8 | seed 32 B`` followed by ``n_digits`` blocks of rows
    ``q_0..q_{n_digits-1}, P`` of ``poly_degree`` residues, each row at its
    modulus' byte width (``_widths``), and a parameter spec continues
    ``scheme u8
    | poly_degree u32 | plain_bits i16 | scale_bits i16 | n_logical u8 |
    n_special u8 | u16[n_logical] | label_len u16 | label``."""
    out = {"magic": (0, 4), "version": (4, 1)}
    if kind == "ciphertext":
        return {**out, "scheme": (5, 1), "n_components": (7, 1),
                "n_moduli": (20, 1)}
    if kind == "params":
        return {**out, "scheme": (5, 1), "n_logical": (14, 1),
                "n_special": (15, 1), "n_label": (16 + 2 * blob[14], 2)}
    out.update({"kind": (5, 1), "n_moduli": (10, 1)})
    end = 11 + 8 * blob[10]
    if kind == "relin_key":
        out["n_digits"] = (end, 1)
    if kind == "galois_keys":
        n_keys = int.from_bytes(blob[end:end + 2], "little")
        degree = int.from_bytes(blob[6:10], "little")
        widths = _widths(_moduli(blob, 10))
        out["n_keys"] = (end, 2)
        at = end + 2
        for i in range(n_keys):
            out[f"n_digits_{i}"] = (at + 4, 1)
            digits = blob[at + 4]
            rows = sum(widths[:digits]) + widths[-1]
            at += 4 + 1 + 32 + digits * rows * degree
    return out


def _moduli(blob, at):
    """The ``n u8 | u64[n]`` moduli list at *at*."""
    return [int.from_bytes(blob[at + 1 + 8 * i:at + 9 + 8 * i], "little")
            for i in range(blob[at])]


def _widths(moduli):
    """Each row's bytes per residue: its modulus' byte width."""
    return [(q.bit_length() + 7) // 8 for q in moduli]


#: Values no reader may accept, per field (and each blob gets the other
#: family's magic: ``CHOP`` is a parameter spec's, ``CHOC`` every other's).
OUT_OF_RANGE = {
    "magic": (b"HCOC", b"CHOF", b"\0\0\0\0"),
    "version": (0, 1, 3, 4, 6, 0xFF),
    "scheme": (2, 0xFF),
    "kind": (0, 1, 2, 3, 4, 0xFF),
}
KINDS = {"public_key": 1, "relin_key": 2, "galois_keys": 3}


def _with(blob, offset, width, value):
    out = bytearray(blob)
    out[offset:offset + width] = (value if isinstance(value, bytes)
                                  else value.to_bytes(width, "little"))
    return bytes(out)


def _refused_or_canonical(decode, encode, blob):
    """ValueError, or a decode that re-encodes to exactly *blob*."""
    try:
        value = decode(blob)
    except ValueError:
        return
    assert encode(value) == blob


@pytest.mark.parametrize("name", NAMES)
def test_truncated_or_extended_blob_is_refused(name):
    _, blob, decode, _ = _case(name)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            decode(blob[:cut])
    with pytest.raises(ValueError):
        decode(blob + b"\0")


@pytest.mark.parametrize("name", NAMES)
def test_constants_and_codes_out_of_range_are_refused(name):
    kind, blob, decode, _ = _case(name)
    for field, (offset, width) in _fields(kind, blob).items():
        values = OUT_OF_RANGE.get(field, ())
        if field == "kind":
            values = [code for code in values if code != KINDS[kind]]
        if field == "magic":
            values += (b"CHOC" if kind == "params" else b"CHOP",)
        for value in values:
            with pytest.raises(ValueError):
                decode(_with(blob, offset, width, value))


@pytest.mark.parametrize("name", NAMES)
def test_counts_off_by_one_or_maxed_are_refused_or_canonical(name):
    kind, blob, decode, encode = _case(name)
    counts = {field: at for field, at in _fields(kind, blob).items()
              if field.startswith("n_")}
    assert counts
    for offset, width in counts.values():
        value = int.from_bytes(blob[offset:offset + width], "little")
        top = 2 ** (8 * width) - 1
        for lie in {value - 1, value + 1, top} - {value}:
            if 0 <= lie <= top:
                _refused_or_canonical(decode, encode,
                                      _with(blob, offset, width, lie))


# ---------------------------------------------------------------------------
# Residue bodies: every row at its modulus' byte width, as byte planes
# ---------------------------------------------------------------------------

def _bodies(kind, blob):
    """Every residue body of *blob* as ``(offset, row moduli, blocks,
    degree)``, read off its header fields as ``_fields`` reads them."""
    if kind == "ciphertext":
        moduli, seeded = _moduli(blob, 20), blob[6] & 1
        return [(21 + 8 * len(moduli) + 32 * seeded, moduli,
                 blob[7] - seeded, int.from_bytes(blob[8:12], "little"))]
    moduli, degree = _moduli(blob, 10), int.from_bytes(blob[6:10], "little")
    at = 11 + 8 * len(moduli)
    if kind == "public_key":
        return [(at, moduli, 2, degree)]
    n_keys = 1
    if kind == "galois_keys":
        n_keys, at = int.from_bytes(blob[at:at + 2], "little"), at + 2
    bodies = []
    for _ in range(n_keys):
        at += 4 if kind == "galois_keys" else 0
        digits, at = blob[at], at + 33
        rows = moduli[:digits] + moduli[-1:]
        bodies.append((at, rows, digits, degree))
        at += digits * sum(_widths(rows)) * degree
    return bodies


def _planes(moduli, degree):
    """Every byte plane of one block over *moduli* as ``(offset in the
    block, row, dtype, shift)``, and the block's length: row by row, each
    row's residues as power-of-two-wide planes, low byte first (a 3-byte
    row is a ``u16`` plane, then a ``u8`` one)."""
    planes, at = [], 0
    for row, width in enumerate(_widths(moduli)):
        low = 0
        for size in (4, 2, 1):
            if width & size:
                planes.append((at, row, np.dtype(f"<u{size}"), 8 * low))
                at, low = at + size * degree, low + size
    return planes, at


def _residues(kind, value):
    """The residue blocks a decoded *value* stores, in wire order."""
    if kind == "ciphertext":
        stored = value.components[:len(value.components)
                                   - (value.seed is not None)]
        return [np.stack([c.data for c in stored])]
    if kind == "public_key":
        return [np.stack([value.p0.data, value.p1.data])]
    keys = ([value] if kind == "relin_key"
            else [value.keys[elt] for elt in sorted(value.keys)])
    return [np.stack([k0.data for k0, _k1 in key.digits]) for key in keys]


BODY_NAMES = [name for name in NAMES if not name.startswith("params/")]


def test_the_corpus_has_three_and_four_byte_rows():
    widths = {width for name in BODY_NAMES
              for _, moduli, _, _ in _bodies(name.split("/")[0],
                                             bytes.fromhex(CORPUS[name]))
              for width in _widths(moduli)}
    assert widths == {3, 4}


@pytest.mark.parametrize("name", BODY_NAMES)
def test_residue_planes_hold_the_decoded_residues(name):
    """Walked plane by plane from the header alone, every body reads back
    as the decoded value's residues, and the last one ends the blob."""
    kind, blob, decode, _ = _case(name)
    bodies = _bodies(kind, blob)
    end = 0
    for (at, moduli, blocks, degree), want in zip(
            bodies, _residues(kind, decode(blob)), strict=True):
        planes, block = _planes(moduli, degree)
        got = np.zeros((blocks, len(moduli), degree), dtype=np.int64)
        for b in range(blocks):
            for offset, row, dtype, shift in planes:
                got[b, row] |= np.frombuffer(
                    blob, dtype, degree, at + b * block + offset
                ).astype(np.int64) << shift
        assert np.array_equal(got, want)
        end = at + blocks * block
    assert end == len(blob)


@pytest.mark.parametrize("name", BODY_NAMES)
def test_cut_at_every_plane_boundary_is_refused(name):
    kind, blob, decode, _ = _case(name)
    cuts = set()
    for at, moduli, blocks, degree in _bodies(kind, blob):
        planes, block = _planes(moduli, degree)
        cuts |= {at + b * block + offset + edge
                 for b in range(blocks) for offset, _, dtype, _ in planes
                 for edge in (0, dtype.itemsize * degree)}
    assert max(cuts) == len(blob)
    for cut in sorted(cuts - {len(blob)}):
        with pytest.raises(ValueError):
            decode(blob[:cut])


@pytest.mark.parametrize("name", NAMES)
def test_version_4_blob_of_every_kind_is_refused_by_name(name):
    """Version 4 sent every residue as a ``u32`` word; there is no
    negotiation, so its blobs are refused, whatever their kind."""
    _, blob, decode, _ = _case(name)
    assert blob[4] == 5
    with pytest.raises(ValueError, match="unsupported version 4"):
        decode(_with(blob, 4, 1, 4))


if __name__ == "__main__":
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(blob)}"
        for name, blob in sorted(_corpus().items())) + "\n}\n")
