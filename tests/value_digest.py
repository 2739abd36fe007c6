"""SHA-256 of HE values themselves, not of their wire blobs.

A test that pins a *computed* value (a served result, a key set) hashes it
here, so a change of the wire format moves no digest: only a changed
residue, seed, scale, form or modulus does.  The wire format is pinned
where it belongs, by ``tests/blob_corpus.json`` and the size tests.

A ciphertext contributes its scheme, form (evaluation or coefficient),
scale, seed (empty when it has none), and per component its moduli and
``int64`` residues.  A key-switching key contributes its seed and every
digit's ``k0`` moduli and residues (its uniform halves expand from the
seed); a Galois set each element id, ascending, then its key.
"""

import hashlib
import struct

import numpy as np

from repro.hecore.ciphertext import Ciphertext
from repro.hecore.keys import GaloisKeys, KeySwitchKey


def _rows(h, poly) -> None:
    moduli = poly.base.moduli
    h.update(struct.pack(f"<B{len(moduli)}Q", len(moduli), *moduli))
    h.update(np.ascontiguousarray(poly.data, dtype="<i8").tobytes())


def _feed(h, value) -> None:
    if isinstance(value, Ciphertext):
        h.update(struct.pack("<8s?dB", value.params.scheme.name.encode(),
                             value.is_ntt, float(value.scale),
                             len(value.components)))
        h.update(value.seed or b"")
        for component in value.components:
            _rows(h, component)
    elif isinstance(value, KeySwitchKey):
        h.update(struct.pack("<B", len(value.digits)) + value.seed)
        for k0, _k1 in value.digits:
            _rows(h, k0)
    elif isinstance(value, GaloisKeys):
        h.update(struct.pack("<H", len(value.keys)))
        for elt in sorted(value.keys):
            h.update(struct.pack("<I", elt))
            _feed(h, value.keys[elt])
    else:
        raise TypeError(f"no value digest for {type(value).__name__}")


def value_digest(*values) -> str:
    """The hex SHA-256 of *values* (ciphertexts, key-switching keys and
    Galois sets, in order)."""
    h = hashlib.sha256()
    for value in values:
        _feed(h, value)
    return h.hexdigest()
