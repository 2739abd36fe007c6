"""Ablation — the key-switching modulus, per named parameter set.

This repository substitutes SEAL's single ~60-bit key-switching prime with
ONE word-sized special prime ``P``, derived by ``EncryptionParameters.create``
as the largest 30-bit NTT prime for ``N`` — above every data prime, so a
digit divided by ``P`` is below one (DESIGN.md).  There is no count to
choose; what varies across sets is what the rule's inputs (``N`` and the data
modulus) make of it.  Per set this records the key shape (digits x residue
rows), one Galois key's wire bytes, and the budget 24 chained rotations burn
(BFV; CKKS reports its absolute error instead), and asserts every set still
decrypts.
"""

import numpy as np
import pytest

from _report import format_table, write_report
from conftest import run_once

from repro.hecore import context_for
from repro.hecore.keys import GaloisKeys, galois_element_for_step
from repro.hecore.params import (
    PARAMETER_SET_A,
    PARAMETER_SET_B,
    PARAMETER_SET_C,
    SchemeType,
    seal_default_parameters,
)
from repro.hecore.serialize import serialize_galois_keys


ROTATIONS = 24

SETS = (PARAMETER_SET_A, PARAMETER_SET_B, PARAMETER_SET_C,
        seal_default_parameters(8192), seal_default_parameters(16384))


def _keyswitch_row(params) -> tuple:
    ctx = context_for(params, seed=77)
    gk = ctx.make_galois_keys([1])
    elt = galois_element_for_step(1, params.poly_degree)
    key_bytes = len(serialize_galois_keys(GaloisKeys({elt: gk.keys[elt]})))
    # Encrypt zero so the fresh noise is pure sampling error and the
    # key-switch contribution of each rotation is visible.
    ct = ctx.encrypt([0] * 8)
    bfv = params.scheme is SchemeType.BFV
    before = ctx.noise_budget(ct) if bfv else None
    for _ in range(ROTATIONS):
        ct = ctx.rotate(ct, 1)
    out = np.asarray(ctx.decrypt(ct))
    if bfv:
        after = ctx.noise_budget(ct)
        burned, decrypts = before - after, bool(np.all(out == 0))
    else:
        error = float(np.max(np.abs(out)))
        burned, decrypts = f"max |err| {error:.1e}", error < 1e-2
    shape = f"{len(params.data_base)} x {len(params.full_base)}"
    return params.label, shape, key_bytes, burned, decrypts


def test_ablation_keyswitch_modulus(benchmark):
    rows = run_once(benchmark, lambda: [_keyswitch_row(p) for p in SETS])
    write_report("ablation_keyswitch", format_table(
        ["Set", "Digits x rows", "Galois key (B)",
         f"Bits burned over {ROTATIONS} rotations", "Decrypts"], rows))

    assert all(row[-1] for row in rows)
    # P above every digit keeps a rotation's key-switch noise "small"
    # (Table 1) at every BFV set, SEAL-16384 included: at most a third of a
    # bit per rotation.
    assert all(row[3] <= ROTATIONS // 3 for row in rows
               if isinstance(row[3], int))
