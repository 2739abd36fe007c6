"""Batched client-crypto throughput: stacked kernels vs looped single-shot.

Engineering telemetry for the batched client-crypto engine
(:class:`repro.hecore.rlwe.RlweContext`'s ``encrypt_many`` /
``encrypt_symmetric_many`` / ``decrypt_many``): M ciphertexts share one
``(M, N)`` sampler draw, one stacked NTT over the ``(M*k, N)`` residue
block, and one vectorized RNS scale-and-round, instead of M independent
passes.  Two BFV kernels, each at N=2048 and N=4096:

* ``encrypt`` — ``encrypt_many`` of M=16 packed vectors vs a loop of the
  per-ciphertext ``RnsPoly`` composition of public-key encryption
  (``tests/oracles.py``'s ``encrypt``; pre-encoded plaintexts);
* ``decrypt`` — ``decrypt_many`` (vectorized CRT scaling with float
  correction) vs a loop of the exact big-integer decrypt path it replaced
  (``compose`` + per-coefficient ``scale_and_round``).  The N=4096 context
  uses three 30-bit data limbs so the baseline pays the real multi-limb
  big-integer cost.

and the call the served client actually makes — raw slot vectors in,
seed-compressed evaluation-form ciphertexts out — CKKS, N=4096, three
30-bit limbs:

* ``ckks_encode`` — one ``CkksEncoder.encode`` against the same embedding
  rounded by the exact Python-integer fallback the encoder keeps for
  coefficients of 2**62 and beyond (the per-coefficient loop every encode
  used to run);
* ``ckks_symmetric`` — ``encrypt_symmetric_many`` of M=16 raw vectors vs
  a loop of the per-ciphertext ``RnsPoly`` composition
  (``tests/oracles.py``'s ``encrypt_symmetric``), encode included on both
  sides.

A single-shot ``encrypt`` is the one-row case of the batch kernel, so the
looped side of those rows is the reference composition the batch kernels
replaced, not the context's own one-shot call.

The record's header also prices one ``ckks_symmetric`` ciphertext in units
of one ``NttStackPlan.forward`` residue row (``ntt_rows_per_symmetric_ct``;
three of them are the transform itself), so this layer reconciles with
``bench_he_throughput``'s ``ntt_forward``.

The header's ``keygen_ms_per_key`` is the layer bench under the cold
client's largest cost: milliseconds per Galois key-switch key at Table-3
set B when ``KEYGEN_KEYS`` are made in one call, as a session makes its
set.  A key is its seed's expansion into three four-limb uniform digits,
three error rows drawn with the rest of the call's and sent through the
small-input transform (``NttStackPlan.forward_small``: no lift, one
full-width first-stage matmul), one dyadic product and a subtraction over
the digit block; no full-width forward row.  ``keygen_ntt_share`` is the
share of that time spent inside ``NttStackPlan`` transforms, so a cheaper
transform lowers both numbers (a count of forward-row times per key would
rise instead).  A cold ``dnn_cold_sessions`` query pays it 17 times plus
one relinearisation key; it has no second implementation to race, so it
is recorded, not gated.

Every kernel asserts equality between its two implementations before
timing anything (values for the BFV pairs, bits for the CKKS ones).
``--check`` exits non-zero when a batched kernel falls below its minimum
required speedup or regresses more than 20% against the committed record,
``benchmarks/results/BENCH_client_crypto.json``, which only ``--record``
rewrites.
"""

import argparse
import sys
import time
import timeit
from pathlib import Path

import numpy as np

from _gate import best_of_pair, record_options, run_speedup_gate
from repro.hecore import ckks, ntt
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.hecore.random import BlakePrng

# The looped sides time the per-ciphertext reference compositions, which
# are test code.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests import oracles  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_client_crypto.json"

#: The N=4096 decrypt floor (three data limbs, bigint baseline) is the hard
#: criterion.  The batching issue set it to 3x on the host it was written
#: on; on the 2-vCPU reference host the same code reads 2.58–2.76x (ten
#: runs, see ``benchmarks/results/README.md``), so the floor is two thirds
#: of the lowest of those.  The N=2048 decrypt floor is lower because its
#: two-limb modulus keeps even the baseline compose vectorized; the encrypt
#: floors only guard against the batch path degrading below looped speed —
#: encrypt is NTT-bound, so batching buys amortized Python/sampling
#: overhead, not kernel time.
#: ``ckks_symmetric`` guards like the BFV encrypt rows (ten runs read
#: 1.15-1.25x); the ``ckks_encode`` floor is two thirds of the lowest of ten
#: runs, 26.3-28.4x (``benchmarks/results/README.md``).
MIN_SPEEDUP = {
    "encrypt_n2048": 0.9,
    "encrypt_n4096": 0.9,
    "decrypt_n2048": 1.8,
    "decrypt_n4096": 1.7,
    "ckks_encode": 17.0,
    "ckks_symmetric": 0.9,
}

BATCH = 16


def _make_context(degree):
    # N=4096 runs three data limbs (q ~ 90 bits): past the 62-bit envelope
    # of the vectorized int64 compose, so the looped baseline pays the
    # genuine per-coefficient big-integer CRT the RNS path replaces — the
    # regime the N=4096 floor is calibrated against.  N=2048 keeps the
    # two-limb set (q ~ 60 bits) where even the baseline compose is
    # vectorized.
    data_bits = (30, 30, 30) if degree >= 4096 else (30, 30)
    params = small_test_parameters(SchemeType.BFV, poly_degree=degree,
                                   plain_bits=16, data_bits=data_bits)
    return BfvContext(params, seed=b"bench-client-crypto")


def _measure_encrypt(ctx):
    """One stacked encrypt of BATCH vectors vs BATCH per-ciphertext
    reference compositions."""
    rng = np.random.default_rng(3)
    t = ctx.params.plain_modulus
    vals = [rng.integers(0, t, size=ctx.params.poly_degree)
            for _ in range(BATCH)]
    plaintexts = [ctx.encode(v) for v in vals]  # time the crypto, not encode

    def looped():
        return [oracles.encrypt(ctx, pt) for pt in plaintexts]

    def batched():
        return ctx.encrypt_many(plaintexts)

    for ct, v in zip(batched(), vals):
        assert np.array_equal(ctx.decrypt(ct), np.mod(v, t)), \
            "batched encrypt round-trip produced wrong values"
    return best_of_pair(looped, batched, 1)


def _measure_decrypt(ctx):
    """Stacked RNS decrypt of BATCH ciphertexts vs the looped exact
    big-integer path it replaced."""
    rng = np.random.default_rng(4)
    t = ctx.params.plain_modulus
    vals = [rng.integers(0, t, size=ctx.params.poly_degree)
            for _ in range(BATCH)]
    cts = ctx.encrypt_many(vals)

    def looped_bigint():
        return [ctx._decrypt_bigint(ct) for ct in cts]

    def batched():
        return ctx.decrypt_many(cts)

    for fast, exact in zip(batched(), looped_bigint()):
        assert np.array_equal(fast, exact), \
            "vectorized RNS decrypt disagrees with the bigint path"
    # More interleaved windows than the encrypt pair: the decrypt floor is
    # the hard acceptance gate, so give each side enough windows that one
    # scheduler hiccup cannot decide the ratio.
    return best_of_pair(looped_bigint, batched, 1, rounds=12)


def _make_ckks_context():
    params = small_test_parameters(SchemeType.CKKS, poly_degree=4096,
                                   data_bits=(30, 30, 30))
    return CkksContext(params, seed=b"bench-client-crypto")


def _ckks_vectors(ctx):
    rng = np.random.default_rng(5)
    return [rng.uniform(-1, 1, ctx.encoder.slot_count) for _ in range(BATCH)]


def _measure_ckks_encode(ctx):
    """One vectorised encode vs the same embedding through the encoder's
    exact Python-integer rounding."""
    encoder, base, scale = ctx.encoder, ctx.params.data_base, ctx.params.scale
    values = _ckks_vectors(ctx)[0]

    def exact():
        return ckks._round_exact(
            base, encoder._scaled_coefficients([values], scale))[0]

    def vectorised():
        return encoder.encode(values).poly.data

    assert np.array_equal(exact(), vectorised()), \
        "vectorised CKKS encode disagrees with the exact rounding"
    return best_of_pair(exact, vectorised, 4)


class _SymmetricSchedule:
    """``encrypt_symmetric_many``'s PRNG schedule, one ciphertext at a time
    (seeds from the ``seed`` fork, errors from the ``e`` fork)."""

    def __init__(self, root):
        self.random_bytes = root.fork("seed").random_bytes
        self.sample_error = root.fork("e").sample_error


def _measure_ckks_symmetric(ctx):
    """The served upload: BATCH raw slot vectors through one
    ``encrypt_symmetric_many`` vs BATCH per-ciphertext reference
    compositions."""
    vals = _ckks_vectors(ctx)

    def looped(rng=None):
        return [oracles.encrypt_symmetric(ctx, v, rng=rng) for v in vals]

    def batched(rng=None):
        return ctx.encrypt_symmetric_many(vals, rng=rng)

    pairs = zip(looped(_SymmetricSchedule(BlakePrng(b"pin"))),
                batched(BlakePrng(b"pin")))
    for one, many in pairs:
        assert one.seed == many.seed and one.is_ntt and many.is_ntt
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(one.components, many.components)), \
            "batched symmetric encrypt is not bit-identical to the loop"
    return best_of_pair(looped, batched, 1)


#: Galois keys generated per keygen timing window.
KEYGEN_KEYS = 8


def _keygen_key_seconds(ctx):
    """``(seconds per key, NTT share)`` of Galois key-switch keygen on
    *ctx*.  The seconds are the fastest of six windows, each generating
    ``KEYGEN_KEYS`` keys for steps the context does not hold yet
    (``make_galois_keys`` reuses the ones it does).  The share is the
    fastest of three more windows run with every ``NttStackPlan``
    transform timed: the time inside them over the window's."""
    ctx.make_galois_keys([1])                    # secret key, plans, tables
    steps = iter(range(2, 2 + 9 * KEYGEN_KEYS))

    def window():
        ctx.make_galois_keys([next(steps) for _ in range(KEYGEN_KEYS)])

    runs = timeit.repeat(window, number=1, repeat=6)
    inside = [0.0]

    def timed(method):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                inside[0] += time.perf_counter() - start
        return wrapper

    shares = []
    originals = {name: getattr(ntt.NttStackPlan, name)
                 for name in ("_transform", "forward_small")}
    try:
        for name, method in originals.items():
            setattr(ntt.NttStackPlan, name, timed(method))
        for _ in range(3):
            inside[0] = 0.0
            start = time.perf_counter()
            window()
            shares.append((time.perf_counter() - start, inside[0]))
    finally:
        for name, method in originals.items():
            setattr(ntt.NttStackPlan, name, method)
    assert len(ctx.held_galois_keys().keys) == 1 + 9 * KEYGEN_KEYS
    total, ntt_s = min(shares)
    return min(runs) / KEYGEN_KEYS, ntt_s / total


def _ntt_row_seconds(ctx):
    """Seconds per residue row of one ``NttStackPlan.forward`` over the
    context's data base — ``bench_he_throughput``'s ``ntt_forward`` unit."""
    base, n = ctx.params.data_base, ctx.params.poly_degree
    plan = ntt.get_stack_plan(n, base.moduli)
    stack = np.mod(np.arange(len(base) * n, dtype=np.int64)
                   .reshape(len(base), n), base.moduli_col)
    plan.forward(stack)                          # build the plan's tables
    runs = timeit.repeat(lambda: plan.forward(stack), number=20, repeat=6)
    return min(runs) / 20 / len(base)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if a batched kernel misses its minimum speedup "
        "or regresses >20%% vs the committed record",
    )
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    measurements = {}
    degrees = {}
    for degree in (2048, 4096):
        ctx = _make_context(degree)
        measurements[f"encrypt_n{degree}"] = _measure_encrypt(ctx)
        measurements[f"decrypt_n{degree}"] = _measure_decrypt(ctx)
        degrees[str(degree)] = [int(p) for p in ctx.params.data_base.moduli]
    ckks_ctx = _make_ckks_context()
    measurements["ckks_encode"] = _measure_ckks_encode(ckks_ctx)
    measurements["ckks_symmetric"] = _measure_ckks_symmetric(ckks_ctx)
    row_s = _ntt_row_seconds(ckks_ctx)
    per_ct_s = measurements["ckks_symmetric"][1] / BATCH
    set_b_ctx = BfvContext(PARAMETER_SET_B, seed=b"bench-client-crypto")
    key_s, key_ntt_share = _keygen_key_seconds(set_b_ctx)
    extra = {
        "batch": BATCH,
        "data_moduli": degrees,
        "ntt_forward_row_us": round(1e6 * row_s, 2),
        "ntt_rows_per_symmetric_ct": round(per_ct_s / row_s, 2),
        "keygen_ms_per_key": round(1e3 * key_s, 3),
        "keygen_ntt_share": round(key_ntt_share, 3),
    }
    print(f"  {'keygen (set B)':18s} {1e3 * key_s:9.2f} ms per key-switch key "
          f"({100 * key_ntt_share:.0f} % in NTT transforms)")
    return run_speedup_gate(measurements, MIN_SPEEDUP, ("looped", "batched"),
                            extra, args)


if __name__ == "__main__":
    sys.exit(main())
