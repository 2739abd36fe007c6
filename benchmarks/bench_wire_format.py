"""Wire format — actual serialized bytes vs the paper's logical accounting.

Table 3 sizes use the *logical* view: ``(k−1)`` residues of 8-byte words.
This repository's computational limbs are ≤30-bit (DESIGN.md substitution),
so the physical blob of a set-B ciphertext carries 3 rows where SEAL would
carry 2 — but each residue travels as one 4-byte word, so the blob sits
*below* the logical size: 98,349 B physical against 131,072 B logical
(196,653 B while residues travelled as 8-byte words).  This benchmark
serializes real ciphertexts and keys, checks every blob against its exact
size formula and gates (de)serialization throughput; the logical-vs-physical
report (``results/wire_format.txt``) is the ``wire_format`` row of
``figures.py``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.hecore.bfv import BfvContext
from repro.hecore.params import PARAMETER_SET_B
from repro.hecore.serialize import serialize_ciphertext

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_wire_format.json"

#: Conservative throughput floors (ops/sec) from the reference container
#: when the runtime wire format first landed — recorded well below the
#: idle-host measurement because these ops are microsecond-scale and the
#: shared host swings ~2x.  Sizes are exact — any byte drift is a protocol
#: break, not a perf regression — so only the throughput entries carry a
#: tolerance.  After the first run, ``--check`` compares against the
#: previous recorded run instead.
#:
#: The key floors follow the seeded key format (evaluation keys ship ``k0``
#: + a 32-byte seed; the receiver regenerates the uniform halves).
#: ``serialize_relin`` keeps its floor — it writes half the bytes and
#: should read ~2x.  ``deserialize_relin`` is re-derived, not relaxed: the
#: old 8,000/s measured one ``frombuffer`` copy; a key now also expands one
#: ``sample_uniform`` row of 4096 (~39 us) per digit x full-base residue.
#: The floors were recorded when set B key-switched with two special primes
#: (3 digits x 5 rows = 0.58 ms on top of the 0.14 ms ``k0`` copy and
#: views: 0.72 ms = 1,390/s on the idle 2-vCPU reference host), at under
#: half of that like every other entry; with one special prime a key is
#: 3 x 4 rows and reads faster.  The 48-element Galois set
#: (``GALOIS_ELEMENTS``) measured 38 ms to write and 70 ms to read there
#: (48 x (0.58 ms expansion + a page-faulting 0.98 MB store)); floors at
#: half.
WIRE_BASELINE = {
    "serialize_public": 30000.0,
    "serialize_seeded": 50000.0,
    "deserialize_public": 15000.0,
    "serialize_relin": 800.0,
    "deserialize_relin": 650.0,
    "serialize_galois": 12.0,
    "deserialize_galois": 7.0,
}

#: Size of the Galois key set the key rows serialize: what one cold DNN
#: session uploads next to its relin key.
GALOIS_ELEMENTS = 48

REGRESSION_TOLERANCE = 0.20

#: Cross-run comparisons measure absolute throughput on a shared host (see
#: bench_he_throughput.CROSS_RUN_TOLERANCE); the recorded baselines are the
#: hard gate and the previous-run check only catches order-of-magnitude slips.
CROSS_RUN_TOLERANCE = 0.40


def _best_of(fn, reps, rounds=5):
    """Ops/sec from the fastest of *rounds* timing windows (see
    bench_he_throughput._best_of for why best-of, not mean)."""
    fn()  # warm caches outside the timed region
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return 1.0 / best


def _expected_sizes(params):
    """The frozen size contract, derived from the parameter set itself.

    Sizes here are exact — any drift means old clients can no longer talk
    to new servers, so ``--check`` fails hard rather than within a
    tolerance.  Layout: 21-byte CHOC header, one u64 per modulus, then
    rows of 4-byte residue words (and a 32-byte seed in place of the second
    component for seed-compressed blobs).  Key blobs: 11-byte header, one
    u64 per full-base modulus, then per key-switching key a digit-count
    byte, the 32-byte seed and ``k0`` of every digit over the full base —
    the uniform halves never travel.  A Galois set adds a u16 key count and
    a u32 element id per key.
    """
    n = params.poly_degree
    limbs = len(params.data_base)
    header = 21 + 8 * limbs
    body = n * 4                     # one component-limb row of u32 words
    key_header = 11 + 8 * len(params.full_base)
    switch_key = 1 + 32 + limbs * len(params.full_base) * body
    return {
        "public_fresh": header + 2 * limbs * body,
        "symmetric_seeded": header + limbs * body + 32,
        "after_mod_switch": (header - 8) + 2 * (limbs - 1) * body,
        "relin_key": key_header + switch_key,
        "galois_keys": key_header + 2 + GALOIS_ELEMENTS * (4 + switch_key),
    }


def _measure(params):
    from repro.hecore.serialize import (
        deserialize_ciphertext,
        deserialize_galois_keys,
        deserialize_relin_key,
        serialize_galois_keys,
        serialize_relin_key,
    )

    ctx = BfvContext(params, seed=b"bench-wire")
    values = np.arange(64, dtype=np.int64)
    public_ct = ctx.encrypt(values)
    seeded_ct = ctx.encrypt_symmetric(values)
    switched = ctx.mod_switch_down(public_ct)
    relin = ctx.relin_keys()
    galois = ctx.make_galois_keys(range(1, GALOIS_ELEMENTS + 1))

    blob_public = serialize_ciphertext(public_ct)
    blob_relin = serialize_relin_key(relin)
    blob_galois = serialize_galois_keys(galois)

    sizes = {
        "public_fresh": len(blob_public),
        "symmetric_seeded": len(serialize_ciphertext(seeded_ct)),
        "after_mod_switch": len(serialize_ciphertext(switched)),
        "relin_key": len(blob_relin),
        "galois_keys": len(blob_galois),
        "logical_public": public_ct.size_bytes(),
    }
    rates = {
        "serialize_public": _best_of(
            lambda: serialize_ciphertext(public_ct), 200),
        "serialize_seeded": _best_of(
            lambda: serialize_ciphertext(seeded_ct), 200),
        "deserialize_public": _best_of(
            lambda: deserialize_ciphertext(blob_public, params), 200),
        "serialize_relin": _best_of(
            lambda: serialize_relin_key(relin), 30, rounds=4),
        "deserialize_relin": _best_of(
            lambda: deserialize_relin_key(blob_relin, params), 100, rounds=4),
        "serialize_galois": _best_of(
            lambda: serialize_galois_keys(galois), 3, rounds=3),
        "deserialize_galois": _best_of(
            lambda: deserialize_galois_keys(blob_galois, params), 3, rounds=3),
    }
    return sizes, rates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on any size drift, or if throughput regresses "
        ">20%% vs the previous run (first run: vs the recorded baseline)",
    )
    parser.add_argument(
        "--output", type=Path, default=RESULTS_PATH, help="JSON output path"
    )
    args = parser.parse_args(argv)

    previous = None
    if args.output.exists():
        previous = json.loads(args.output.read_text())

    params = PARAMETER_SET_B
    print(f"set B (N={params.poly_degree}, "
          f"k={len(params.data_base)} data residues)")
    sizes, rates = _measure(params)
    expected = _expected_sizes(params)

    failures = []
    for name, want in expected.items():
        got = sizes[name]
        status = "ok" if got == want else "DRIFT"
        print(f"  size {name:18s} {got:10d} B   expected {want:10d} B   {status}")
        if got != want:
            failures.append(
                f"size {name}: {got} B does not match the frozen wire "
                f"contract ({want} B) — protocol break")

    ops = {}
    for op, rate in rates.items():
        baseline = WIRE_BASELINE[op]
        ops[op] = {
            "baseline_ops_per_sec": baseline,
            "current_ops_per_sec": round(rate, 3),
            "speedup": round(rate / baseline, 3),
        }
        print(f"  {op:20s} {rate:10.2f}/s   baseline {baseline:10.2f}/s"
              f"   {rate / baseline:5.2f}x")
        reference, source = baseline, "recorded baseline"
        tolerance = REGRESSION_TOLERANCE
        if previous is not None:
            prev_op = previous.get("ops", {}).get(op)
            if prev_op is not None:
                reference = prev_op["current_ops_per_sec"]
                source = "previous run"
                tolerance = CROSS_RUN_TOLERANCE
        if rate < reference * (1.0 - tolerance):
            failures.append(
                f"{op}: {rate:.2f}/s is more than "
                f"{tolerance:.0%} below the {source} "
                f"({reference:.2f}/s)")

    report = {
        "tolerance": REGRESSION_TOLERANCE,
        "set": "B",
        "poly_degree": params.poly_degree,
        "sizes_bytes": sizes,
        "expected_sizes_bytes": expected,
        "ops": ops,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.check and failures:
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())