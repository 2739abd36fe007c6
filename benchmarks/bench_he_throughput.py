"""HE primitive throughput across polynomial degrees.

Not a paper figure — engineering telemetry for this library: steady-state
timings of the hot primitives so performance regressions surface in the
benchmark history.  Uses pytest-benchmark's statistics (multiple rounds)
rather than one-shot timing.

Run directly (``python benchmarks/bench_he_throughput.py``) it measures the
stacked-kernel hot path (forward/inverse NTT, dyadic multiply, key switch,
rotate, BFV ciphertext multiply) and the residue primitives every operation
is assembled from (polynomial add, modulus switch, NTT-form automorphism) at
the seed parameter sets and writes
``benchmarks/results/BENCH_he_kernels.json`` with the pre-refactor baseline,
current throughput, and speedup per op when passed ``--record`` (a run
without it writes nothing).  ``--check`` exits non-zero if any op regresses
more than 40% against the committed record (or, with none, more than 20%
against the pre-refactor baseline).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters

from _gate import load_record, record_options, save_record


@pytest.fixture(scope="module", params=[1024, 4096])
def bfv_ctx(request):
    n = request.param
    params = small_test_parameters(SchemeType.BFV, poly_degree=n,
                                   plain_bits=16, data_bits=(30, 30))
    ctx = BfvContext(params, seed=n)
    ctx.make_galois_keys([1])
    return ctx


@pytest.fixture(scope="module")
def bfv_ct(bfv_ctx):
    return bfv_ctx.encrypt(np.arange(64, dtype=np.int64))


def test_throughput_encrypt(benchmark, bfv_ctx):
    pt = bfv_ctx.encode([1, 2, 3])
    benchmark(bfv_ctx.encrypt, pt)


def test_throughput_decrypt(benchmark, bfv_ctx, bfv_ct):
    benchmark(bfv_ctx.decrypt, bfv_ct)


def test_throughput_add(benchmark, bfv_ctx, bfv_ct):
    benchmark(bfv_ctx.add, bfv_ct, bfv_ct)


def test_throughput_multiply_plain(benchmark, bfv_ctx, bfv_ct):
    pt = bfv_ctx.encode(np.arange(bfv_ctx.params.poly_degree, dtype=np.int64)
                        % bfv_ctx.params.plain_modulus)
    benchmark(bfv_ctx.multiply_plain, bfv_ct, pt)


def test_throughput_rotate(benchmark, bfv_ctx, bfv_ct):
    benchmark(bfv_ctx.rotate_rows, bfv_ct, 1)


def test_throughput_ckks_multiply(benchmark, ckks_small):
    ct = ckks_small.encrypt(np.linspace(0, 1, 16))
    ckks_small.relin_keys()
    benchmark(ckks_small.multiply, ct, ct)


def test_throughput_ntt(benchmark):
    from repro.hecore.primes import generate_ntt_primes

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.oracles import get_plan

    n = 8192
    p = generate_ntt_primes(29, 1, n)[0]
    plan = get_plan(n, p)
    data = np.random.default_rng(0).integers(0, p, n, dtype=np.int64)
    benchmark(plan.forward, data)


# ---------------------------------------------------------------------------
# Standalone kernel-throughput report (BENCH_he_kernels.json)
# ---------------------------------------------------------------------------

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_he_kernels.json"

#: Throughput (ops/sec, best-of-5 rounds) of the pre-stacked-kernel hecore on
#: the reference container, recorded immediately before the NttStackPlan
#: refactor landed.  These stay fixed so every later run reports its speedup
#: against the same pre-refactor floor.  ``poly_add`` / ``mod_switch`` /
#: ``automorphism_ntt`` were recorded the same way at 946fb03, immediately
#: before each residue formula got its one body on ``RnsBase``
#: (``benchmarks/results/README.md`` says how).
PRE_REFACTOR_BASELINE = {
    "B": {
        "ntt_forward": 396.14,
        "ntt_inverse": 375.81,
        "dyadic_multiply": 11856.6,
        "key_switch": 43.00,
        "rotate": 43.07,
        "bfv_multiply": 4.523,
        "poly_add": 14968.44,
        "mod_switch": 2884.33,
        "automorphism_ntt": 13370.79,
    },
    "A": {
        "ntt_forward": 146.32,
        "ntt_inverse": 149.67,
        "dyadic_multiply": 5443.6,
        "key_switch": 14.47,
        "rotate": 13.32,
        "bfv_multiply": 1.379,
        "poly_add": 5423.55,
        "mod_switch": 1098.54,
        "automorphism_ntt": 6935.39,
    },
}

REGRESSION_TOLERANCE = 0.20

#: Cross-run comparisons measure absolute throughput on a shared host, where
#: back-to-back runs routinely swing ~30% with background load; the fixed
#: pre-refactor floors above are the hard gate, and the record check
#: only catches order-of-magnitude slips.
CROSS_RUN_TOLERANCE = 0.40


def _best_of(fn, reps, rounds=5):
    """Ops/sec from the fastest of *rounds* timing windows.

    Best-of (not mean) because the benchmark host is shared: the minimum over
    several windows is the least noise-contaminated estimate of the kernel's
    actual cost.
    """
    fn()  # warm caches / plan construction outside the timed region
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return 1.0 / best


def _measure_set(params):
    """Throughput of each hot kernel at one BFV parameter set."""
    from repro.hecore import ntt
    from repro.hecore.bfv import BfvContext
    from repro.hecore.keys import switch_key

    n = params.poly_degree
    base = params.data_base
    plan = ntt.get_stack_plan(n, base.moduli)
    rng = np.random.default_rng(0)
    stack = np.stack([rng.integers(0, p, n, dtype=np.int64) for p in base.moduli])
    evals = plan.forward(stack)

    ctx = BfvContext(params, seed=b"bench-kernels")
    ctx.make_galois_keys([1])
    relin = ctx.relin_keys()
    ct1 = ctx.encrypt(list(range(16)))
    ct2 = ctx.encrypt(list(range(1, 17)))
    from repro.hecore.polyring import RnsPoly

    target = RnsPoly(base, n, stack.copy(), is_ntt=False)
    evals_poly = RnsPoly(base, n, evals, is_ntt=True)
    # A key-switch accumulator: one row per data prime plus the special prime.
    full = params.full_base
    wide = np.stack(
        [rng.integers(0, p, n, dtype=np.int64) for p in full.moduli])

    scale = 4096 // n if n < 4096 else 1
    results = {}
    results["ntt_forward"] = _best_of(lambda: plan.forward(stack), 100 * scale)
    results["ntt_inverse"] = _best_of(lambda: plan.inverse(evals), 100 * scale)
    results["dyadic_multiply"] = _best_of(
        lambda: plan.dyadic_multiply(evals, evals), 400 * scale
    )
    results["key_switch"] = _best_of(
        lambda: switch_key(target, relin, params), 8, rounds=4
    )
    results["rotate"] = _best_of(lambda: ctx.rotate_rows(ct1, 1), 8, rounds=4)
    results["bfv_multiply"] = _best_of(lambda: ctx.multiply(ct1, ct2), 3, rounds=4)
    results["poly_add"] = _best_of(lambda: target + target, 400 * scale)
    results["mod_switch"] = _best_of(
        lambda: full.divide_and_round_by_last(wide), 200 * scale)
    results["automorphism_ntt"] = _best_of(
        lambda: evals_poly.apply_automorphism(3), 400 * scale)
    return results


def main(argv=None):
    from repro.hecore.params import PARAMETER_SET_A, PARAMETER_SET_B

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any op regresses >40%% vs the committed "
        "record (none: >20%% vs the pre-refactor baseline)",
    )
    parser.add_argument(
        "--sets",
        default="B,A",
        help="comma-separated parameter sets to measure (default: B,A)",
    )
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    presets = {"A": PARAMETER_SET_A, "B": PARAMETER_SET_B}
    names = [s.strip().upper() for s in args.sets.split(",") if s.strip()]
    if not names:
        parser.error("--sets must name at least one parameter set (A, B)")
    unknown = [n for n in names if n not in presets]
    if unknown:
        parser.error(
            f"unknown parameter set(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(presets))}"
        )
    previous = load_record(args.output)

    report = {"tolerance": REGRESSION_TOLERANCE, "sets": {}}
    failures = []
    for name in names:
        params = presets[name]
        print(f"set {name} (N={params.poly_degree}, "
              f"k={len(params.data_base)} data residues)")
        current = _measure_set(params)
        baseline = PRE_REFACTOR_BASELINE[name]
        ops = {}
        for op, rate in current.items():
            speedup = rate / baseline[op]
            ops[op] = {
                "baseline_ops_per_sec": baseline[op],
                "current_ops_per_sec": round(rate, 3),
                "speedup": round(speedup, 3),
            }
            print(f"  {op:16s} {rate:10.2f}/s   baseline {baseline[op]:10.2f}/s"
                  f"   {speedup:5.2f}x")
            reference = baseline[op]
            source = "pre-refactor baseline"
            tolerance = REGRESSION_TOLERANCE
            if previous is not None:
                prev_op = (
                    previous.get("sets", {}).get(name, {}).get("ops", {}).get(op)
                )
                if prev_op is not None:
                    reference = prev_op["current_ops_per_sec"]
                    source = "committed record"
                    tolerance = CROSS_RUN_TOLERANCE
            if rate < reference * (1.0 - tolerance):
                failures.append(
                    f"set {name} {op}: {rate:.2f}/s is more than "
                    f"{tolerance:.0%} below the {source} "
                    f"({reference:.2f}/s)"
                )
        report["sets"][name] = {
            "poly_degree": params.poly_degree,
            "data_moduli": [int(p) for p in params.data_base.moduli],
            "ops": ops,
        }

    save_record(report, args)

    if args.check and failures:
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
