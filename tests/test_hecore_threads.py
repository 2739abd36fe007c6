"""Threaded differential over the evaluator's shared tables.

Served ops run on ``asyncio.to_thread`` workers, and every memo in
``repro.hecore`` (NTT plans, Galois index tables, interned bases and their
modulus-switch constants) is filled on first use by whichever thread gets
there first.  So: empty every memo, shorten the switch interval until the
fills race, let eight threads run every evaluator op on their own
ciphertexts through ONE shared context, and require each result to be
byte-equal to the single-thread answer.  The same holds one layer up, for
the lazily filled tables of one shared compiled schedule.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import ir
from repro.core.distance import CollapsedPointMajorKernel, DistanceProblem
from repro.core.linalg import Conv2dSpec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore import context_for, ntt, polyring
from repro.hecore.hoisting import (
    HoistedRotator,
    keyswitch_sum,
    rotate_and_sum_steps,
)
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.rns import RnsBase
from repro.hecore.serialize import serialize_ciphertext

THREADS = 8
STEPS = (1, 2, 3, 5)
WIDTH = 8


def _make_cold(bases) -> None:
    """Forget everything derived: the six process-wide memos, and the
    per-base constants of every base the ciphertexts arrive on."""
    for memo in (ntt._memoised_stack_plan, ntt._modulus_steps,
                 polyring.ntt_permutation, polyring.coeff_automorphism_perm,
                 polyring.aux_base_for, RnsBase.of):
        memo.cache_clear()
    for base in bases:
        for name in ("_switch_down", "_small_prefix"):
            base.__dict__.pop(name, None)


def _every_op(ctx, a, b, product) -> bytes:
    shrink = (ctx.rescale if ctx.params.scheme is SchemeType.CKKS
              else ctx.mod_switch_down)
    results = [ctx.add(a, b), ctx.sub(a, b), ctx.negate(a), shrink(a),
               ctx.relinearize(product), ctx.rotate(a, 3),
               keyswitch_sum(ctx, [HoistedRotator(ctx, b)],
                             [(s, 0) for s in (0, *STEPS)]),
               ctx.rotate_and_sum(a, WIDTH)]
    return b"".join(serialize_ciphertext(ct) for ct in results)


def _race(threads, work):
    """Run ``work(i)`` on *threads* threads released together at a short
    switch interval; returns their results."""
    got, errors = [None] * threads, []
    barrier = threading.Barrier(threads)

    def worker(i: int) -> None:
        try:
            barrier.wait(timeout=60)
            got[i] = work(i)
        except Exception as exc:        # reported by the assertion below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors, errors
    return got


@pytest.mark.parametrize("scheme", [SchemeType.BFV, SchemeType.CKKS],
                         ids=["bfv", "ckks"])
def test_racing_cold_fills_change_no_byte(scheme):
    params = small_test_parameters(scheme, poly_degree=1024, plain_bits=16,
                                   data_bits=(30, 30, 30))
    ctx = context_for(params, seed=b"threads")
    ctx.relin_keys()
    ctx.make_galois_keys(set(STEPS) | rotate_and_sum_steps(WIDTH))
    rng = np.random.default_rng(7)
    draw = ((lambda: rng.uniform(-1, 1, 64)) if scheme is SchemeType.CKKS
            else (lambda: rng.integers(0, 97, 64)))
    cts = ctx.encrypt_many([draw() for _ in range(2 * THREADS)])
    work = [(a, b, ctx.multiply(a, b, relinearize=False))
            for a, b in zip(cts[::2], cts[1::2])]
    want = [_every_op(ctx, *item) for item in work]
    _make_cold([params.full_base, params.data_base,
                *(ct.level_base for ct in cts)])
    assert _race(THREADS, lambda i: _every_op(ctx, *work[i])) == want


def test_racing_runs_of_one_shared_schedule_change_no_byte():
    """Two threads, each with its own kernel instances, run the collapsed
    KNN kernel and a two-tile BFV conv through the one shared compiled
    schedule of each, whose weight tables start empty and fill on first
    use; every result is byte-equal to a serial run's."""
    ckks = context_for(small_test_parameters(
        SchemeType.CKKS, 4096, data_bits=(30, 30, 30)), seed=b"threads")
    ckks.relin_keys()
    bfv = context_for(small_test_parameters(
        SchemeType.BFV, poly_degree=1024, plain_bits=16,
        data_bits=(30, 30, 30)), seed=b"threads")
    rng = np.random.default_rng(8)
    problem = DistanceProblem(n_points=64, dims=16)
    spec = Conv2dSpec(12, 2, 5, 5, 3)
    weights = rng.integers(-2, 3, (2, 12, 3, 3))

    def kernels():
        return (CollapsedPointMajorKernel(ckks, problem),
                TiledEncryptedConv2d(bfv, spec, weights))

    knn, conv = kernels()
    ckks.make_galois_keys(knn.required_rotation_steps())
    bfv.make_galois_keys(conv.required_rotation_steps())
    inputs = []
    for _ in range(2):
        points = rng.uniform(-0.5, 0.5, (64, 16))
        query = rng.uniform(-0.5, 0.5, 16)
        image = rng.integers(0, 4, (12, 5, 5))
        inputs.append((knn.encrypt_points(points), knn.encrypt_query(query),
                       conv.encrypt_input(image)))
    assert len(inputs[0][2]) == 2

    def run(i: int) -> bytes:
        knn, conv = kernels()
        points, query, tiles = inputs[i]
        return b"".join(serialize_ciphertext(ct) for ct in
                        [*knn.compute(points, query), *conv(tiles)])

    want = [run(i) for i in range(2)]
    ir.clear_program_cache()
    hits = ckks.counts["program_cache_hits"] + bfv.counts["program_cache_hits"]
    assert _race(2, run) == want
    assert (ckks.counts["program_cache_hits"]
            + bfv.counts["program_cache_hits"] - hits) == 2, \
        "the second thread runs the first one's compiled schedules"
