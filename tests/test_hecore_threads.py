"""Threaded differential over the evaluator's shared tables.

Served ops run on ``asyncio.to_thread`` workers, and every memo in
``repro.hecore`` (NTT plans, Galois index tables, interned bases and their
modulus-switch constants) is filled on first use by whichever thread gets
there first.  So: empty every memo, shorten the switch interval until the
fills race, let eight threads run every evaluator op on their own
ciphertexts through ONE shared context, and require each result to be
byte-equal to the single-thread answer.
"""

import sys
import threading

import numpy as np
import pytest

from repro.hecore import context_for, ntt, polyring
from repro.hecore.hoisting import rotate_and_sum_steps
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.rns import RnsBase
from repro.hecore.serialize import serialize_ciphertext

THREADS = 8
STEPS = (1, 2, 3, 5)
WIDTH = 8


def _make_cold(bases) -> None:
    """Forget everything derived: the six process-wide memos, and the
    per-base constants of every base the ciphertexts arrive on."""
    for memo in (ntt.get_plan, ntt._memoised_stack_plan,
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
               *ctx.rotate_many(b, STEPS), ctx.rotate_and_sum(a, WIDTH)]
    return b"".join(serialize_ciphertext(ct) for ct in results)


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

    got, errors = [None] * THREADS, []
    barrier = threading.Barrier(THREADS)

    def worker(i: int) -> None:
        try:
            barrier.wait(timeout=60)
            got[i] = _every_op(ctx, *work[i])
        except Exception as exc:        # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _make_cold([params.full_base, params.data_base,
                    *(ct.level_base for ct in cts)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert got == want

