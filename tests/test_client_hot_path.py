"""A host-independent guard on the served client's hot path.

The client is the scarce side, and its encode → encrypt → decrypt path must
stay array-native: a per-coefficient Python loop (the ``round()`` list
comprehension ``CkksEncoder.encode`` once held cost 65,536 calls per 16
ciphertexts, 72 % of the upload's time) shows up as tens of thousands of
function calls, whatever the host's clock does.  Each budget below is a
call count under ``cProfile`` — Python and builtin calls together — at the
served shape: N = 4096, three 30-bit limbs, 16 ciphertexts.

Recorded when the budgets were set (CKKS / BFV): ``encrypt_symmetric_many``
2,128 / 2,200 calls (68,468 / 2,740 before the encoder was vectorised), one
``encode`` 35 / 78 (4,126 / 78), ``decrypt_many`` 1,217 / 1,433 (1,205 /
1,421).
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro.hecore import context_for
from repro.hecore.params import SchemeType, small_test_parameters

BATCH = 16
ENCRYPT_BUDGET = 3_000
ENCODE_BUDGET = 100
DECRYPT_BUDGET = 2_000


def _calls(fn) -> int:
    fn()                             # warm NTT plans and key caches
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module", params=[SchemeType.CKKS, SchemeType.BFV],
                ids=["ckks", "bfv"])
def served(request):
    params = small_test_parameters(request.param, poly_degree=4096,
                                   plain_bits=16, data_bits=(30, 30, 30))
    ctx = context_for(params, seed=b"hot-path")
    rng = np.random.default_rng(5)
    if request.param is SchemeType.CKKS:
        vectors = [rng.uniform(-1, 1, ctx.encoder.slot_count)
                   for _ in range(BATCH)]
    else:
        vectors = [rng.integers(0, params.plain_modulus,
                                ctx.encoder.slot_count) for _ in range(BATCH)]
    return ctx, vectors


def test_symmetric_upload_is_array_native(served):
    ctx, vectors = served
    calls = _calls(lambda: ctx.encrypt_symmetric_many(vectors))
    assert calls < ENCRYPT_BUDGET, calls


def test_one_encode_is_array_native(served):
    ctx, vectors = served
    calls = _calls(lambda: ctx.encode(vectors[0]))
    assert calls < ENCODE_BUDGET, calls


def test_result_decrypt_is_array_native(served):
    ctx, vectors = served
    results = ctx.encrypt_many(vectors)          # coefficient form, as served
    assert not any(ct.is_ntt for ct in results)
    calls = _calls(lambda: ctx.decrypt_many(results))
    assert calls < DECRYPT_BUDGET, calls
