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

The served kernels have a budget of the same kind: a warm query derives
nothing from the parameter set again — no ``RnsBase`` built and validated,
no modular inverse taken (114 / 60 constructions and 452 / 186 inverses per
``dimension-major`` / ``collapsed`` query when every modulus switch still
rebuilt its target base).
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro.core.distance import (
    CollapsedPointMajorKernel,
    DimensionMajorKernel,
    DistanceProblem,
)
from repro.hecore import context_for
from repro.hecore.params import SchemeType, small_test_parameters

BATCH = 16
ENCRYPT_BUDGET = 3_000
ENCODE_BUDGET = 100
DECRYPT_BUDGET = 2_000


def _profile(fn) -> pstats.Stats:
    fn()                             # warm NTT plans and key caches
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile)


def _calls(fn) -> int:
    return _profile(fn).total_calls


def _calls_to(stats: pstats.Stats, module: str, function: str) -> int:
    return sum(entry[1] for (path, _, name), entry in stats.stats.items()
               if path.endswith(module) and name == function)


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


@pytest.mark.parametrize("kernel_cls", [DimensionMajorKernel,
                                        CollapsedPointMajorKernel],
                         ids=lambda cls: cls.name)
def test_warm_served_kernel_derives_no_base_and_no_inverse(kernel_cls):
    params = small_test_parameters(SchemeType.CKKS, poly_degree=4096,
                                   data_bits=(30, 30, 30))
    ctx = context_for(params, seed=b"hot-path")
    kernel = kernel_cls(ctx, DistanceProblem(n_points=64, dims=16))
    ctx.relin_keys()
    ctx.make_galois_keys(kernel.required_rotation_steps())
    rng = np.random.default_rng(6)
    point_cts = kernel.encrypt_points(rng.uniform(-0.5, 0.5, (64, 16)))
    query_cts = kernel.encrypt_query(rng.uniform(-0.5, 0.5, 16))
    stats = _profile(lambda: kernel.compute(point_cts, query_cts))
    # The profile saw the query: it key-switched and modulus-switched.
    assert _calls_to(stats, "rlwe.py", "relinearize") > 0
    assert _calls_to(stats, "rns.py", "divide_and_round_by_last") > 0
    assert _calls_to(stats, "rns.py", "__init__") == 0
    assert _calls_to(stats, "modmath.py", "mod_inv") == 0
