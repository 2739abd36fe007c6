"""The compiled schedules and served results of every KNN packing.

Each ``KERNEL_VARIANTS`` program at the e2e shape (64 points x 16 dims) and
CKKS set (three 30-bit limbs), compiled with the level planner as served:

* its ``ScheduleReport`` (level-plan totals flattened) is pinned.  Only
  dimension-major has a sum of ciphertext x ciphertext products: its 16
  squares, summed under one ``relin``, are one ``product_sum``.  The 31
  resident nodes it reported before that fusion (16 products and their 15
  sums) are one node since; every other count is as recorded before it;
* the bytes of one served query's result (the ``knn/query`` op on
  evaluation-form uploads, fixed seeds) are pinned, recorded before the
  fusion: fusing the squares' sum moved no result bit, and neither did
  folding an evaluation-form relinearisation's ``(c0, c1)`` into its key
  switch.  Collapsed alone was re-pinned when its giant rotations became
  one ``rotation_sum`` (8 terms): one mod-down of the sum instead of seven
  moves CKKS rounding, so its decoded distances are checked against numpy
  too.
"""

import hashlib
import types
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps.knn import KnnOffloadService
from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core.ir import compile_ir, ensure_galois_keys
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.serialize import serialize_ciphertext

E2E_CKKS = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))
E2E_PROBLEM = DistanceProblem(n_points=64, dims=16)

_ALL_ZERO = dict(rotation_groups=0, fused_rotations=0,
                     weighted_sum_spans=0, weighted_sum_terms=0,
                     rescales_sunk=0, mod_switches_sunk=0, relins_sunk=0,
                     product_sums=0, product_sum_terms=0, rotation_sums=0,
                     rotation_sum_terms=0, batched_consts=0,
                     align_switches=0, replans=0, predicted_unsafe=0)

#: ``ScheduleReport`` fields with the level plan's totals flattened.
SERVED_SCHEDULES = {
    "collapsed": dict(
        _ALL_ZERO, weighted_sum_spans=8, weighted_sum_terms=64,
        rotation_sums=1, rotation_sum_terms=8, resident_nodes=1, limb_drops=0, limb_rows_before=111,
        limb_rows_after=57),
    "dimension-major": dict(
        _ALL_ZERO, rescales_sunk=15, relins_sunk=15, product_sums=1,
        product_sum_terms=16, resident_nodes=1, limb_drops=32,
        limb_rows_before=333, limb_rows_after=223),
    "point-major": dict(
        _ALL_ZERO, resident_nodes=64, limb_drops=65,
        limb_rows_before=1155, limb_rows_after=707),
    "stacked-dimension": dict(
        _ALL_ZERO, resident_nodes=1, limb_drops=2, limb_rows_before=48,
        limb_rows_after=23),
    "stacked-point": dict(
        _ALL_ZERO, resident_nodes=1, limb_drops=2, limb_rows_before=21,
        limb_rows_after=14),
}

#: SHA-256 over the serialized result ciphertexts of one served query.
SERVED_RESULT_DIGESTS = {
    # Before the giant rotations fused into one rotation_sum:
    # 838ead77a91eddd5302a9414431c5ae5ff8fe6e00586eb345fadb76415f8f883
    "collapsed":
        "9daeb2c2e186d323fb1bd6fafa5ecb3a1622b03d53c0d5ac268919a8b8817299",
    "dimension-major":
        "69d04c3daeac2bdbe2f4da5c14cef99eb4df15d8c027e246868b7249533702f0",
    "point-major":
        "0463fbc19cfaf5f3cd5ebb6bfcc750ce916977a60af7386cba5d704d7d3dd44e",
    "stacked-dimension":
        "35fbfc8725bf2fe630d98c232d70ae27377a7246f80c9e4362fe92bf11e2cf0c",
    "stacked-point":
        "8ba872319d2caf88c2c0ac4561f860ea091559751c6ef328da30ab829a3f7836",
}


#: The e2e benchmark's distance tolerance.
E2E_TOL = 1e-2

#: The collapsed query's RMS distance error against numpy (fixed seeds
#: below) with seven mod-downs, before its giant rotations fused: one
#: mod-down of the sum may move the result by rounding, not farther.  (The
#: largest single error on these seeds moved 2.28e-3 -> 2.41e-3, a
#: rounding-sized draw: over 30 other seeds the fused sum was nearer
#: numpy in 18 on the largest error and 22 on RMS.)
PARENT_COLLAPSED_RMS = 8.243e-4

#: (ct x ct multiplies, relinearisations) per query: one multiply per
#: product and one key switch per sum, fused or not.
PRODUCTS_PER_QUERY = {"collapsed": (1, 1), "dimension-major": (16, 1),
                      "point-major": (64, 64), "stacked-dimension": (1, 1),
                      "stacked-point": (1, 1)}


def test_every_variant_is_pinned():
    assert (set(SERVED_SCHEDULES) == set(SERVED_RESULT_DIGESTS)
            == set(PRODUCTS_PER_QUERY) == set(KERNEL_VARIANTS))


@pytest.mark.parametrize("variant", sorted(SERVED_SCHEDULES))
def test_served_schedule_reports(variant):
    kernel = KERNEL_VARIANTS[variant](types.SimpleNamespace(params=E2E_CKKS),
                                      E2E_PROBLEM)
    sched = compile_ir(kernel.program(kernel.input_shape), E2E_CKKS.scheme,
                       params=E2E_CKKS)
    report = asdict(sched.report)
    plan = report.pop("level_plan")
    report.update({k: v for k, v in plan.items()
                   if k not in ("chain", "segments")})
    assert report == SERVED_SCHEDULES[variant]


@pytest.mark.parametrize("variant", sorted(SERVED_RESULT_DIGESTS))
def test_served_query_result_bytes(variant):
    ctx = CkksContext(E2E_CKKS, seed=b"served-schedules")
    rng = np.random.default_rng(7)
    points = rng.uniform(-0.5, 0.5, (64, 16))
    query = rng.uniform(-0.5, 0.5, 16)
    kernel = KERNEL_VARIANTS[variant](ctx, E2E_PROBLEM)
    steps = kernel.required_rotation_steps()
    ctx.relin_keys()
    if steps:
        ensure_galois_keys(ctx, steps)
    state = {}
    KnnOffloadService.store_op(
        ctx, state, {"n_points": 64, "dims": 16, "variant": variant},
        ctx.encrypt_symmetric_many(kernel.pack_points(points)))
    before = ctx.counts.copy()
    outputs, _ = KnnOffloadService.query_op(
        ctx, state, {}, ctx.encrypt_symmetric_many(kernel.pack_query(query)))
    h = hashlib.sha256()
    for ct in outputs:
        h.update(serialize_ciphertext(ct))
    assert h.hexdigest() == SERVED_RESULT_DIGESTS[variant]
    if variant == "collapsed":
        error = (kernel.decode([np.real(ctx.decrypt(ct)) for ct in outputs])
                 - kernel.reference(points, query))
        assert np.max(np.abs(error)) < E2E_TOL
        assert np.sqrt(np.mean(error ** 2)) <= PARENT_COLLAPSED_RMS
    multiplies, relins = PRODUCTS_PER_QUERY[variant]
    assert ctx.counts["multiply"] - before["multiply"] == multiplies
    assert ctx.counts["relinearize"] - before["relinearize"] == relins
