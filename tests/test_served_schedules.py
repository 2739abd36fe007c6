"""The compiled schedules and served results of every KNN packing.

Each ``KERNEL_VARIANTS`` program at the e2e shape (64 points x 16 dims) and
CKKS set (three 30-bit limbs), compiled with the level planner as served:

* its ``ScheduleReport`` (level-plan totals flattened) is pinned.  Only
  dimension-major has a sum of ciphertext x ciphertext products: its 16
  squares, summed under one ``relin``, are one ``product_sum``.  The 31
  resident nodes it reported before that fusion (16 products and their 15
  sums) are one node since; every other count is as recorded before it;
* the value of one served query's result (the ``knn/query`` op on
  evaluation-form uploads, fixed seeds) is pinned, first recorded (as the
  SHA-256 of its serialized bytes) before the fusion: fusing the squares'
  sum moved no result bit, and neither did folding an evaluation-form
  relinearisation's ``(c0, c1)`` into its key switch.  Collapsed alone was re-pinned when its giant rotations became
  one ``rotation_sum`` (8 terms): one mod-down of the sum instead of seven
  moves CKKS rounding, so its decoded distances are checked against numpy
  too.  The point-major packings' window sums were re-pinned when they
  began to trace as plain rotations and adds: each compiles to one
  unweighted key-switch sum (a ``rotation_sum`` of 16 terms), which is
  what ran before, so no result byte, key step or ``limb_drops`` moved.
  The digests hash the values themselves (``tests.value_digest``) since
  they were re-recorded, unmoved, ahead of the wire's byte-width rows.
  The ``limb_rows_*`` integrals count the program the planner sees: they
  grew while window sums were fused only after planning, and fell again
  (collapsed 198/115 -> 72/44, point-major 6,723/2,563 -> 1,155/707,
  stacked-point 108/43 -> 21/14) when both key-switch-sum fusions moved
  ahead of the planner.  Dimension-major's fell (333/223 -> 153/133)
  when sinking and product-sum fusion moved ahead of it too: the planner
  walks one ``product_sum``, ``relin`` and ``rescale`` instead of 16
  products, relins and rescales and their 15 adds, and every program's
  ``limb_rows_after`` is now what one executed run charges (checked
  below).

The e2e DNN layers (``dnn_cold_sessions``: conv 1 -> 4 at 12x12 and fc
10x64, BFV set B) send every result to the client, so they compile with
the level planner too: their reports, result values and logical sizes,
and plaintexts against the planner-off compile are pinned below, and so
is the in-process LeNetSm inference's ledger.
"""

import types
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps.dnn import (
    quantize_network_for_encryption,
    run_encrypted_inference,
    run_reference_inference,
)
from repro.apps.knn import KnnOffloadService
from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core.ir import compile_ir, ensure_galois_keys
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.nn.models import lenet_small
from tests.test_rotation_bases import _e2e_layers
from tests.value_digest import value_digest

E2E_CKKS = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))
E2E_PROBLEM = DistanceProblem(n_points=64, dims=16)

_ALL_ZERO = dict(weighted_sum_spans=0, weighted_sum_terms=0,
                     rescales_sunk=0, mod_switches_sunk=0, relins_sunk=0,
                     product_sums=0, product_sum_terms=0, rotation_sums=0,
                     rotation_sum_terms=0, batched_consts=0,
                     align_switches=0, predicted_unsafe=0)

#: ``ScheduleReport`` fields with the level plan's totals flattened.
SERVED_SCHEDULES = {
    "collapsed": dict(
        _ALL_ZERO, weighted_sum_spans=8, weighted_sum_terms=64,
        rotation_sums=2, rotation_sum_terms=24, resident_nodes=1, limb_drops=0,
        limb_rows_before=72, limb_rows_after=44),
    "dimension-major": dict(
        _ALL_ZERO, rescales_sunk=15, relins_sunk=15, product_sums=1,
        product_sum_terms=16, resident_nodes=1, limb_drops=32,
        limb_rows_before=153, limb_rows_after=133),
    "point-major": dict(
        _ALL_ZERO, rotation_sums=64, rotation_sum_terms=1024,
        resident_nodes=64, limb_drops=65, limb_rows_before=1155,
        limb_rows_after=707),
    "stacked-dimension": dict(
        _ALL_ZERO, resident_nodes=1, limb_drops=2, limb_rows_before=48,
        limb_rows_after=23),
    "stacked-point": dict(
        _ALL_ZERO, rotation_sums=1, rotation_sum_terms=16, resident_nodes=1,
        limb_drops=2, limb_rows_before=21, limb_rows_after=14),
}

#: ``value_digest`` of the result ciphertexts of one served query.
SERVED_RESULT_DIGESTS = {
    "collapsed":
        "6a002287ec9ed4324a8cde01a910515108e2400dc345f57664d95bf075b22c68",
    "dimension-major":
        "576fdc22a0ac728c2548eb47b197ce9d02e2fb2124297ebc8120837f206180c9",
    "point-major":
        "82e55faad4e21da4a4dce5047bde2ce4ded11c2576a9417db4a8e50601296f8d",
    "stacked-dimension":
        "4092c8308b08f49bc2e2d1349d9f1aef3cca07c92f5c7406b3490157083dd5b8",
    "stacked-point":
        "2b3910f94f5c38be68c92593498524dd08b1b5f3dfa25ce85f7be6c4900e5cc9",
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


def _flat_report(sched) -> dict:
    """*sched*'s ``ScheduleReport`` with the level plan's totals flattened."""
    report = asdict(sched.report)
    plan = report.pop("level_plan")
    report.update({k: v for k, v in plan.items()
                   if k not in ("chain", "segments")})
    return report


def test_every_variant_is_pinned():
    assert (set(SERVED_SCHEDULES) == set(SERVED_RESULT_DIGESTS)
            == set(PRODUCTS_PER_QUERY) == set(KERNEL_VARIANTS))


@pytest.mark.parametrize("variant", sorted(SERVED_SCHEDULES))
def test_served_schedule_reports(variant):
    kernel = KERNEL_VARIANTS[variant](types.SimpleNamespace(params=E2E_CKKS),
                                      E2E_PROBLEM)
    sched = compile_ir(kernel.program(kernel.input_shape), E2E_CKKS.scheme,
                       params=E2E_CKKS)
    assert _flat_report(sched) == SERVED_SCHEDULES[variant]


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
    assert value_digest(*outputs) == SERVED_RESULT_DIGESTS[variant]
    if variant == "collapsed":
        error = (kernel.decode([np.real(ctx.decrypt(ct)) for ct in outputs])
                 - kernel.reference(points, query))
        assert np.max(np.abs(error)) < E2E_TOL
        assert np.sqrt(np.mean(error ** 2)) <= PARENT_COLLAPSED_RMS
    multiplies, relins = PRODUCTS_PER_QUERY[variant]
    assert ctx.counts["multiply"] - before["multiply"] == multiplies
    assert ctx.counts["relinearize"] - before["relinearize"] == relins


# ------------------------------------------------------------ served DNN


#: The e2e conv and fc (``_e2e_layers`` draw 0), compiled as served: four
#: planned limb drops each, so the giant-step sum runs on 2 of the 3 limbs.
#: The noise model's floor flags the output (it predicts no budget left
#: planner-off too; the measured floors are in ``test_rotation_bases``).
#: ``batched_consts`` counts the live consts since the compile sets it
#: (it read 0 while the first BFV run wrote it).  The limb-row integrals
#: fell (conv 33/27 -> 18/17, fc 45/35 -> 30/25) when the giant-step sum
#: fused ahead of the planner: it walks the one node, not its rotations.
SERVED_DNN_SCHEDULES = {
    "conv": dict(
        _ALL_ZERO, weighted_sum_spans=4, weighted_sum_terms=36,
        rotation_sums=1, rotation_sum_terms=4, resident_nodes=0,
        batched_consts=36,
        limb_drops=4, limb_rows_before=18, limb_rows_after=17,
        predicted_unsafe=1),
    "fc": dict(
        _ALL_ZERO, weighted_sum_spans=4, weighted_sum_terms=16,
        rotation_sums=1, rotation_sum_terms=4, resident_nodes=0,
        batched_consts=16,
        limb_drops=4, limb_rows_before=30, limb_rows_after=25,
        predicted_unsafe=1),
}

#: One served DNN result on its planned 2 limbs: its logical size (the
#: paper's unit, ``size_bytes``: 2 of set B's 3 limbs of the 131,072 B
#: logical ciphertext) and its ``value_digest``.  Its wire size is pinned
#: with the other blob sizes (``tests/test_serialize.py``).
SERVED_DNN_RESULT_BYTES = 87_381
SERVED_DNN_RESULT_DIGESTS = {
    "conv": "a9d30a80af762c2e2bed160579937fa64e09a77686df0f7edfc57aa63d5a5d2b",
    "fc": "e36887c0489dbdce7db631d28302e5c3513899596b1e58536c528a6dff58832e",
}


def _e2e_dnn_inputs(ctx, seed):
    """Draw *seed*'s layers with Galois keys, and each one's input."""
    conv, fc, rng = _e2e_layers(ctx, seed)
    ensure_galois_keys(ctx, conv.required_rotation_steps(),
                       fc.required_rotation_steps())
    image, vec = rng.integers(0, 16, (1, 12, 12)), rng.integers(0, 8, 64)
    return {"conv": (conv, ctx.encrypt_symmetric_many(
                [v.astype(np.int64) for v in conv.pack_input(image)])),
            "fc": (fc, ctx.encrypt_symmetric_many(
                [fc.pack_input(vec).astype(np.int64)]))}


@pytest.mark.parametrize("layer", sorted(SERVED_DNN_SCHEDULES))
def test_served_dnn_schedule_and_result_size(layer):
    ctx = BfvContext(PARAMETER_SET_B, seed=b"served-schedules")
    kernel, cts = _e2e_dnn_inputs(ctx, 0)[layer]
    sched = kernel.scheduled(kernel.input_shape)
    assert _flat_report(sched) == SERVED_DNN_SCHEDULES[layer]
    (out,) = kernel.run((cts,))
    assert len(out.level_base) == 2
    assert out.size_bytes() == SERVED_DNN_RESULT_BYTES
    assert value_digest(out) == SERVED_DNN_RESULT_DIGESTS[layer]


def test_served_dnn_results_decrypt_as_planner_off():
    """Dropping the limbs moves no plaintext: every draw's planned result
    decrypts to the full-chain compile's."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"served-schedules")
    # The full-chain compile rotates every step on all 3 limbs: it runs on
    # full keys, made by a twin of the context (the same secret key).
    twin = BfvContext(PARAMETER_SET_B, seed=b"served-schedules")
    for seed in range(20):
        for layer, (kernel, cts) in _e2e_dnn_inputs(ctx, seed).items():
            (got,) = kernel.run((cts,))
            unplanned = compile_ir(kernel.program(kernel.input_shape),
                                   SchemeType.BFV)
            full = unplanned.run(ctx, {"in0": cts[0]}, ensure_galois_keys(
                twin, unplanned.rotation_steps()))
            assert np.array_equal(ctx.decrypt(got),
                                  ctx.decrypt(full["out0"])), (seed, layer)


def test_lenet_small_downloads_its_planned_limbs():
    """The whole LeNetSm at set B in-process: bit-exact logits, and each of
    the 7 results on 2 limbs instead of 3 (ledger 917,504 -> 611,667 B
    down); the 3 uploads stay on the full chain.  ``limb_drops`` went
    36 -> 38 when the giant-step sum fused ahead of the planner: the fc's
    giant sum is one drop-site node priced by its own accumulation, so
    two more of its spans drop to 2 limbs and the align switches the
    rotate/add chain needed (2) are gone; one sum on 2 limbs runs where a
    3-limb and a 2-limb sum ran."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"served-schedules")
    net = quantize_network_for_encryption(lenet_small(), bits=3)
    image = np.random.default_rng(4).integers(0, 4, (1, 28, 28))
    logits, ledger = run_encrypted_inference(ctx, net, image, bits=3)
    assert np.array_equal(logits, run_reference_inference(net, image, bits=3))
    assert (ledger.client_encrypt_ops, ledger.client_decrypt_ops) == (3, 7)
    assert (ledger.bytes_up, ledger.bytes_down) == (393_216, 611_667)
    assert ledger.limb_drops == 38


# ------------------------------------------- the plan's limb-row integral


def _served_run(name):
    """(kernel, its input groups, every ciphertext on the full chain) of a
    ``KERNEL_VARIANTS`` program at the e2e shape and CKKS set, or of the
    e2e conv or fc at set B."""
    if name.startswith("e2e/"):
        ctx = BfvContext(PARAMETER_SET_B, seed=b"served-schedules")
        kernel, cts = _e2e_dnn_inputs(ctx, 0)[name[len("e2e/"):]]
        return kernel, (cts,)
    ctx = CkksContext(E2E_CKKS, seed=b"served-schedules")
    ctx.relin_keys()
    rng = np.random.default_rng(7)
    points = rng.uniform(-0.5, 0.5, (64, 16))
    query = rng.uniform(-0.5, 0.5, 16)
    kernel = KERNEL_VARIANTS[name](ctx, E2E_PROBLEM)
    ensure_galois_keys(ctx, kernel.required_rotation_steps())
    return kernel, (ctx.encrypt_many(kernel.pack_points(points)),
                    ctx.encrypt_many(kernel.query_slots(query)))


@pytest.mark.parametrize("name", [*sorted(KERNEL_VARIANTS), "e2e/conv",
                                  "e2e/fc"])
def test_the_planned_integral_is_the_executed_one(name):
    """``LevelPlan.limb_rows_after`` is what one run executes: its
    ``limbs_live`` less the rows its live ``mod_switch`` nodes charge,
    every input arriving on the full chain."""
    kernel, groups = _served_run(name)
    ctx = kernel.ctx
    sched = kernel.scheduled(kernel.input_shape)
    assert all(ct.level_base == ctx.params.data_base
               for group in groups for ct in group)
    before = ctx.counts["limbs_live"]
    kernel.run(groups)
    switched = sum(limbs for nid, limbs in sched.limbs.items()
                   if sched.program.nodes[nid].kind == "mod_switch")
    executed = ctx.counts["limbs_live"] - before - switched
    assert sched.report.level_plan.limb_rows_after == executed
