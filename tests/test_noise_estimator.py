"""The static noise estimator vs the real, measured budgets."""

import numpy as np
import pytest

from repro.hecore.bfv import BfvContext
from repro.hecore.noise import PROGRAM_SLACK_BITS, NoiseEstimator
from repro.hecore.params import EncryptionParameters, SchemeType

TOLERANCE_BITS = 14   # the fresh-budget constant differs a few bits from SEAL


@pytest.fixture(scope="module")
def setup():
    params = EncryptionParameters.create(
        SchemeType.BFV, 2048, (30, 30, 30), plain_bits=16,
        enforce_security=False)
    ctx = BfvContext(params, seed=13)
    ctx.make_galois_keys([1, 2])
    return params, ctx


def test_fresh_estimate_tracks_measurement(setup):
    params, ctx = setup
    est = NoiseEstimator(params).fresh()
    measured = ctx.noise_budget(ctx.encrypt(np.arange(32, dtype=np.int64)))
    assert abs(est.budget_bits - measured) <= TOLERANCE_BITS


def test_rotation_estimate(setup):
    params, ctx = setup
    estimator = NoiseEstimator(params)
    ct = ctx.encrypt(np.arange(32, dtype=np.int64))
    measured_drop = ctx.noise_budget(ct) - ctx.noise_budget(ctx.rotate_rows(ct, 1))
    predicted_drop = (estimator.fresh().budget_bits
                      - estimator.after_rotation(estimator.fresh()).budget_bits)
    assert abs(measured_drop - predicted_drop) <= 3


def test_multiply_plain_estimate(setup):
    params, ctx = setup
    estimator = NoiseEstimator(params)
    ct = ctx.encrypt(np.arange(32, dtype=np.int64))
    pt = ctx.encode(np.arange(params.poly_degree, dtype=np.int64)
                    % params.plain_modulus)
    measured_drop = (ctx.noise_budget(ct)
                     - ctx.noise_budget(ctx.multiply_plain(ct, pt)))
    predicted_drop = (estimator.fresh().budget_bits
                      - estimator.after_multiply_plain(estimator.fresh()).budget_bits)
    assert abs(measured_drop - predicted_drop) <= 6


def test_sequence_prediction_conservative(setup):
    """After a realistic sequence the prediction errs on the safe side."""
    params, ctx = setup
    estimator = NoiseEstimator(params)
    est = estimator.fresh()
    ct = ctx.encrypt(np.arange(16, dtype=np.int64))
    pt = ctx.encode(np.full(params.poly_degree, 3, dtype=np.int64))
    for _ in range(2):
        ct = ctx.rotate_rows(ct, 1)
        est = estimator.after_rotation(est)
        ct = ctx.multiply_plain(ct, pt)
        est = estimator.after_multiply_plain(est)
        ct = ctx.add(ct, ct)
        est = estimator.after_add(est)
    measured = ctx.noise_budget(ct)
    # Estimator never promises more budget than exists (small multipliers
    # consume less than the worst-case t-sized model assumes).
    assert est.budget_bits <= measured + TOLERANCE_BITS
    if est.is_safe():
        assert measured > 0   # a safe prediction must decrypt


def test_segment_feasibility_flags_depth():
    params = EncryptionParameters.create(
        SchemeType.BFV, 4096, (36, 36, 37), plain_bits=18)
    estimator = NoiseEstimator(params)
    assert estimator.segment_is_feasible(plain_mult_depth=1, rotations=10)
    assert not estimator.segment_is_feasible(plain_mult_depth=4, rotations=10)
    assert not estimator.segment_is_feasible(
        plain_mult_depth=1, rotations=10, masked_permutations=3)


def test_masked_permutation_costs_more_than_rotation():
    params = EncryptionParameters.create(
        SchemeType.BFV, 4096, (36, 36, 37), plain_bits=18)
    estimator = NoiseEstimator(params)
    fresh = estimator.fresh()
    assert (estimator.after_masked_permutation(fresh).budget_bits
            < estimator.after_rotation(fresh).budget_bits)


def _run_reference(ctx, program, rng):
    """Scheduler-off execution of a traced program, for measured budgets."""
    from repro.core.ir import (ScheduledProgram, ScheduleReport,
                               ensure_galois_keys)
    raw = ScheduledProgram(program, ctx.params.scheme, ScheduleReport(),
                           set())
    keys = ensure_galois_keys(ctx, raw.rotation_steps())
    inputs = {name: ctx.encrypt(rng.integers(0, 7, 512))
              for name in ("x", "y")}
    return raw.run_reference(ctx, inputs, keys)


@pytest.mark.parametrize("seed", range(5))
def test_budget_after_randomized_dag_within_slack(bfv, bfv_params, seed):
    """``budget_after`` walks a whole IR DAG: per output, the prediction
    never promises more than measurement + the documented slack, and a
    prediction that claims safety must actually decrypt."""
    from tests.test_ir import _random_bfv_program

    rng = np.random.default_rng(seed)
    program = _random_bfv_program(bfv_params, rng, n_ops=12)
    predicted = NoiseEstimator(bfv_params).budget_after(program)
    assert set(predicted) == set(program.outputs)

    outputs = _run_reference(bfv, program, rng)
    for name, est in predicted.items():
        measured = bfv.noise_budget(outputs[name])
        assert est.budget_bits <= measured + PROGRAM_SLACK_BITS, \
            f"seed {seed} output {name}: predicted {est.budget_bits:.1f} " \
            f"overshoots measured {measured:.1f}"
        if est.is_safe():
            assert measured > 0, \
                f"seed {seed} output {name}: safe prediction failed to " \
                f"decrypt"


@pytest.mark.parametrize("seed", range(3))
def test_budget_after_tracks_planned_limb_drops(bfv, bfv_params, seed):
    """The walk prices planner-inserted ``mod_switch`` nodes: predictions
    over the *planned* program stay conservative and flag no unsafe
    outputs that the runtime then decrypts fine."""
    from repro.core.ir import compile_ir, ensure_galois_keys
    from tests.test_ir import _random_bfv_program

    rng = np.random.default_rng(50 + seed)
    program = _random_bfv_program(bfv_params, rng, n_ops=12)
    sched = compile_ir(program, SchemeType.BFV, params=bfv_params)
    predicted = NoiseEstimator(bfv_params).budget_after(sched.program)

    keys = ensure_galois_keys(bfv, sched.rotation_steps())
    inputs = {name: bfv.encrypt(rng.integers(0, 7, 512))
              for name in ("x", "y")}
    outputs = sched.run(bfv, inputs, keys)
    for name, est in predicted.items():
        measured = bfv.noise_budget(outputs[name])
        assert est.budget_bits <= measured + PROGRAM_SLACK_BITS
        if est.is_safe():
            assert measured > 0


def test_rejects_ckks():
    params = EncryptionParameters.create(
        SchemeType.CKKS, 2048, (30, 24), scale_bits=20, enforce_security=False)
    with pytest.raises(ValueError):
        NoiseEstimator(params)
