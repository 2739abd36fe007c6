"""Level-aware planner speedups: planned programs vs planner-off schedules.

Gate for the level planner (:mod:`repro.core.levelplan`) riding on the
ciphertext-program IR.  Both measurements compare the SAME scheduled
program compiled with and without the planner, so the delta isolates
modulus-chain trimming (every other pass — fusion, batching, residency —
runs on both sides).  BFV at N=4096 with a six-limb data chain:

* ``fig15_matvec_chain`` — four diagonal-matvec layers traced as one
  program.  The planner prices each layer's remaining noise spend with
  :class:`repro.hecore.noise.NoiseEstimator` and mod-switches limbs away
  the moment no consumer needs them, so successive layers run on 6, 5, 4,
  and 3 residues instead of six everywhere.  Must win by at least 1.2x,
  with ``limb_drops > 0`` telemetry in both the context counters and a
  :class:`~repro.core.protocol.CostLedger`, and a smaller result
  ciphertext on the wire.
* ``dnn_slice`` — a Table-5 style slice in its served shape: the conv
  kernel's program, the client round trip (decrypt, re-encrypt), then the
  fully-connected kernel's program, each program compiled planner-on and
  planner-off and the round trip timed on both sides.  Planner-on, each
  program drops its own limbs and the fc drops the re-encrypted input to
  its planned entry level (:meth:`repro.core.ir.ScheduledProgram.
  entry_limbs`, recorded as ``fc_entry_limbs``).  Must win by at least
  1.25x, exactness asserted at decrypt level.

``--check`` exits non-zero on a missed floor, missing telemetry, a
non-shrinking wire format, or a >20% regression against the committed
record, ``benchmarks/results/BENCH_level_planner.json``, which only
``--record`` rewrites.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from _gate import best_of_pair, record_options, run_speedup_gate
from repro.core.ir import compile_ir, trace_program
from repro.core.linalg import BsgsMatVec, Conv2dSpec
from repro.core.protocol import ClientAidedSession
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.bfv import BfvContext
from repro.hecore.params import SchemeType, small_test_parameters

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_level_planner.json"

#: The planner must beat the planner-off schedule of the same program by
#: these factors (the matvec-chain floor is the issue's acceptance bar).
MIN_SPEEDUP = {
    "fig15_matvec_chain": 1.2,
    "dnn_slice": 1.25,
}

CHAIN_DIM = 16
CHAIN_LAYERS = 4
CONV_SPEC = dict(in_channels=1, out_channels=2, height=8, width=8,
                 kernel_size=3)
FC_SHAPE = (16, 32)


def _make_context():
    params = small_test_parameters(SchemeType.BFV, poly_degree=4096,
                                   plain_bits=16,
                                   data_bits=(30, 30, 30, 30, 30, 30))
    return BfvContext(params, seed=b"bench-level-planner")


def _trace_chain(ctx, mats):
    """CHAIN_LAYERS diagonal matvecs traced as one ciphertext program."""
    slots = ctx.params.poly_degree

    def chain(tc, x):
        for m in mats:
            acc = None
            for d in range(CHAIN_DIM):
                diag = np.array([m[r, (r + d) % CHAIN_DIM]
                                 for r in range(CHAIN_DIM)])
                tiled = np.tile(diag, slots // CHAIN_DIM)
                term = tc.multiply_plain(tc.rotate(x, d), tc.encode(tiled))
                acc = term if acc is None else tc.add(acc, term)
            x = acc
        return x

    return trace_program(ctx.params, chain, ["x"])


def _measure_matvec_chain(ctx):
    """The fig15-style matvec chain, planner-on vs planner-off."""
    rng = np.random.default_rng(7)
    mats = [rng.integers(0, 7, size=(CHAIN_DIM, CHAIN_DIM))
            for _ in range(CHAIN_LAYERS)]
    program = _trace_chain(ctx, mats)
    sched_off = compile_ir(program, ctx.params.scheme)
    sched_on = compile_ir(program, ctx.params.scheme, params=ctx.params)
    ctx.make_galois_keys(sched_on.rotation_steps()
                         | sched_off.rotation_steps())

    plan = sched_on.report.level_plan
    assert plan is not None and plan.limb_drops > 0, \
        "the level planner inserted no limb drops on the matvec chain"

    t = ctx.params.plain_modulus
    vec = rng.integers(0, 7, size=CHAIN_DIM)
    ct = ctx.encrypt(np.tile(vec, ctx.params.poly_degree // CHAIN_DIM))
    expected = vec.copy()
    for m in mats:
        expected = (m @ expected) % t

    r_off = sched_off.run(ctx, {"x": ct})["out0"]
    before = {k: ctx.counts.get(k, 0) for k in ("limb_drops", "limbs_live")}
    r_on = sched_on.run(ctx, {"x": ct})["out0"]
    drops = ctx.counts.get("limb_drops", 0) - before["limb_drops"]
    live = ctx.counts.get("limbs_live", 0) - before["limbs_live"]
    assert drops > 0, "no planned limb drop executed at runtime"
    assert live > 0, "limbs-live telemetry did not accumulate"
    for r in (r_off, r_on):
        got = np.asarray(ctx.decrypt(r))[:CHAIN_DIM] % t
        assert np.array_equal(got, expected), \
            "matvec chain decrypted to the wrong values"

    bytes_off, bytes_on = r_off.size_bytes(), r_on.size_bytes()
    assert bytes_on < bytes_off, \
        "the planned chain did not shrink the result ciphertext"

    # CostLedger visibility: the same planned program metered through a
    # client-aided session must surface the planner counters.
    session = ClientAidedSession(ctx)
    session.server_compute(sched_on.run, ctx, {"x": ct})
    assert session.ledger.limb_drops > 0, \
        "limb_drops did not reach the CostLedger"
    assert session.ledger.limbs_live > 0, \
        "limbs_live did not reach the CostLedger"

    off_s, on_s = best_of_pair(lambda: sched_off.run(ctx, {"x": ct}),
                               lambda: sched_on.run(ctx, {"x": ct}), 1,
                               rounds=4)
    return off_s, on_s, drops, bytes_off, bytes_on


def _trace_slice(ctx, rng):
    """The slice's two kernel programs, (conv, fc), each reading ``in0``;
    returns them with the conv kernel (whose packing lays out the input
    image)."""
    spec = Conv2dSpec(**CONV_SPEC)
    weights = rng.integers(-3, 4, (spec.out_channels, spec.in_channels,
                                   spec.kernel_size, spec.kernel_size))
    fc_matrix = rng.integers(-3, 4, FC_SHAPE)
    conv = TiledEncryptedConv2d(ctx, spec, weights)
    fc = BsgsMatVec(ctx, fc_matrix)
    return (conv.program((1,)), fc.program((1,))), conv


def _run_slice(ctx, conv_sched, fc_sched, ct):
    """One slice query: conv, the client round trip, fc."""
    mid = conv_sched.run(ctx, {"in0": ct})["out0"]
    fresh = ctx.encrypt(ctx.decrypt(mid))
    return fc_sched.run(ctx, {"in0": fresh})["out0"]


def _measure_dnn_slice(ctx):
    """Conv -> client round trip -> fc, planner-on vs planner-off."""
    rng = np.random.default_rng(11)
    programs, conv = _trace_slice(ctx, rng)
    spec = conv.spec

    scheme = ctx.params.scheme
    off = [compile_ir(p, scheme) for p in programs]
    on = [compile_ir(p, scheme, params=ctx.params) for p in programs]
    ctx.make_galois_keys(set().union(*(s.rotation_steps()
                                       for s in off + on)))

    assert all(s.report.level_plan.limb_drops > 0 for s in on), \
        "the level planner inserted no limb drops on a dnn slice program"
    fc_entry = on[1].entry_limbs()["in0"]

    image = rng.integers(0, 4, (spec.in_channels, spec.height, spec.width))
    (packed,) = conv.pack_input(image)
    ct = ctx.encrypt(packed.astype(np.int64))

    got_off = np.asarray(ctx.decrypt(_run_slice(ctx, *off, ct)))
    got_on = np.asarray(ctx.decrypt(_run_slice(ctx, *on, ct)))
    t = ctx.params.plain_modulus
    assert np.array_equal(got_off % t, got_on % t), \
        "the planned dnn slice diverged from the planner-off schedule"

    off_s, on_s = best_of_pair(lambda: _run_slice(ctx, *off, ct),
                               lambda: _run_slice(ctx, *on, ct), 1,
                               rounds=4)
    return off_s, on_s, fc_entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the planner misses its floors or regresses "
        ">20%% vs the committed record",
    )
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    ctx = _make_context()
    chain_off, chain_on, drops, bytes_off, bytes_on = \
        _measure_matvec_chain(ctx)
    slice_off, slice_on, fc_entry = _measure_dnn_slice(ctx)
    measurements = {
        "fig15_matvec_chain": (chain_off, chain_on),
        "dnn_slice": (slice_off, slice_on),
    }
    extra = {
        "poly_degree": ctx.params.poly_degree,
        "data_moduli": [int(p) for p in ctx.params.data_base.moduli],
        "limb_drops_per_chain": int(drops),
        "fc_entry_limbs": int(fc_entry),
        "result_bytes_planner_off": int(bytes_off),
        "result_bytes_planner_on": int(bytes_on),
        "wire_reduction": round(bytes_off / bytes_on, 3),
    }
    limbs = len(ctx.params.data_base)
    print(f"  limb drops per planned chain: {drops}; "
          f"the dnn slice's fc enters on {fc_entry} of {limbs} limbs")
    print(f"  result ciphertext: {bytes_off} B -> {bytes_on} B "
          f"({bytes_off / bytes_on:.2f}x smaller)")
    return run_speedup_gate(measurements, MIN_SPEEDUP,
                            ("planner_off", "planner_on"), extra, args)


if __name__ == "__main__":
    sys.exit(main())
