"""IR scheduler speedups: scheduled kernels vs the naive run of their trace.

Gate for the ciphertext-program IR and its fusing scheduler
(:mod:`repro.core.ir`).  Kernels execute one way — body, trace, passes,
scheduled run — so the baseline is the scheduler-off oracle over the SAME
traced program (``kernel.scheduled(shape).run_reference``: one naive
primitive call per node, one key-switch decompose per rotation, constants
re-encoded every call).  The ratio therefore prices everything the passes
add together: hoisting, weighted-sum fusion, NTT residency and cached
plaintext tables, and relinearisation sinking.  Four measurements at
N=4096, two BFV and two CKKS:

* ``fig15_matvec`` — the Figure 15 style fully-connected diagonal matvec
  (31 rotations of one ciphertext).  Must win by at least 3.4x.
* ``dnn_slice`` — a 2-layer dnn slice (3x3 conv then BSGS
  fully-connected), exactness asserted at decrypt level.  The scheduler
  must win by at least 1.5x, and its NTT-residency pass must demonstrably
  fire (``ntt_elided`` > 0 across repeated calls).
* ``knn_collapsed`` — the served client-optimal KNN query (CKKS, 64 points
  x 16 dims, three 30-bit limbs): the collapse round's baby rotations must
  share one decompose (``naive_decompose`` <= 7 per call, where the naive
  run pays one per rotation, 29), and its giant rotations must sum as one
  unweighted ``keyswitch_sum`` of 8 terms (one mod-down for all seven),
  distances checked against numpy.  Must win by at least 1.7x.
* ``knn_dimmajor`` — the served dimension-major KNN query (same set and
  shape, evaluation-form uploads): the scheduled run sums the 16 squares
  in evaluation form as one lazily reduced product sum (the report's one
  ``product_sum`` of 16 terms) and relinearises the sum once
  (``relinearize`` 1 per call, where the naive run pays 16), distances
  checked against numpy.
  Must win by at least 6.6x.

Floors, re-derived from ten runs (each interleaving its reference and
scheduled timing windows) when the baseline moved from the removed
hand-wired kernel path to the naive oracle:

==============  ===================  ===================  ============
kernel          old baseline         naive baseline       floor
==============  ===================  ===================  ============
fig15_matvec    105 ms, 2.68x        283-338 ms,          1.2x -> 6.0x
                                     8.68-9.63x (med 9.1)
dnn_slice       219 ms, 1.56x        262-310 ms,          1.1x -> 1.5x
                                     2.21-2.47x (med 2.3)
knn_collapsed   (new case)           517-726 ms,          2.8x -> 1.7x
                                     4.25-5.12x (med 4.6)  (see below)
knn_dimmajor    (new case)           255-265 ms,          11.0x
                                     16.6-20.3x (med 19.5)
knn_dimmajor,   full-chain query,    237-254 ms,          11.0x (kept)
entry chain     16.6-20.3x           14.51-15.09x
                                     (med 14.94)
==============  ===================  ===================  ============

The four-step NTT (every transform two exact float64 matmuls per modulus
instead of a butterfly network, ~1.8x faster per row) runs under both
sides, and the naive side transforms more rows per call, so every ratio
fell while every side got faster.  Ten interleaved runs at the parent
(butterflies) and at the change (four-step), one fresh process each, BFV /
CKKS as above:

===================  ==========================  ==========================  ============
kernel               parent: reference, sched,   four-step: reference,       floor
                     ratio (median)              sched, ratio (median)
===================  ==========================  ==========================  ============
fig15_matvec         205-320 ms, 25.6-37.8 ms    125-182 ms, 23.8-34.2 ms    6.0x -> 3.4x
                     (med 34.3), 7.06-8.94x      (med 28.8), 5.06-6.18x
                     (med 8.36)                  (med 5.38)
dnn_slice            139-220 ms, 66.9-100 ms     83-134 ms, 41.2-65.6 ms     1.5x (kept)
                     (med 93.3), 2.08-2.43x      (med 55.5), 1.76-2.28x
knn_collapsed        242-399 ms, 79.7-125 ms     149-243 ms, 56.5-89.5 ms    1.7x (kept)
                     (med 111), 2.88-3.64x       (med 79.3), 2.34-2.81x
knn_dimmajor         162-263 ms, 12.2-19.1 ms    91-144 ms, 9.0-13.6 ms      11.0x -> 6.6x
                     (med 16.5), 13.28-14.92x    (med 11.9), 9.88-11.44x
                     (med 14.49)                 (med 10.65)
cold_second_session  186-292 ms, 130-198 ms      124-223 ms, 90.7-143 ms     1.15x (kept)
                     (med 172), 1.42-1.56x       (med 123), 1.35-1.64x
===================  ==========================  ==========================  ============

Two floors moved, by the rule above (about two thirds of the lowest
four-step ratio) and only because every four-step ``scheduled_ms`` is at
or below the parent's median: the scheduled program is no slower, its
naive reference is just cheaper.  No count assertion moved
(``relinearize`` 1, ``weighted_sum_spans`` 1, ``naive_decompose`` <= 7,
``ntt_elided`` > 0).  Each committed record is that kernel's
lower-median four-step run.

The old matvec baseline already ran one fused weighted-sum span
(one hoisted decompose), so its ratio priced only caching and batching;
the new one also prices the 31 -> 1 decompose sharing, which is why it is
3.4x larger.  Each floor sits at about two thirds of the lowest of the ten
ratios.  ``knn_collapsed`` joined with the baby-step/giant-step collapse
round, its ten runs taken the same way; the dnn slice's ratio rose to
2.93-3.38x in those runs (each BSGS baby is now forward-transformed once,
not once per giant step) and its floor stays where it was.  It fell again,
to 1.76-1.92x (eight runs), when the slice's conv became taps x shifts and
its fc hybrid diagonals: the slice rotates 9 + 7 times instead of 17 + 10,
and the naive side pays one decompose per rotation, so the reference fell
from 263 to 152-185 ms while the scheduled side stayed at 83-100 ms — the
kernels now do by construction part of what the scheduler was priced for.
The floor is still cleared and still stays.

The ``knn_collapsed`` ratio then fell without the scheduler changing: the
naive side re-encodes the program's 64 one-hot masks on every call, and
until ``CkksEncoder.encode`` was vectorised each encode rounded 4,096
coefficients in a Python loop (~4 ms), so more than half of the 593 ms
reference — and most of the committed 4.81x — was the encoder, a cost the
scheduled side pays once and caches.  With the array-native encoder ten
runs read reference 258-278 ms, scheduled 97-109 ms, 2.54-2.68x; the floor
is two thirds of the lowest, 1.7x, and the ratio now prices what the
docstring says it does.  The hoisting-only gain stays measured by
``bench_hoisting.py``.

``knn_dimmajor`` joined when ``mul`` and ``relin`` became separate IR
nodes and the sinking pass began to merge ``relin`` pairs below add-trees.
Its ten runs read scheduled 12.8-16.0 ms against the same 255-265 ms
reference; with every product relinearised on the spot the scheduled side
read 95-97 ms (2.7x), so the floor, two thirds of the lowest ratio, fails
a schedule that relinearises per product again.  Since ``pack_query``
returns plaintexts on the query's entry chain, the naive reference runs on
the same two-limb queries as the scheduled side, so the input changed under
both: ten runs on it read reference 237-254 ms, scheduled 16.0-16.9 ms,
14.51-15.09x (the last table row).  The committed record is the
lower-median run (14.89x); the floor stays 11.0x.

``cold_second_session`` prices something else: not the passes but sharing
their output.  It replays the server half of the e2e ``dnn_cold_sessions``
query (Table-3 set B, tiled 3x3 conv 1 -> 4 channels over 12x12, then
hybrid-diagonal BSGS fc 64 -> 10) as a worker sees a *new* session: a fresh restricted context,
fresh kernel instances, the first call of each.  The ``reference_ms`` side
clears ``core.ir``'s shared schedule cache first, so the session compiles
both programs and encodes and forward-transforms every weight plaintext
(222 ``ntt_forward`` rows); the ``scheduled_ms`` side finds the programs
another session left behind and transforms its own ciphertext rows only
(66).  Two thirds of the lowest of ten runs would be below 1.0x, which is
what a cache that shares nothing reads, so this floor sits midway between
1.0x and the lowest run.  With one rotation per (shift, tap) pair and a
squared 64 x 64 fc (100 weight plaintexts, 517 cold rows) ten interleaved
runs read cold 373-423 ms, warm 221-271 ms, 1.51-1.78x, floor 1.25x.  With
the taps x shifts conv and the hybrid-diagonal fc the program a hit saves
compiling is half the size (52 plaintexts): ten runs read cold 220-243 ms,
warm 168-181 ms, 1.29-1.39x (median 1.32), floor 1.15x — both sides got
faster, the cold one by more.  Both sides decrypt to ``reference()``
exactly, and the warm side must record no cache miss.  In the record its
``reference_ms`` is the cleared-cache session and its ``scheduled_ms`` the
warm one.

Weighted-sum fusion then began to take baby-step/giant-step sums: each
giant step of the dnn slice's conv and fc and of the collapse round is one
span over shared baby rotations (one decompose and one inner product per
baby for all of them).  Ten alternating runs per side, scheduled side and
ratio medians, parent -> change: ``fig15_matvec`` 25.0 -> 24.3 ms, 5.52x ->
6.27x; ``dnn_slice`` 46.9 -> 36.4 ms, 1.96x -> 3.04x; ``knn_collapsed``
62.0 -> 55.1 ms, 2.73x -> 3.64x; ``cold_second_session`` 1.41x -> 1.65x;
``knn_dimmajor`` (no span) unchanged.  No floor moved, and the count
checks keep their meaning: ``weighted_sum_spans`` 1 on ``fig15_matvec``,
``naive_decompose`` <= 7 (the collapse round's giant rotations), and
``ntt_elided`` > 0, now 90 rows per slice, all of it the spans' cached
multiplier tables (60 before).

Product-sum fusion then folded ``knn_dimmajor``'s 16 squares and their
sum into one ``product_sum`` node (one stacked block, three lazily reduced
sums); ``_measure_knn_dimmajor`` asserts that one sum of 16 terms, so the
gate fails if the fusion stops applying.  Three alternating runs per side,
parent -> change: ``knn_dimmajor`` scheduled 9.3-11.3 -> 5.6-6.2 ms, ratio
9.3-10.5x -> 15.6-16.8x; the other kernels have no product sum and read
as before within the host's spread.  No floor moved; the record is the
median change run.

Rotation-sum fusion then folded the collapse round's seven giant
rotations and its unrotated shift-0 step into one ``rotation_sum`` (one
inverse transform and one mod-down for the sum); ``_measure_knn_collapsed``
asserts that one sum of 8 terms, so the gate fails if the fusion stops
applying, and the ``naive_decompose`` <= 7 check keeps its meaning (one per
giant source).  Six alternating runs per side, parent -> change:
``knn_collapsed`` scheduled 40.9-63.5 (median 51.6) -> 39.5-51.4 (median
41.0) ms, ratio 3.31-3.92x -> 4.45-5.51x.  The hoisted gathers became one
``np.take`` per rotation in the same change, and the BFV kernels' scheduled
medians moved with it: ``fig15_matvec`` 23.0 -> 19.8 ms, ``dnn_slice``
32.4 -> 28.1 ms, ``cold_second_session`` 82.0 -> 58.7 ms (its warm side);
``knn_dimmajor`` 6.3 -> 6.6 ms, within the host's spread.  No floor moved;
the record is the change's last run.

Spans, rotation sums and rotation groups then became one ``keyswitch_sum``
node run by one primitive (:func:`repro.hecore.hoisting.keyswitch_sum`).
The structural checks read the compiled nodes instead of the report, with
the same numbers: one weighted key-switch sum on ``fig15_matvec``, and one
unweighted sum of 8 terms on ``knn_collapsed``.

``--check`` exits non-zero on a missed floor, a missing residency signal,
or a >20% regression against the committed record,
``benchmarks/results/BENCH_ir.json``, which only ``--record`` rewrites.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from _gate import best_of_pair, record_options, run_speedup_gate
from repro.core import ir
from repro.core.distance import (
    CollapsedPointMajorKernel,
    DimensionMajorKernel,
    DistanceProblem,
)
from repro.core.linalg import BsgsMatVec, Conv2dSpec, EncryptedMatVec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.runtime import KeyKind
from repro.runtime.server import build_restricted_context

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_ir.json"

#: About two thirds of the lowest ratio in ten runs (see the table above;
#: ``cold_second_session`` has its own derivation there).
MIN_SPEEDUP = {
    "fig15_matvec": 3.4,
    "dnn_slice": 1.5,
    "knn_collapsed": 1.7,
    "knn_dimmajor": 6.6,
    "cold_second_session": 1.15,
}

#: The served ``knn_collapsed`` shape; the scheduled run may pay this many
#: unshared key-switch decomposes (the collapse round's giant rotations).
KNN_SHAPE = dict(n_points=64, dims=16)
KNN_NAIVE_DECOMPOSES = 7
#: (unweighted key-switch sums, terms) of its schedule: the 16-slot window
#: sum (the square and its 15 rotations), then the seven giant rotations
#: and the unrotated shift-0 step, each sum finished with one mod-down.
KNN_ROTATION_SUM = (2, 24)
KNN_TOLERANCE = 1e-2

MATVEC_DIM = 32
CONV_SPEC = dict(in_channels=1, out_channels=2, height=8, width=8,
                 kernel_size=3)
FC_SHAPE = (16, 32)

#: The e2e ``dnn_cold_sessions`` model (``benchmarks/e2e/handlers.py``).
COLD_CONV_SPEC = dict(in_channels=1, out_channels=4, height=12, width=12,
                      kernel_size=3)
COLD_FC_SHAPE = (10, 64)


def _make_context():
    params = small_test_parameters(SchemeType.BFV, poly_degree=4096,
                                   plain_bits=16, data_bits=(30, 30))
    return BfvContext(params, seed=b"bench-ir")


def _keyswitch_sums(sched, weighted):
    """The compiled program's live weighted (or unweighted)
    ``keyswitch_sum`` nodes."""
    program = sched.program
    return [program.nodes[nid] for nid in sorted(program.live_set())
            if program.nodes[nid].kind == "keyswitch_sum"
            and bool(program.nodes[nid].weights()) == weighted]


def _naive(ctx, kernel, ct):
    """The kernel's own traced program run through the scheduler-off oracle
    (one naive primitive call per node, nothing cached between calls)."""
    sched = kernel.scheduled((1,))
    return lambda: sched.run_reference(ctx, {"in0": ct})["out0"]


def _measure_fig15_matvec(ctx):
    """Scheduled diagonal matvec vs the naive oracle over the same trace."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(1, 16, size=(MATVEC_DIM, MATVEC_DIM))
    mv = EncryptedMatVec(ctx, matrix)
    ctx.make_galois_keys(mv.required_rotation_steps())
    vec = rng.integers(0, 64, size=MATVEC_DIM)
    ct = ctx.encrypt(ctx.encode(mv.pack_input(vec).astype(np.int64)))
    naive = _naive(ctx, mv, ct)

    t = ctx.params.plain_modulus
    reference = mv.reference(vec) % t
    for run in (lambda: mv(ct), naive):
        got = mv.unpack_output(np.asarray(ctx.decrypt(run())))
        assert np.array_equal(got % t, reference), \
            "scheduled matvec produced wrong values"

    report = mv.schedule_report()
    assert len(_keyswitch_sums(mv.scheduled((1,)), weighted=True)) == 1, \
        "scheduler failed to fuse the diagonal add-tree into one span"
    assert report.batched_consts == MATVEC_DIM, \
        "scheduler failed to batch-encode the diagonal constants"

    return best_of_pair(naive, lambda: mv(ct), 2)


def _measure_dnn_slice(ctx):
    """2-layer dnn slice (conv then BSGS fc), scheduled vs the naive oracle."""
    rng = np.random.default_rng(11)
    spec = Conv2dSpec(**CONV_SPEC)
    weights = rng.integers(-3, 4, (spec.out_channels, spec.in_channels,
                                   spec.kernel_size, spec.kernel_size))
    fc_matrix = rng.integers(-3, 4, FC_SHAPE)

    conv = TiledEncryptedConv2d(ctx, spec, weights)
    fc = BsgsMatVec(ctx, fc_matrix)
    ctx.make_galois_keys(conv.required_rotation_steps()
                         | fc.required_rotation_steps())

    image = rng.integers(0, 4, (spec.in_channels, spec.height, spec.width))
    (packed,) = conv.pack_input(image)
    conv_ct = ctx.encrypt(packed.astype(np.int64))
    fc_vec = rng.integers(0, 8, FC_SHAPE[1])
    fc_ct = ctx.encrypt(fc.pack_input(fc_vec).astype(np.int64))
    naive_conv, naive_fc = _naive(ctx, conv, conv_ct), _naive(ctx, fc, fc_ct)

    # Exactness: the scheduled slice decrypts identically to the oracle.
    for got, want in ((conv([conv_ct])[0], naive_conv()),
                      (fc(fc_ct), naive_fc())):
        assert np.array_equal(np.asarray(ctx.decrypt(got)),
                              np.asarray(ctx.decrypt(want))), \
            "scheduled dnn slice diverged from its reference run"

    # Residency telemetry: repeated scheduled calls must elide NTT pairs.
    before = ctx.counts.get("ntt_elided", 0)
    conv([conv_ct])
    fc(fc_ct)
    elided = ctx.counts.get("ntt_elided", 0) - before
    assert elided > 0, "NTT-residency pass did not fire on the dnn slice"

    def naive():
        naive_conv()
        naive_fc()

    def scheduled():
        conv([conv_ct])
        fc(fc_ct)

    return best_of_pair(naive, scheduled, 2) + (elided,)


def _knn_query(kernel_cls, encrypt):
    """A served-shape KNN query (CKKS, 64 points x 16 dims, three 30-bit
    limbs) uploaded through ``ctx.<encrypt>``: its context and the naive /
    scheduled calls, both checked against numpy, and the compiled
    schedule."""
    ctx = CkksContext(small_test_parameters(SchemeType.CKKS, poly_degree=4096,
                                            data_bits=(30, 30, 30)),
                      seed=b"bench-ir")
    ctx.relin_keys()
    kernel = kernel_cls(ctx, DistanceProblem(**KNN_SHAPE))
    ctx.make_galois_keys(kernel.required_rotation_steps())
    rng = np.random.default_rng(13)
    points = rng.uniform(-0.5, 0.5, (KNN_SHAPE["n_points"], KNN_SHAPE["dims"]))
    query = rng.uniform(-0.5, 0.5, KNN_SHAPE["dims"])
    point_cts = getattr(ctx, encrypt)(kernel.pack_points(points))
    query_cts = getattr(ctx, encrypt)(kernel.pack_query(query))
    sched = kernel.scheduled((len(point_cts), len(query_cts)))
    inputs = {f"in{i}": ct for i, ct in enumerate(point_cts + query_cts)}

    def naive():
        return [sched.run_reference(ctx, inputs)["out0"]]

    def scheduled():
        return kernel.compute(point_cts, query_cts)

    want = kernel.reference(points, query)
    for run in (scheduled, naive):
        got = kernel.decode([np.real(v) for v in ctx.decrypt_many(run())])
        assert np.max(np.abs(got - want)) < KNN_TOLERANCE, \
            f"{kernel.name} knn kernel produced wrong distances"
    return ctx, naive, scheduled, sched


def _measure_knn_collapsed():
    """Collapsed point-major KNN query (CKKS), scheduled vs the naive oracle."""
    ctx, naive, scheduled, sched = _knn_query(CollapsedPointMajorKernel,
                                              "encrypt_many")
    sums = _keyswitch_sums(sched, weighted=False)
    fused = (len(sums), sum(len(node.terms) for node in sums))
    assert fused == KNN_ROTATION_SUM, \
        f"collapse round fused {fused} (unweighted key-switch sums, " \
        f"terms), not {KNN_ROTATION_SUM}"
    before = ctx.counts["naive_decompose"]
    scheduled()
    unshared = ctx.counts["naive_decompose"] - before
    assert unshared <= KNN_NAIVE_DECOMPOSES, \
        f"collapse round paid {unshared} unshared key-switch decomposes"

    return best_of_pair(naive, scheduled, 1)


def _measure_knn_dimmajor():
    """Dimension-major KNN query (CKKS, evaluation-form uploads as served):
    the scheduled run sums its 16 squares as one product sum and
    relinearises the sum once, the naive run each square."""
    ctx, naive, scheduled, sched = _knn_query(DimensionMajorKernel,
                                              "encrypt_symmetric_many")
    fused = (sched.report.product_sums, sched.report.product_sum_terms)
    assert fused == (1, KNN_SHAPE["dims"]), \
        f"dimension-major schedule fused {fused} (sums, terms), not " \
        f"one product sum of {KNN_SHAPE['dims']}"
    for run, want in ((scheduled, 1), (naive, KNN_SHAPE["dims"])):
        before = ctx.counts["relinearize"]
        run()
        paid = ctx.counts["relinearize"] - before
        assert paid == want, \
            f"dimension-major query paid {paid} relinearizations, not {want}"

    return best_of_pair(naive, scheduled, 2)


def _measure_cold_second_session():
    """A new session's first conv + fc call, shared cache cleared vs warm."""
    params = PARAMETER_SET_B
    rng = np.random.default_rng(17)
    spec = Conv2dSpec(**COLD_CONV_SPEC)
    conv_w = rng.integers(1, 4, (spec.out_channels, spec.in_channels,
                                 spec.kernel_size, spec.kernel_size))
    fc_w = rng.integers(1, 4, COLD_FC_SHAPE)

    def kernels(ctx):
        return TiledEncryptedConv2d(ctx, spec, conv_w), BsgsMatVec(ctx, fc_w)

    client = BfvContext(params, seed=b"bench-ir-cold")
    conv, fc = kernels(client)
    keystore = {
        KeyKind.RELIN: client.relin_keys(),
        KeyKind.GALOIS: client.make_galois_keys(
            conv.required_rotation_steps() | fc.required_rotation_steps()),
    }
    image = rng.integers(0, 16, (spec.in_channels, spec.height, spec.width))
    vec = rng.integers(0, 8, COLD_FC_SHAPE[1])
    conv_cts = client.encrypt_symmetric_many(
        [v.astype(np.int64) for v in conv.pack_input(image)])
    (fc_ct,) = client.encrypt_symmetric_many(
        [fc.pack_input(vec).astype(np.int64)])

    def session():
        ctx = build_restricted_context(params, keystore, b"bench-ir")
        server_conv, server_fc = kernels(ctx)
        return server_conv(conv_cts) + [server_fc(fc_ct)], ctx.counts

    def cold():
        ir.clear_program_cache()
        return session()

    t = params.plain_modulus
    for run, misses in ((cold, 2), (session, 0)):
        outs, counts = run()
        slots = client.decrypt_many(outs)
        assert np.array_equal(conv.unpack_outputs(slots[:-1]) % t,
                              conv.reference(image) % t), \
            "cold-session conv produced wrong values"
        assert np.array_equal(fc.unpack_output(slots[-1]) % t,
                              fc.reference(vec) % t), \
            "cold-session fc produced wrong values"
        assert counts["program_cache_misses"] == misses, \
            "shared schedule cache did not serve the second session"

    return best_of_pair(cold, session, 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the scheduler misses its floors or regresses "
        ">20%% vs the committed record",
    )
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    ctx = _make_context()
    matvec = _measure_fig15_matvec(ctx)
    slice_naive, slice_sched, elided = _measure_dnn_slice(ctx)
    measurements = {
        "fig15_matvec": matvec,
        "dnn_slice": (slice_naive, slice_sched),
        "knn_collapsed": _measure_knn_collapsed(),
        "knn_dimmajor": _measure_knn_dimmajor(),
        "cold_second_session": _measure_cold_second_session(),
    }
    extra = {
        "poly_degree": ctx.params.poly_degree,
        "data_moduli": [int(p) for p in ctx.params.data_base.moduli],
        "ntt_elided_per_slice": int(elided),
    }
    print(f"  ntt pairs elided per scheduled dnn slice: {elided}")
    return run_speedup_gate(measurements, MIN_SPEEDUP,
                            ("reference", "scheduled"), extra, args)


if __name__ == "__main__":
    sys.exit(main())
