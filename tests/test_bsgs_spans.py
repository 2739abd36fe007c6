"""Double-hoisted baby-step/giant-step sums in the served kernels.

Every giant step of a baby-step/giant-step (BSGS) sum is a masked sum over
baby rotations that the other giant steps share.  The weighted-sum fusion
pass turns each into one weighted ``keyswitch_sum`` node, and the runner
serves all nodes over one source from one hoisted decompose and one
key-switch inner product per baby Galois element.  Covered here, for the
three served BSGS kernels (the e2e fc and conv at Table-3 set B, the
collapsed KNN round at the e2e CKKS set):

* the compiled program: one weighted sum per giant step, no live baby
  rotation, the giant rotations summed as one unweighted
  ``keyswitch_sum``, and the traced key set;
* the run: one hoisted decompose per span source, each baby charged as
  one rotation;
* the values: BFV bit for bit against the scheduler-off oracle and the
  plaintext reference, CKKS within the e2e tolerance of numpy.

It also pins what the fusion change must not move: the bytes of an
existing single-consumer BFV span (the compiled schedules of every KNN
packing are pinned in ``test_served_schedules.py``).
"""

import hashlib

import numpy as np
import pytest

from repro.core.distance import (
    CollapsedPointMajorKernel,
    DistanceProblem,
    StackedPointMajorKernel,
)
from repro.core.ir import compile_ir, ensure_galois_keys
from repro.core.linalg import BsgsMatVec, Conv2dSpec, EncryptedMatVec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.keys import galois_element_for_step, keyswitch_ext_base
from repro.hecore.modmath import mod_reduce
from repro.hecore.ntt import get_stack_plan
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.hecore.rns import RnsBase

E2E_CKKS = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))
E2E_CONV = Conv2dSpec(in_channels=1, out_channels=4, height=12, width=12,
                      kernel_size=3)
#: The e2e benchmark's distance tolerance.  The e2e CKKS set encodes at a
#: 2**24 scale: over the half-unit cube the scheduled collapse reads
#: 1.7e-3 to 2.8e-3 from numpy, with or without spans, and so does the
#: scheduler-off oracle, so 1e-3 is below the set's own precision.
CKKS_TOL = 1e-2


def _weights(rng, shape):
    """The e2e benchmark's weight range: no zero, so no tap is skipped."""
    return rng.integers(1, 4, size=shape) * rng.choice((-1, 1), size=shape)


@pytest.fixture(scope="module")
def set_b():
    return BfvContext(PARAMETER_SET_B, seed=b"bsgs-spans")


@pytest.fixture(scope="module")
def e2e_ckks():
    ctx = CkksContext(E2E_CKKS, seed=b"bsgs-spans")
    ctx.relin_keys()
    return ctx


def _fc_case(ctx):
    rng = np.random.default_rng(1)
    kernel = BsgsMatVec(ctx, _weights(rng, (10, 64)))
    vec = rng.integers(0, 8, 64)
    diagonals = [j for j, _ in kernel._diagonal_masks()]
    b = kernel.baby_count
    t = ctx.params.plain_modulus

    def check(outputs, oracle):
        got, want = (kernel.unpack_output(np.asarray(ctx.decrypt(ct))) % t
                     for ct in (outputs[0], oracle[0]))
        assert np.array_equal(got, want)
        assert np.array_equal(got, kernel.reference(vec) % t)

    return dict(kernel=kernel, inputs=[ctx.encrypt_symmetric(
                    kernel.pack_input(vec).astype(np.int64))],
                giants={j - j % b for j in diagonals},
                babies={j % b for j in diagonals} - {0}, forward=0,
                windows=0, check=check)


def _conv_case(ctx):
    rng = np.random.default_rng(2)
    kernel = TiledEncryptedConv2d(ctx, E2E_CONV, _weights(rng, (4, 1, 3, 3)))
    image = rng.integers(0, 16, (1, 12, 12))
    (terms,) = kernel._plan
    t = ctx.params.plain_modulus

    def check(outputs, oracle):
        got, want = (kernel.unpack_outputs(
            [np.asarray(ctx.decrypt(ct)) for ct in cts]) % t
            for cts in (outputs, oracle))
        assert np.array_equal(got, want)
        assert np.array_equal(got, kernel.reference(image) % t)

    return dict(kernel=kernel, inputs=ctx.encrypt_symmetric_many(
                    [v.astype(np.int64) for v in kernel.pack_input(image)]),
                giants={shift for _, _, shift, _ in terms},
                babies={tap for _, tap, _, _ in terms} - {0}, forward=0,
                windows=0, check=check)


def _collapsed_case(ctx):
    rng = np.random.default_rng(3)
    kernel = CollapsedPointMajorKernel(ctx, DistanceProblem(64, 16))
    points = rng.uniform(-0.5, 0.5, (64, 16))
    query = rng.uniform(-0.5, 0.5, 16)
    stride = kernel.problem.padded_dims - 1
    b = kernel.baby_count

    def check(outputs, oracle):
        got, want = (kernel.decode([np.real(ctx.decrypt(cts[0]))])
                     for cts in (outputs, oracle))
        reference = kernel.reference(points, query)
        assert np.max(np.abs(got - reference)) < CKKS_TOL
        assert np.max(np.abs(want - reference)) < CKKS_TOL

    return dict(kernel=kernel, inputs=kernel.encrypt_points(points)
                + kernel.encrypt_query(query),
                giants=set(range(0, kernel.occupied, b)),
                babies={a * stride for a in range(1, b)},
                # The square's operand, transformed once: public-key
                # uploads arrive in coefficient form (2 components x 3 limbs).
                forward=6, windows=1, check=check)


def _stacked_point_case(ctx):
    """The collapse's point-major half alone: one window sum, no span."""
    rng = np.random.default_rng(4)
    kernel = StackedPointMajorKernel(ctx, DistanceProblem(64, 16))
    return dict(kernel=kernel, inputs=kernel.encrypt_points(
                    rng.uniform(-0.5, 0.5, (64, 16)))
                + kernel.encrypt_query(rng.uniform(-0.5, 0.5, 16)))


CASES = {"fc": (_fc_case, "set_b"), "conv": (_conv_case, "set_b"),
         "collapsed": (_collapsed_case, "e2e_ckks")}

#: Every served kernel with a key-switch sum, for the meter comparison.
METERED = dict(CASES, **{"stacked-point": (_stacked_point_case, "e2e_ckks")})


def _served(request, name):
    build, ctx_fixture = METERED[name]
    ctx = request.getfixturevalue(ctx_fixture)
    case = build(ctx)
    ensure_galois_keys(ctx, case["kernel"].required_rotation_steps())
    return ctx, case


@pytest.fixture(params=sorted(CASES))
def served(request):
    return _served(request, request.param)


def _live(program, kind):
    return [program.nodes[nid] for nid in sorted(program.live_set())
            if program.nodes[nid].kind == kind]


def _sums(program, weighted):
    """The live weighted (or unweighted) ``keyswitch_sum`` nodes."""
    return [node for node in _live(program, "keyswitch_sum")
            if bool(node.weights()) == weighted]


def test_each_giant_step_is_one_span_and_no_baby_stays(served):
    _, case = served
    kernel = case["kernel"]
    shape = kernel.input_shape
    traced = kernel.program(shape)
    compiled = kernel.scheduled(shape).program
    spans = _sums(compiled, weighted=True)
    assert len(spans) == len(case["giants"])
    assert kernel.scheduled(shape).report.weighted_sum_spans == len(spans)
    assert {s for span in spans for s, _, _ in span.terms} - {0} \
        == case["babies"]
    assert not {n.steps for n in _live(compiled, "rotate")} & case["babies"]
    assert case["babies"] <= {n.steps for n in _live(traced, "rotate")}
    # The giant rotations, one per span but the unrotated one, finish as
    # one unweighted key-switch sum, after the kernel's window sums (each
    # one too: a value and its rotations by 1 .. width-1).
    *windows, giant_sum = _sums(compiled, weighted=False)
    assert len(windows) == case["windows"]
    for window in windows:
        assert [s for s, _, _ in window.terms] == list(range(len(
            window.terms)))
    assert len(giant_sum.terms) == len(case["giants"])
    assert [s for s, _, _ in giant_sum.terms].count(0) == 1
    # The key set is read off the trace: fusion moved no step.
    assert compiled.rotation_steps() == traced.rotation_steps()


def test_spans_share_one_decompose_and_charge_each_baby_once(served):
    ctx, case = served
    kernel = case["kernel"]
    shape = kernel.input_shape
    sched = kernel.scheduled(shape)
    inputs = {f"in{i}": ct for i, ct in enumerate(case["inputs"])}
    sched.run(ctx, inputs)                      # fill the span tables
    before = ctx.counts.copy()
    sched.run(ctx, inputs)
    spent = {name: ctx.counts[name] - before[name]
             for name in ("hoisted_decompose", "rotate", "ntt_forward")}

    program = sched.program
    sources = {n.args[0] for n in _sums(program, weighted=True)}
    assert len(sources) == 1
    assert spent["hoisted_decompose"] == len(sources) + case["windows"]
    assert spent["rotate"] == (len(case["babies"])
                               + len(_live(program, "rotate"))
                               + sum(1 for n in _sums(program, weighted=False)
                                     for step, _, _ in n.terms if step))
    assert spent["ntt_forward"] == case["forward"], \
        "a warm span transforms no row (only a square's operand does)"


def test_results_match_the_oracle_and_the_reference(served):
    ctx, case = served
    kernel = case["kernel"]
    sched = kernel.scheduled(kernel.input_shape)
    inputs = {f"in{i}": ct for i, ct in enumerate(case["inputs"])}
    got = sched.run(ctx, inputs)
    oracle = sched.run_reference(ctx, inputs)
    case["check"]([got[name] for name in sorted(got)],
                  [oracle[name] for name in sorted(oracle)])


@pytest.mark.parametrize("name", sorted(METERED))
def test_a_sum_charges_the_adds_of_the_tree_it_replaces(request, name):
    """Every ``keyswitch_sum``, weighted or not, charges ``add`` for the
    add-tree it replaces and ``rotate`` for each rotation it absorbs, so a
    scheduled run meters the oracle's adds and rotations: the BFV fc and
    conv, and the CKKS collapse and stacked-point packing, whose window
    sums are key-switch sums too."""
    ctx, case = _served(request, name)
    kernel = case["kernel"]
    sched = kernel.scheduled(kernel.input_shape)
    inputs = {f"in{i}": ct for i, ct in enumerate(case["inputs"])}
    spent = []
    for run in (sched.run, sched.run_reference):
        before = ctx.counts.copy()
        run(ctx, inputs)
        spent.append({name: ctx.counts[name] - before[name]
                      for name in ("add", "rotate")})
    assert spent[0] == spent[1]
    assert spent[0]["add"] > 0 and spent[0]["rotate"] > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_weight_tables_match_the_per_term_construction(request, name):
    """A served program's weight tables sum each (source, Galois element)
    pair's weights in int64 and lift or reduce once: bit for bit the
    tables built term by term, each weight lifted (BFV) or encoded (CKKS)
    over the extended base and added and reduced into its pair."""
    ctx, case = _served(request, name)
    kernel = case["kernel"]
    sched = kernel.scheduled(kernel.input_shape)
    sched.run(ctx, {f"in{i}": ct for i, ct in enumerate(case["inputs"])})
    assert sched._weight_tables
    n = ctx.params.poly_degree
    for (nid, moduli, _), table in sched._weight_tables.items():
        ext = keyswitch_ext_base(RnsBase.of(moduli), ctx.params)
        by_pair = {}
        for step, src, cid in sched.program.nodes[nid].terms:
            if cid < 0:
                continue
            if ctx.params.scheme is SchemeType.BFV:
                residues = ext.lift_signed(sched._bfv_plain(ctx, cid).coeffs)
            else:
                residues = ctx.encoder.encode(
                    sched.program.nodes[cid].values, base=ext).poly.data
            pair = (src, galois_element_for_step(step, n))
            by_pair[pair] = mod_reduce(by_pair.get(pair, 0) + residues,
                                       ext.moduli)
        assert table.pairs == tuple(sorted(by_pair))
        want = get_stack_plan(n, ext.moduli).forward_batch(
            np.stack([by_pair[pair] for pair in table.pairs]))
        assert np.array_equal(table.m_ntt, want)


# ------------------------------------------------------ what must not move

#: ``sha256`` of the output ciphertext's residues (``is_ntt`` byte, then the
#: int64 rows, per component) of the 32 x 32 ``EncryptedMatVec`` below,
#: recorded before spans took shared baby rotations: folding the identity
#: term into the extended accumulator as ``P·(m (*) c)`` is exact.
FIG15_SPAN_DIGEST = (
    "3626fb81212da518d183f22243c81d777166774b4c81605a3d3db3f08b57a380")


def test_single_consumer_bfv_span_bytes_did_not_move():
    params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                   plain_bits=16, data_bits=(30, 30, 30))
    ctx = BfvContext(params, seed=1234)
    rng = np.random.default_rng(7)
    kernel = EncryptedMatVec(ctx, rng.integers(1, 16, size=(32, 32)))
    ctx.make_galois_keys(kernel.required_rotation_steps())
    ct = ctx.encrypt(ctx.encode(
        kernel.pack_input(rng.integers(0, 64, 32)).astype(np.int64)))
    # The digest was recorded on the full chain: hash the planner-off
    # compile of the same trace, then hold the terminal (planned) run to
    # the same plaintext.
    chained = compile_ir(kernel.program((1,)), params.scheme)
    assert chained.report.weighted_sum_spans == 1
    out = chained.run(ctx, {"in0": ct})["out0"]
    h = hashlib.sha256()
    for c in out.components:
        h.update(bytes([c.is_ntt]))
        h.update(np.ascontiguousarray(c.data, dtype=np.int64).tobytes())
    assert h.hexdigest() == FIG15_SPAN_DIGEST
    assert np.array_equal(ctx.decrypt(kernel(ct)), ctx.decrypt(out))
