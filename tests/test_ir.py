"""Tests for the ciphertext-program IR and its fusing scheduler.

Covers the tracer/builder surface, each scheduling pass in isolation
(weighted-sum fusion, product-sum fusion, rotation grouping, level-drop
and relinearisation sinking, NTT residency), the residency telemetry
counters, and — the main
invariant — randomized expression DAGs where the scheduled execution must
match a scheduler-off reference that runs one primitive call per IR node,
and where no 3-component value (a ct x ct product or a sum of them) feeds
anything but a ``relin``.
"""

import ast
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.pagerank import ClientAidedPageRank, _Iteration
from repro.core.compiler import EvaProgram, Input, compile_program
from repro.core.distance import (
    KERNEL_VARIANTS,
    DimensionMajorKernel,
    DistanceProblem,
    MultiQueryDimensionMajor,
)
from repro.core.ir import (
    IrBuilder,
    IrNode,
    IrProgram,
    ScheduledProgram,
    ScheduleError,
    ScheduleReport,
    TracerContext,
    _fuse_weighted_sums,
    _sink_level_drops,
    compile_ir,
    ensure_galois_keys,
    level_after,
    trace_program,
)
from repro.core.linalg import (
    BsgsMatVec,
    Conv2dSpec,
    EncryptedMatVec,
    _window_sum,
)
from repro.core.lola import AlternatingMatVec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.keys import MissingEvaluationKey
from repro.hecore.ntt import NttStackPlan
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.rns import RnsBase
from repro.hecore.serialize import serialize_ciphertext


def _raw(program, scheme):
    """A pass-free schedule: the scheduler-off oracle (one primitive call
    per traced node, no fusion, no residency, no caching)."""
    return ScheduledProgram(program, scheme, ScheduleReport(), set())


def _run_both(ctx, program, inputs):
    """Execute *program* scheduled and scheduler-off under shared keys."""
    sched = compile_ir(program, ctx.params.scheme)
    raw = _raw(program, ctx.params.scheme)
    keys = ensure_galois_keys(ctx, sched.rotation_steps(),
                              raw.rotation_steps())
    got = sched.run(ctx, inputs, keys)
    want = raw.run_reference(ctx, inputs, keys)
    return sched, got, want


# --------------------------------------------------------------- builder/IR

def test_builder_records_linear_program():
    b = IrBuilder(slots=8)
    x = b.input("x")
    y = b.add(b.rotate(x, 1), b.mul(x, b.const(np.ones(8))))
    b.output("out0", y)
    kinds = [n.kind for n in b.program.nodes]
    assert kinds == ["input", "rotate", "const", "mul", "add"]
    assert b.program.outputs == {"out0": 4}


def test_ir_nodes_are_frozen():
    """A pass rewrites a program by replacing list entries, never a node's
    fields, so a compiled program shares its source's nodes."""
    b = IrBuilder(slots=8)
    b.output("out0", b.rotate(b.input("x"), 1))
    node = b.program.nodes[1]
    with pytest.raises(FrozenInstanceError):
        node.steps = 2
    sched = compile_ir(b.program, SchemeType.BFV)
    assert sched.program.nodes[0] is b.program.nodes[0]
    assert sched.program.nodes is not b.program.nodes


def test_ir_nodes_default_like_a_dataclass():
    """A node keeps only its set fields but reads, compares, replaces and
    pickles as the dataclass it declares: defaults read back, a node built
    with every default spelled out is equal, and ``replace`` writes
    nothing into the original."""
    import pickle
    from dataclasses import fields

    bare = IrNode("add", (1, 2))
    spelled = IrNode("add", (1, 2), steps=0, values=None, name="",
                     terms=(), normalize=False, planned=False)
    assert bare == spelled
    assert {f.name: getattr(bare, f.name) for f in fields(IrNode)} == dict(
        kind="add", args=(1, 2), steps=0, values=None, name="", terms=(),
        normalize=False, planned=False)
    moved = replace(bare, args=(3, 4), planned=True)
    assert (moved.args, moved.planned, bare.args, bare.planned) == (
        (3, 4), True, (1, 2), False)
    assert pickle.loads(pickle.dumps(moved)) == moved
    with pytest.raises(FrozenInstanceError):
        bare.planned = True


def test_builder_rejects_const_const_and_elides_identity_ops():
    b = IrBuilder(slots=4)
    x = b.input("x")
    c = b.const(np.ones(4))
    with pytest.raises(ScheduleError):
        b.add(c, b.const(np.zeros(4)))
    assert b.rotate(x, 0) == x          # rotation by zero is the identity
    with pytest.raises(ScheduleError):
        b.rotate(c, 1)                  # constants never rotate


def test_tracer_records_kernel_surface(bfv_params):
    def body(tr, x):
        pt = tr.encode(np.arange(512))
        return tr.add(tr.multiply_plain(tr.rotate(x, 3), pt),
                      _window_sum(tr, x, 4))

    program = trace_program(bfv_params, body, ["x"])
    kinds = {n.kind for n in program.nodes}
    assert kinds == {"input", "rotate", "const", "mul", "add"}
    assert list(program.outputs) == ["out0"]


#: The evaluator surface a traced body may call: every method records one
#: unfused node (or none), so each fusion is the scheduler's to find.
UNFUSED_SURFACE = {"encode", "add", "sub", "negate", "add_plain",
                   "multiply_plain", "multiply", "square", "rescale",
                   "mod_switch_down", "align", "rotate", "trace_input"}


def test_tracer_exposes_no_fused_primitive():
    """No ``rotate_and_sum``, ``keyswitch_sum`` or other fused call can
    come back into a traced body: the tracer has exactly this surface."""
    public = {name for name in dir(TracerContext) if not name.startswith("_")}
    assert public == UNFUSED_SURFACE


# ------------------------------------------------------ pass: weighted sums

def _diag_matvec_trace(params, diags, steps):
    def body(tr, x):
        acc = None
        for step, diag in zip(steps, diags):
            term = tr.multiply_plain(tr.rotate(x, step) if step else x,
                                     tr.encode(diag))
            acc = term if acc is None else tr.add(acc, term)
        return acc

    return trace_program(params, body, ["x"])


def test_weighted_sum_fusion_is_exact_and_hoists_once(bfv, bfv_params):
    rng = np.random.default_rng(3)
    steps = list(range(8))
    diags = [rng.integers(0, 9, 512) for _ in steps]
    program = _diag_matvec_trace(bfv_params, diags, steps)

    sched = compile_ir(program, SchemeType.BFV)
    assert sched.report.weighted_sum_spans == 1
    assert sched.report.weighted_sum_terms == len(steps)
    assert sched.rotation_steps() == set(steps) - {0}

    raw = _raw(program, SchemeType.BFV)
    keys = ensure_galois_keys(bfv, sched.rotation_steps())
    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 97)

    before = bfv.counts["hoisted_decompose"]
    got = sched.run(bfv, {"x": ct}, keys)["out0"]
    assert bfv.counts["hoisted_decompose"] - before == 1, \
        "a fused span must pay exactly one key-switch decompose"
    want = raw.run_reference(bfv, {"x": ct}, keys)["out0"]
    assert np.array_equal(bfv.decrypt(got), bfv.decrypt(want))


def test_weighted_sum_fusion_takes_maximal_tree(bfv_params):
    """The fusion root is the whole add-tree, not an interior add."""
    rng = np.random.default_rng(4)
    program = _diag_matvec_trace(
        bfv_params, [rng.integers(0, 9, 512) for _ in range(32)], range(32))
    sched = compile_ir(program, SchemeType.BFV)
    assert sched.report.weighted_sum_spans == 1
    assert sched.report.weighted_sum_terms == 32


def test_ckks_weighted_sum_span_matches_reference(ckks, ckks_params):
    rng = np.random.default_rng(5)
    steps = list(range(4))
    program = _diag_matvec_trace(
        ckks_params, [rng.uniform(-1, 1, 512) for _ in steps], steps)
    sched = compile_ir(program, SchemeType.CKKS)
    assert sched.report.weighted_sum_spans == 1
    assert sched.report.weighted_sum_terms == len(steps)

    keys = ensure_galois_keys(ckks, sched.rotation_steps())
    ct = ckks.encrypt(ckks.encode(rng.uniform(-1, 1, 512)))
    before = ckks.counts["hoisted_decompose"]
    got = sched.run(ckks, {"x": ct}, keys)["out0"]
    assert ckks.counts["hoisted_decompose"] - before == 1
    want = _raw(program, SchemeType.CKKS).run_reference(
        ckks, {"x": ct}, keys)["out0"]
    assert got.scale == want.scale
    assert np.allclose(ckks.decrypt(got), ckks.decrypt(want), atol=1e-3)


def _bsgs_trace(params, giants, babies=4):
    """``sum_g rotate(sum_b mask (*) rotate(x, b), g * babies)``: every
    giant step's masked sum reads the same baby rotations."""
    def body(tr, x):
        shared = [x] + [tr.rotate(x, b) for b in range(1, babies)]
        acc = None
        for g in range(giants):
            inner = None
            for b, baby in enumerate(shared):
                term = tr.multiply_plain(baby, tr.encode(
                    np.full(512, g * babies + b + 1)))
                inner = term if inner is None else tr.add(inner, term)
            inner = tr.rotate(inner, g * babies)
            acc = inner if acc is None else tr.add(acc, inner)
        return acc

    return trace_program(params, body, ["x"])


def test_fusion_takes_every_giant_step_over_shared_babies(bfv, bfv_params):
    program = _bsgs_trace(bfv_params, giants=4)
    sched = compile_ir(program, SchemeType.BFV)
    assert sched.report.weighted_sum_spans == 4
    assert sched.report.weighted_sum_terms == 16
    assert (sched.report.rotation_sums, sched.report.rotation_sum_terms) \
        == (1, 4)
    live = [sched.program.nodes[n] for n in sched.program.live_set()]
    assert sorted([n.steps for n in live if n.kind == "rotate"]
                  + [step for n in live if n.kind == "keyswitch_sum"
                     and not n.weights()
                     for step, _, _ in n.terms if step]) == [4, 8, 12]
    assert sched.rotation_steps() == program.rotation_steps()

    keys = ensure_galois_keys(bfv, sched.rotation_steps())
    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 31)
    before = bfv.counts.copy()
    got = sched.run(bfv, {"x": ct}, keys)["out0"]
    assert bfv.counts["hoisted_decompose"] - before["hoisted_decompose"] == 1
    # Three babies once each, three giant rotations.
    assert bfv.counts["rotate"] - before["rotate"] == 6
    want = _raw(program, SchemeType.BFV).run_reference(
        bfv, {"x": ct}, keys)["out0"]
    assert np.array_equal(bfv.decrypt(got), bfv.decrypt(want))


def test_shared_baby_fuses_into_a_one_term_giant_step(bfv_params):
    """A lone masked baby is a one-leaf tree: it fuses when its rotation is
    shared, so the other giant steps can absorb that rotation too."""
    def body(tr, x, outside):
        pt = tr.encode(np.full(512, 3))
        r1 = tr.rotate(x, 1)
        first = tr.add(tr.multiply_plain(r1, pt),
                       tr.multiply_plain(tr.rotate(x, 2), pt))
        second = tr.multiply_plain(r1, pt)
        out = tr.add(first, tr.rotate(second, 8))
        return tr.add(out, r1) if outside else out

    fused = compile_ir(trace_program(
        bfv_params, lambda tr, x: body(tr, x, False), ["x"]), SchemeType.BFV)
    assert fused.report.weighted_sum_spans == 2
    assert fused.report.weighted_sum_terms == 3
    # Consumed outside the trees, the baby stays live, and so does every
    # masked sum reading it.
    kept = compile_ir(trace_program(
        bfv_params, lambda tr, x: body(tr, x, True), ["x"]), SchemeType.BFV)
    assert kept.report.weighted_sum_spans == 0


def test_fusion_pass_walks_liveness_once(bfv_params, monkeypatch):
    """Liveness (the static level walk, which visits the live nodes) and
    consumers are computed once per pass, however many trees fuse (the
    pass used to recompute both after every root)."""
    calls = []
    levels = IrProgram.levels

    def counted(self, scheme):
        calls.append(self)
        return levels(self, scheme)

    monkeypatch.setattr(IrProgram, "levels", counted)
    for giants in (2, 16):
        program = _bsgs_trace(bfv_params, giants)
        report = ScheduleReport()
        calls.clear()
        _fuse_weighted_sums(program, SchemeType.BFV, report)
        assert report.weighted_sum_spans == giants
        assert len(calls) == 1


def test_fusion_skips_multi_consumer_leaves(bfv_params):
    """A rotation reused outside the tree must survive as a plain rotate."""
    def body(tr, x):
        r1 = tr.rotate(x, 1)
        pt = tr.encode(np.full(512, 2))
        tree = tr.add(tr.multiply_plain(r1, pt),
                      tr.multiply_plain(tr.rotate(x, 2), pt))
        return tr.add(tree, r1)        # r1 consumed twice

    program = trace_program(bfv_params, body, ["x"])
    sched = compile_ir(program, SchemeType.BFV)
    assert sched.report.weighted_sum_spans == 0


def _two_source_weighted_sum(params, drop):
    """``Σ mask_j (*) rotate(x_i, s_j)`` over two inputs, each first
    dropped by *drop* = (limbs for x0, limbs for x1), left as the output:
    the weighted tree of a multi-tile conv's giant step."""
    b = IrBuilder()
    xs = []
    for i, limbs in enumerate(drop):
        x = b.input(f"x{i}")
        for _ in range(limbs):
            x = b.mod_switch(x)
        xs.append(x)
    rng = np.random.default_rng(8)
    acc = None
    for src, step in ((0, 1), (1, 2), (0, 3), (1, 0)):
        term = b.mul(b.rotate(xs[src], step),
                     b.const(rng.uniform(-1, 1, 512)))
        acc = term if acc is None else b.add(acc, term)
    b.output("out0", acc)
    return b.program


def test_two_source_weighted_sum_runs_at_its_static_level(ckks_params):
    """A weighted sum over two sources is one ``keyswitch_sum`` at its
    sources' shared level with one more scale power, and its executed
    value sits exactly there: on that many limbs, at that scale."""
    program = _two_source_weighted_sum(ckks_params, (1, 1))
    sched = compile_ir(program, SchemeType.CKKS)
    root = program.outputs["out0"]
    node = sched.program.nodes[root]
    assert node.kind == "keyswitch_sum" and len(node.args) == 2
    assert (sched.report.weighted_sum_spans,
            sched.report.weighted_sum_terms) == (1, 4)
    assert sched.program.levels(SchemeType.CKKS)[root] == (1, 2)

    ctx = CkksContext(ckks_params, seed=b"two-source")
    keys = ensure_galois_keys(ctx, sched.rotation_steps())
    rng = np.random.default_rng(9)
    inputs = {f"x{i}": ctx.encrypt(ctx.encode(rng.uniform(-1, 1, 512)))
              for i in range(2)}
    got = sched.run(ctx, inputs, keys)["out0"]
    assert len(got.level_base) == len(ckks_params.data_base) - 1
    assert got.scale == ckks_params.scale ** 2
    want = sched.run_reference(ctx, inputs, keys)["out0"]
    assert want.scale == got.scale
    assert np.allclose(ctx.decrypt(got), ctx.decrypt(want), atol=1e-3)


def test_weighted_sum_sources_at_two_levels_do_not_fuse(ckks_params):
    """Leaves over sources at two levels are no one tree, and a
    ``keyswitch_sum`` over two levels has no level at all."""
    sched = compile_ir(_two_source_weighted_sum(ckks_params, (0, 1)),
                       SchemeType.CKKS)
    assert sched.report.weighted_sum_spans == 0
    node = IrNode("keyswitch_sum", (0, 1), terms=((1, 0, 2), (2, 1, 3)))
    with pytest.raises(ScheduleError, match="two levels"):
        level_after(node, SchemeType.CKKS, [(0, 1), (1, 1)])
    assert level_after(node, SchemeType.CKKS, [(1, 1), (1, 1)]) == (1, 2)


# ---------------------------------------------------- pass: product sums

@pytest.fixture(scope="module")
def own(bfv_params, ckks_params):
    """Contexts of these tests' own: their encryptions draw from them, not
    from the session ``bfv`` / ``ckks`` streams the later tests' noise
    follows."""
    return {"bfv": BfvContext(bfv_params, seed=b"product-sums"),
            "ckks": CkksContext(ckks_params, seed=b"product-sums")}


def _bare_products(forms, inputs):
    """``Σ a_i·b_i`` as raw IR with no ``relin``, so the 3-component sum is
    the output: *forms* holds one ``"square"`` / ``"pair"`` per product,
    over *inputs* ciphertexts read round-robin (a pair shares its operands
    with its neighbours)."""
    b = IrBuilder()
    xs = [b.input(f"x{i}") for i in range(inputs)]
    acc = None
    for i, form in enumerate(forms):
        x = xs[i % inputs]
        y = x if form == "square" else xs[(i + 1) % inputs]
        term = b._emit(IrNode("mul", (x, y)))
        acc = term if acc is None else b.add(acc, term)
    b.output("out0", acc)
    return b.program


def _ckks_inputs(ctx, rng, count, limbs):
    """*count* CKKS ciphertexts on the first *limbs* limbs of the chain,
    alternately public-key (coefficient form) and symmetric (evaluation
    form) encryptions."""
    base = RnsBase.of(ctx.params.data_base.moduli[:limbs])
    pts = ctx.encoder.encode_many(
        [rng.uniform(-0.5, 0.5, 512) for _ in range(count)], base=base)
    return {f"x{i}": (ctx.encrypt if i % 2 else ctx.encrypt_symmetric)(pt)
            for i, pt in enumerate(pts)}


def _blob(outputs):
    return {name: serialize_ciphertext(ct) for name, ct in outputs.items()}


PRODUCT_FORMS = {
    "squares": lambda k: ["square"] * k,
    "pairs": lambda k: ["pair"] * k,
    "mixed": lambda k: ["square", "pair"] * (k // 2) + ["square"] * (k % 2),
}


@pytest.mark.parametrize("limbs", [1, 2, 3])
@pytest.mark.parametrize("forms", sorted(PRODUCT_FORMS))
@pytest.mark.parametrize("k", [2, 8, 9, 17])
def test_product_sum_is_byte_identical_to_the_add_tree(own, k, forms,
                                                       limbs):
    """Add-trees of 2, 8, 9 and 17 products (either side of a lazy-sum
    chunk boundary) fuse into one ``product_sum`` whose 3-component result
    is, byte for byte, the scheduler-off add-tree of ``multiply`` calls."""
    program = _bare_products(PRODUCT_FORMS[forms](k), inputs=max(2, k // 2))
    sched = compile_ir(program, SchemeType.CKKS)
    assert (sched.report.product_sums, sched.report.product_sum_terms) \
        == (1, k)
    assert _live_kind(sched, "mul") == _live_kind(sched, "add") == []

    ckks = own["ckks"]
    inputs = _ckks_inputs(ckks, np.random.default_rng(k), max(2, k // 2),
                          limbs)
    before = ckks.counts.copy()
    got = sched.run(ckks, inputs)
    assert ckks.counts["multiply"] - before["multiply"] == k
    assert ckks.counts["add"] - before["add"] == k - 1
    assert _blob(got) == _blob(sched.run_reference(ckks, inputs))


def _unfused(case):
    """(program, scheme, product sums expected, whether it runs): products
    the pass must not fold, or not fold together."""
    b = IrBuilder()
    x, y = b.input("x0"), b.input("x1")

    def mul(a, c):
        return b._emit(IrNode("mul", (a, c)))

    scheme, sums, runs = SchemeType.CKKS, 0, True
    if case == "shared_product":
        shared = mul(x, y)
        b.output("out0", b.add(b.add(shared, mul(x, x)), mul(y, y)))
        b.output("out1", shared)
    elif case == "shared_add":              # fuses as a tree of its own
        shared = b.add(mul(x, x), mul(y, y))
        b.output("out0", b.add(shared, b.add(mul(x, y), mul(y, x))))
        b.output("out1", shared)
        sums = 2
    elif case == "levels":
        low = b.mod_switch(y)
        b.output("out0", b.add(mul(x, x), mul(low, low)))
    elif case == "scales":                  # s**2 + s**3: never addable
        scaled = b.mul(y, b.const(np.full(512, 0.5)))
        b.output("out0", b.add(mul(x, x), mul(y, scaled)))
        runs = False
    elif case == "lone_product":
        b.output("out0", b.mul(x, y))
    else:                                   # "bfv"
        b.output("out0", b.add(mul(x, x), mul(y, y)))
        scheme = SchemeType.BFV
    return b.program, scheme, sums, runs


@pytest.mark.parametrize("case", ["shared_product", "shared_add", "levels",
                                  "scales", "lone_product", "bfv"])
def test_product_sum_fusion_leaves(case, own):
    """No fusion through a product or a sum with a second consumer (a sum
    read twice fuses as a tree of its own), of leaves at two levels or two
    scale exponents, of a lone product, or under BFV, whose tensor product
    rounds per product."""
    program, scheme, sums, runs = _unfused(case)
    sched = compile_ir(program, scheme)
    assert sched.report.product_sums == sums
    assert sched.report.product_sum_terms == 2 * sums
    if not runs:
        return
    rng = np.random.default_rng(43)
    if scheme is SchemeType.BFV:
        ctx = own["bfv"]
        inputs = _encrypt_inputs(ctx, rng, ["x0", "x1"])
    else:
        ctx = own["ckks"]
        inputs = _ckks_inputs(ctx, rng, 2, limbs=3)
    assert _blob(sched.run(ctx, inputs)) \
        == _blob(sched.run_reference(ctx, inputs))


def test_square_of_a_coefficient_form_value_is_transformed_once(
        own, ckks_params, monkeypatch):
    """``mul(x, x)`` of a coefficient-form ``x`` (a public-key upload, a
    rescaled value) transforms ``x`` once, one ``forward`` call per
    component, and charges it: ``ntt_forward`` is 2 components x limbs
    rows."""
    forward = []
    transform = NttStackPlan.forward

    def counted(plan, *args, **kwargs):
        forward.append(plan)
        return transform(plan, *args, **kwargs)

    program = trace_program(ckks_params, lambda tr, x: tr.multiply(x, x),
                            ["x"])
    sched = compile_ir(program, SchemeType.CKKS)
    ckks = own["ckks"]
    ct = ckks.encrypt(ckks.encode(np.linspace(-0.5, 0.5, 512)))
    assert not ct.is_ntt
    want = _blob(sched.run_reference(ckks, {"x": ct}))
    monkeypatch.setattr(NttStackPlan, "forward", counted)
    before = ckks.counts["ntt_forward"]
    got = _blob(sched.run(ckks, {"x": ct}))
    assert len(forward) == len(ct.components)
    assert (ckks.counts["ntt_forward"] - before
            == len(ct.components) * len(ct.level_base))
    assert got == want


# ---------------------------------------------------- pass: rotation sums

SCHEMES = {"bfv": SchemeType.BFV, "ckks": SchemeType.CKKS}


def _giant_steps(sources, unrotated=False, twice=False):
    """``Σ_i rotate(x_i, 3i + 1)`` over *sources* inputs — the giant steps
    of a baby-step/giant-step sum, each rotating a ciphertext of its own —
    led by ``x0`` itself with *unrotated*, and with ``rotate(x0, 2)`` too
    with *twice*."""
    b = IrBuilder()
    xs = [b.input(f"x{i}") for i in range(sources)]
    leaves = [b.rotate(x, 3 * i + 1) for i, x in enumerate(xs)]
    if twice:
        leaves.append(b.rotate(xs[0], 2))
    if unrotated:
        leaves.insert(0, xs[0])
    acc = leaves[0]
    for leaf in leaves[1:]:
        acc = b.add(acc, leaf)
    b.output("out0", acc)
    return b.program


def _rotation_inputs(ctx, count, seed):
    """*count* inputs ``x0..``; CKKS ones alternate coefficient and
    evaluation form."""
    rng = np.random.default_rng(seed)
    if ctx.params.scheme is SchemeType.CKKS:
        return _ckks_inputs(ctx, rng, count, limbs=3)
    return _encrypt_inputs(ctx, rng, [f"x{i}" for i in range(count)])


def _spent(ctx, before):
    return {name: ctx.counts[name] - before[name]
            for name in ("rotate", "add", "hoisted_decompose",
                         "naive_decompose")}


@pytest.mark.parametrize("unrotated", [False, True])
@pytest.mark.parametrize("sources", [2, 3, 8])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_giant_steps_fuse_into_one_rotation_sum(scheme, sources, unrotated,
                                                own):
    """Rotations of 2, 3 and 8 different ciphertexts (plus an unrotated
    leaf) summed by an add-tree become one unweighted ``keyswitch_sum``:
    charged as
    the scheduler-off oracle charges the tree (each rotation once, each
    source's one decompose naive, each add once), and its result the
    oracle's (BFV decrypts equal, CKKS within tolerance)."""
    program = _giant_steps(sources, unrotated)
    sched = compile_ir(program, SCHEMES[scheme])
    assert (sched.report.rotation_sums, sched.report.rotation_sum_terms) \
        == (1, sources + unrotated)
    assert _live_kind(sched, "rotate") == _live_kind(sched, "add") == []
    assert len(_live_kind(sched, "keyswitch_sum")) == 1
    assert sched.rotation_steps() == program.rotation_steps()

    ctx = own[scheme]
    keys = ensure_galois_keys(ctx, sched.rotation_steps())
    inputs = _rotation_inputs(ctx, sources, seed=sources)
    before = ctx.counts.copy()
    got = sched.run(ctx, inputs, keys)
    spent = _spent(ctx, before)
    assert spent == {"rotate": sources, "add": sources + unrotated - 1,
                     "hoisted_decompose": 0, "naive_decompose": sources}
    before = ctx.counts.copy()
    want = sched.run_reference(ctx, inputs, keys)
    assert _spent(ctx, before) == spent
    _assert_same_decrypt(ctx, got, want)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_source_rotated_twice_pays_one_decompose(scheme, own):
    """``x0`` rotated by two steps in one sum is decomposed once, and that
    decompose, serving two rotations, is charged as hoisted."""
    program = _giant_steps(3, unrotated=True, twice=True)
    sched = compile_ir(program, SCHEMES[scheme])
    assert (sched.report.rotation_sums, sched.report.rotation_sum_terms) \
        == (1, 5)
    ctx = own[scheme]
    keys = ensure_galois_keys(ctx, sched.rotation_steps())
    inputs = _rotation_inputs(ctx, 3, seed=5)
    before = ctx.counts.copy()
    got = sched.run(ctx, inputs, keys)
    assert _spent(ctx, before) == {"rotate": 4, "add": 4,
                                   "hoisted_decompose": 1,
                                   "naive_decompose": 2}
    _assert_same_decrypt(ctx, got, sched.run_reference(ctx, inputs, keys))


def _unfused_rotations(case):
    """(program, scheme, (rotation sums, terms) expected, whether it runs):
    rotation add-trees the pass must not fold, or not fold whole."""
    b = IrBuilder()
    x, y = b.input("x0"), b.input("x1")
    scheme, fused, runs = SchemeType.CKKS, (0, 0), True
    if case == "shared_rotate":
        shared = b.rotate(x, 1)
        b.output("out0", b.add(shared, b.rotate(y, 2)))
        b.output("out1", b.sub(shared, y))
    elif case == "shared_add":              # fuses as a tree of its own
        shared = b.add(b.rotate(x, 1), b.rotate(y, 2))
        b.output("out0", b.add(shared, b.rotate(x, 3)))
        b.output("out1", shared)
        fused = (1, 2)
    elif case == "levels":
        b.output("out0", b.add(b.rotate(x, 1), b.rotate(b.mod_switch(y), 2)))
    elif case == "scales":                  # s + s**2: never addable
        scaled = b.mul(y, b.const(np.full(512, 0.5)))
        b.output("out0", b.add(b.rotate(x, 1), b.rotate(scaled, 2)))
        runs = False
    elif case == "single_rotation":
        b.output("out0", b.add(b.rotate(x, 1), y))
    else:                                   # "one_source": fuses too
        b.output("out0", b.add(b.add(b.rotate(x, 1), b.rotate(x, 2)), y))
        fused = (1, 3)
    return b.program, scheme, fused, runs


@pytest.mark.parametrize("case", ["shared_rotate", "shared_add", "levels",
                                  "scales", "single_rotation", "one_source"])
def test_rotation_sum_fusion_leaves(case, own):
    """No fusion of a rotation with a second consumer or through a sum with
    one (a sum read twice fuses as a tree of its own), of leaves at two
    levels or two scale exponents, or of a single rotated leaf.  A tree
    whose rotations all read one source fuses like any other, and its
    source is decomposed once."""
    program, scheme, fused, runs = _unfused_rotations(case)
    sched = compile_ir(program, scheme)
    report = sched.report
    assert (report.rotation_sums, report.rotation_sum_terms) == fused
    if not runs:
        return
    ctx = own["ckks"]
    keys = ensure_galois_keys(ctx, sched.rotation_steps())
    inputs = _rotation_inputs(ctx, 2, seed=47)
    before = ctx.counts.copy()
    got = sched.run(ctx, inputs, keys)
    if case == "one_source":
        assert _spent(ctx, before)["hoisted_decompose"] == 1
    _assert_same_decrypt(ctx, got, sched.run_reference(ctx, inputs, keys))


def test_rotation_sum_without_its_galois_key_raises(bfv_params):
    """A ``keyswitch_sum`` missing a Galois key raises
    ``MissingEvaluationKey``, as the rotations it replaces do."""
    sched = compile_ir(_giant_steps(2), SchemeType.BFV)
    ctx = BfvContext(bfv_params, seed=b"no-keys")
    inputs = _rotation_inputs(ctx, 2, seed=3)
    with pytest.raises(MissingEvaluationKey):
        sched.run(ctx, inputs)                  # no key set at all
    keys = ctx.make_galois_keys([1])            # step 4 missing
    with pytest.raises(MissingEvaluationKey):
        sched.run(ctx, inputs, keys)
    with pytest.raises(MissingEvaluationKey):
        sched.run_reference(ctx, inputs, keys)


def test_rotation_sum_refuses_a_term_off_its_level(own):
    """The pass fuses one static level; a run whose terms arrive on two
    level bases raises ``ScheduleError`` instead of aligning them."""
    sched = compile_ir(_giant_steps(2), SchemeType.CKKS)
    ctx = own["ckks"]
    keys = ensure_galois_keys(ctx, sched.rotation_steps())
    inputs = _rotation_inputs(ctx, 2, seed=9)
    inputs["x1"] = ctx.mod_switch_down(inputs["x1"])
    with pytest.raises(ScheduleError, match="level base"):
        sched.run(ctx, inputs, keys)


# ------------------------------------------ one source, several rotations

def test_rotation_grouping_shares_one_decompose(ckks, ckks_params):
    """Three rotations of one value summed: one unweighted
    ``keyswitch_sum`` over that one source, decomposed once."""
    def body(tr, x):
        return tr.add(tr.add(tr.rotate(x, 1), tr.rotate(x, 2)),
                      tr.rotate(x, 5))

    program = trace_program(ckks_params, body, ["x"])
    sched = compile_ir(program, SchemeType.CKKS)
    assert (sched.report.rotation_sums, sched.report.rotation_sum_terms) \
        == (1, 3)
    (node,) = [sched.program.nodes[n]
               for n in _live_kind(sched, "keyswitch_sum")]
    assert len(node.args) == 1

    keys = ensure_galois_keys(ckks, sched.rotation_steps())
    values = np.linspace(0, 1, 512)
    ct = ckks.encrypt(ckks.encode(values))
    before = ckks.counts["hoisted_decompose"]
    got = sched.run(ckks, {"x": ct}, keys)
    assert ckks.counts["hoisted_decompose"] - before == 1
    # One mod-down of the sum instead of one per rotation moves the
    # result by rounding, as for every key-switch sum.
    _assert_same_decrypt(ckks, got, _raw(program, SchemeType.CKKS)
                         .run_reference(ckks, {"x": ct}, keys))
    assert np.allclose(np.real(ckks.decrypt(got["out0"])),
                       sum(np.roll(values, -s) for s in (1, 2, 5)),
                       atol=1e-3)


# ------------------------------------------------- pass: level-drop sinking

def test_rescale_sinking_merges_sibling_drops(ckks, ckks_params):
    def body(tr, x, y):
        return tr.add(tr.rescale(tr.multiply(x, x)),
                      tr.rescale(tr.multiply(y, y)))

    program = trace_program(ckks_params, body, ["x", "y"])
    sched = compile_ir(program, SchemeType.CKKS)
    assert sched.report.rescales_sunk == 1
    live = sched.program.live_set()
    rescales = [n for i, n in enumerate(sched.program.nodes)
                if i in live and n.kind == "rescale"]
    assert len(rescales) == 1, "the sunk pair must leave a single rescale"

    ct_x = ckks.encrypt(ckks.encode(np.linspace(0.0, 0.5, 512)))
    ct_y = ckks.encrypt(ckks.encode(np.linspace(-0.5, 0.0, 512)))
    got = sched.run(ckks, {"x": ct_x, "y": ct_y})["out0"]
    want = _raw(program, SchemeType.CKKS).run_reference(
        ckks, {"x": ct_x, "y": ct_y})["out0"]
    assert np.allclose(ckks.decrypt(got), ckks.decrypt(want), atol=1e-3)


def test_sinking_respects_multi_consumer_drops(ckks_params):
    """A rescale whose result is also used elsewhere must not sink."""
    def body(tr, x, y):
        a = tr.rescale(tr.multiply(x, x))
        b = tr.rescale(tr.multiply(y, y))
        return [tr.add(a, b), tr.sub(a, b)]

    program = trace_program(ckks_params, body, ["x", "y"])
    sched = compile_ir(program, SchemeType.CKKS)
    assert sched.report.rescales_sunk == 0


def test_levels_iterate_one_dependency_order(ckks_params):
    """``IrProgram.levels`` lists a topologically emitted program in
    emission order, and a node the sinking pass appended after its
    consumer just before that consumer: the one order the passes and the
    level planner walk."""
    def body(tr, x, y):
        return tr.add(tr.rescale(tr.multiply(x, x)),
                      tr.rescale(tr.multiply(y, y)))

    program = trace_program(ckks_params, body, ["x", "y"])
    assert list(program.levels(SchemeType.CKKS)) == list(
        range(len(program.nodes)))
    report = ScheduleReport()
    _sink_level_drops(program, SchemeType.CKKS, report)
    assert (report.rescales_sunk, report.relins_sunk) == (1, 1)
    # rescale 8 <- relin 9 <- add 10 of the products 2 and 5.
    assert [program.nodes[nid].kind for nid in (8, 9, 10)] == [
        "rescale", "relin", "add"]
    order = list(program.levels(SchemeType.CKKS))
    assert order == [0, 1, 2, 5, 10, 9, 8]


# ------------------------------------------- pass: relinearisation sinking

def _assert_three_components_reach_only_relin(sched):
    """Structural invariant of a compiled program: a 3-component value (a
    ct x ct ``mul``, or a sum of them) feeds only a ``relin`` or another
    such sum — never a rotation, span, level drop, multiply or output, and
    never an add beside a 2-component operand."""
    program = sched.program
    wide = set()
    for nid in program.levels(sched.scheme):        # live, dependency order
        node = program.nodes[nid]
        ct_args = program.ct_args(nid)
        fed = [a for a in ct_args if a in wide]
        if node.kind == "product_sum" or (node.kind == "mul"
                                          and len(ct_args) == 2):
            wide.add(nid)
        elif fed and node.kind in ("add", "sub", "neg"):
            assert fed == list(ct_args), f"node {nid} mixes sizes"
            wide.add(nid)
        assert not fed or node.kind in ("relin", "add", "sub", "neg"), \
            f"3-component value reaches {node.kind} node {nid}"
    assert not wide & set(program.outputs.values())


def _live_kind(sched, kind):
    return [nid for nid in sorted(sched.program.live_set())
            if sched.program.nodes[nid].kind == kind]


def _encrypt_inputs(ctx, rng, names):
    bfv = ctx.params.scheme is SchemeType.BFV
    values = [rng.integers(0, 7, 512) if bfv else rng.uniform(-0.5, 0.5, 512)
              for _ in names]
    return dict(zip(names, ctx.encrypt_many(values)))


def _assert_same_decrypt(ctx, got, want):
    for name in want:
        if ctx.params.scheme is SchemeType.BFV:
            assert np.array_equal(np.asarray(ctx.decrypt(got[name])),
                                  np.asarray(ctx.decrypt(want[name]))), name
        else:
            assert np.allclose(ctx.decrypt(got[name]),
                               ctx.decrypt(want[name]), atol=1e-3), name


@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_sum_of_products_relinearises_once(scheme, request):
    """Σ of k ct x ct products (rescaled first under CKKS): the traced
    program relinearises each product, the compiled one the sum, once."""
    ctx = request.getfixturevalue(scheme)
    ckks = scheme == "ckks"
    k = 4
    names = [f"x{i}" for i in range(k)]

    def body(tr, *xs):
        acc = None
        for x in xs:
            sq = tr.multiply(x, x)
            sq = tr.rescale(sq) if ckks else sq
            acc = sq if acc is None else tr.add(acc, sq)
        return acc

    program = trace_program(ctx.params, body, names)
    assert sum(n.kind == "relin" for n in program.nodes) == k
    sched = compile_ir(program, ctx.params.scheme)
    assert sched.report.relins_sunk == k - 1
    assert sched.report.rescales_sunk == (k - 1 if ckks else 0)
    assert len(_live_kind(sched, "relin")) == 1
    assert f"{k - 1} relinearisation(s) sunk" in sched.report.describe()
    _assert_three_components_reach_only_relin(sched)

    inputs = _encrypt_inputs(ctx, np.random.default_rng(41), names)
    before = ctx.counts["relinearize"]
    got = sched.run(ctx, inputs)
    assert ctx.counts["relinearize"] - before == 1
    before = ctx.counts["relinearize"]
    want = sched.run_reference(ctx, inputs)
    assert ctx.counts["relinearize"] - before == k
    _assert_same_decrypt(ctx, got, want)


def _unsinkable(case, ckks):
    """A sum of two products whose ``relin`` pair must stay apart."""
    def body(tr, x, y):
        a = tr.multiply(x, x)
        if case == "plain_leaf":
            weight = np.full(512, 0.5 if ckks else 3)
            b = tr.multiply_plain(y, tr.encode(weight))
        elif case == "levels":
            y = tr.mod_switch_down(y)
            b = tr.multiply(y, y)
        else:
            b = tr.multiply(y, y)
        total = tr.add(a, b)
        return [total, tr.negate(a)] if case == "two_consumers" else total
    return body


@pytest.mark.parametrize("case", ["two_consumers", "plain_leaf", "levels"])
@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_relin_sinking_leaves_illegal_pairs(scheme, case, request):
    """No sinking when one ``relin`` has a second consumer, when one leaf
    is a plain multiply, or when the two products sit at different levels
    (the executor aligns the relinearized values instead)."""
    ctx = request.getfixturevalue(scheme)
    program = trace_program(ctx.params, _unsinkable(case, scheme == "ckks"),
                            ["x", "y"])
    relins = sum(n.kind == "relin" for n in program.nodes)
    sched = compile_ir(program, ctx.params.scheme)
    assert sched.report.relins_sunk == 0
    assert len(_live_kind(sched, "relin")) == relins
    _assert_three_components_reach_only_relin(sched)
    inputs = _encrypt_inputs(ctx, np.random.default_rng(42), ["x", "y"])
    _assert_same_decrypt(ctx, sched.run(ctx, inputs),
                         sched.run_reference(ctx, inputs))


def _random_product_sums(params, rng):
    """Sums and differences of ct x ct products over rotated / negated
    inputs (rescaled under CKKS), one product sometimes also rotated: the
    trees the sinking pass rewrites, and a shared leaf it must leave."""
    ckks = params.scheme is SchemeType.CKKS

    def body(tr, x, y):
        leaves = [x, y, tr.rotate(x, 1), tr.negate(y)]
        terms = []
        for _ in range(int(rng.integers(2, 6))):
            a = leaves[rng.integers(len(leaves))]
            b = leaves[rng.integers(len(leaves))]
            product = tr.multiply(a, b)
            terms.append(tr.rescale(product) if ckks else product)
        acc = terms[0]
        for term in terms[1:]:
            acc = (tr.add if rng.integers(2) else tr.sub)(acc, term)
        if rng.integers(2):
            return [acc, tr.rotate(terms[rng.integers(len(terms))], 2)]
        return acc

    return trace_program(params, body, ["x", "y"])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_randomized_product_sums_relinearise_once_per_sum(scheme, seed,
                                                          request):
    ctx = request.getfixturevalue(scheme)
    rng = np.random.default_rng(200 + seed)
    program = _random_product_sums(ctx.params, rng)
    traced = sum(n.kind == "relin" for n in program.nodes)
    inputs = _encrypt_inputs(ctx, rng, ["x", "y"])
    before = ctx.counts["relinearize"]
    sched, got, want = _run_both(ctx, program, inputs)
    _assert_three_components_reach_only_relin(sched)
    live = len(_live_kind(sched, "relin"))
    assert live == traced - sched.report.relins_sunk
    assert ctx.counts["relinearize"] - before == live + traced
    _assert_same_decrypt(ctx, got, want)


# --------------------------------------------------- pass: NTT residency

def test_residency_counters_and_plain_cache(bfv, bfv_params):
    def body(tr, x):
        c1 = tr.encode(np.full(512, 3))
        c2 = tr.encode(np.full(512, 5))
        return tr.multiply_plain(tr.multiply_plain(x, c1), c2)

    program = trace_program(bfv_params, body, ["x"])
    sched = compile_ir(program, SchemeType.BFV)
    assert sched.report.resident_nodes >= 2

    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 11)
    raw = _raw(program, SchemeType.BFV)
    want = raw.run_reference(bfv, {"x": ct})["out0"]

    before = dict(bfv.counts)
    got = sched.run(bfv, {"x": ct})["out0"]
    first_forward = bfv.counts["ntt_forward"] - before.get("ntt_forward", 0)
    assert first_forward > 0, "cold run must pay forward transforms"
    assert np.array_equal(bfv.decrypt(got), bfv.decrypt(want))

    before = dict(bfv.counts)
    sched.run(bfv, {"x": ct})
    second_forward = bfv.counts["ntt_forward"] - before.get("ntt_forward", 0)
    elided = bfv.counts["ntt_elided"] - before.get("ntt_elided", 0)
    assert second_forward < first_forward, \
        "warm run must reuse cached NTT-form plaintexts"
    assert elided > 0, "cached plaintext hits must report elided pairs"


def test_residency_multiply_chain_is_bit_exact(bfv, bfv_params):
    """Deferring the inverse transform must not change a single slot."""
    def body(tr, x):
        c = tr.encode(np.full(512, 7))
        return tr.add(tr.multiply_plain(x, c),
                      tr.multiply_plain(tr.negate(x), c))

    program = trace_program(bfv_params, body, ["x"])
    sched = compile_ir(program, SchemeType.BFV)
    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 13)
    got = sched.run(bfv, {"x": ct})["out0"]
    want = _raw(program, SchemeType.BFV).run_reference(
        bfv, {"x": ct})["out0"]
    assert np.array_equal(np.asarray(bfv.decrypt(got)),
                          np.asarray(bfv.decrypt(want)))


@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_shared_multiplicand_is_transformed_once(scheme, request):
    """One source feeding k plain multiplies pays its forward transform
    once per run, not k times; the reuse charges no elided pair either."""
    ctx = request.getfixturevalue(scheme)
    is_bfv = scheme == "bfv"
    weights = [3, 5, 7, 11]

    def body(tr, x):
        src = tr.rotate(x, 1)           # coefficient form, four consumers
        return [tr.multiply_plain(src, tr.encode(
                    np.full(512, w if is_bfv else w / 16))) for w in weights]

    program = trace_program(ctx.params, body, ["x"])
    if is_bfv:
        ct = ctx.encrypt(np.arange(512, dtype=np.int64) % 11)
    else:
        ct = ctx.encrypt(ctx.encode(np.linspace(-0.5, 0.5, 512)))
    sched, got, want = _run_both(ctx, program, {"x": ct})
    for name in got:
        if is_bfv:
            assert np.array_equal(np.asarray(ctx.decrypt(got[name])),
                                  np.asarray(ctx.decrypt(want[name])))
        else:
            assert np.allclose(ctx.decrypt(got[name]),
                               ctx.decrypt(want[name]), atol=1e-3)

    # Warm run: the plaintext tables are cached (each hit is one elided
    # row per limb), so every forward row charged belongs to the source.
    keys = ensure_galois_keys(ctx, sched.rotation_steps())
    forward, elided = ctx.counts["ntt_forward"], ctx.counts["ntt_elided"]
    sched.run(ctx, {"x": ct}, keys)
    assert (ctx.counts["ntt_forward"] - forward
            == len(ct.components) * len(ct.level_base))
    assert (ctx.counts["ntt_elided"] - elided
            == len(weights) * len(ct.level_base))


# ---------------------------------------------------------- randomized DAGs

def _rotation_trees(tr, rng, inputs, pool, count):
    """*count* add-trees of rotations of several ciphertexts, an
    unrotated leaf leading half of them.  The first rotates *inputs*
    alone (one level, so it fuses whatever else was drawn), the others
    random picks of *pool* (a BFV pool's scale exponents may differ, and
    such a tree stays unfused)."""
    trees = []
    for t in range(count):
        sources = pool if t else inputs
        picks = list(inputs) if t == 0 else []
        picks += [sources[rng.integers(len(sources))]
                  for _ in range(rng.integers(0 if t == 0 else 2, 4))]
        leaves = [tr.rotate(src, int(rng.integers(1, 9))) for src in picks]
        if rng.integers(2):
            leaves.insert(0, sources[rng.integers(len(sources))])
        acc = leaves[0]
        for leaf in leaves[1:]:
            acc = tr.add(acc, leaf)
        trees.append(acc)
    return trees


def _random_bfv_program(params, rng, n_ops, rotation_trees=0):
    slots = params.poly_degree // 2

    def body(tr, x, y):
        vals = [x, y]
        muls = 0
        for _ in range(n_ops):
            op = rng.choice(["rotate", "add", "sub", "neg", "mul_plain",
                             "add_plain", "mul", "window_sum"])
            pick = lambda: vals[rng.integers(len(vals))]
            if op == "rotate":
                vals.append(tr.rotate(pick(), int(rng.integers(1, 9))))
            elif op == "add":
                vals.append(tr.add(pick(), pick()))
            elif op == "sub":
                vals.append(tr.sub(pick(), pick()))
            elif op == "neg":
                vals.append(tr.negate(pick()))
            elif op == "mul_plain":
                pt = tr.encode(rng.integers(0, 5, slots))
                vals.append(tr.multiply_plain(pick(), pt))
            elif op == "add_plain":
                pt = tr.encode(rng.integers(0, 17, slots))
                vals.append(tr.add_plain(pick(), pt))
            elif op == "mul" and muls < 2:
                muls += 1
                vals.append(tr.multiply(pick(), pick()))
            else:
                vals.append(_window_sum(tr, pick(), 4))
        return vals[-2:] + _rotation_trees(tr, rng, [x, y], vals,
                                           rotation_trees)

    return trace_program(params, body, ["x", "y"])


@pytest.mark.parametrize("seed", range(6))
def test_randomized_dag_bfv_scheduled_matches_reference(bfv, bfv_params,
                                                        seed):
    rng = np.random.default_rng(seed)
    program = _random_bfv_program(bfv_params, rng, n_ops=12,
                                  rotation_trees=2)
    x = bfv.encrypt(rng.integers(0, 7, 512))
    y = bfv.encrypt(rng.integers(0, 7, 512))
    sched, got, want = _run_both(bfv, program, {"x": x, "y": y})
    _assert_three_components_reach_only_relin(sched)
    assert sched.report.rotation_sums >= 1
    for name in got:
        assert np.array_equal(np.asarray(bfv.decrypt(got[name])),
                              np.asarray(bfv.decrypt(want[name]))), \
            f"seed {seed} output {name} diverged"


def _random_ckks_program(params, rng, n_ops, n_products=0,
                         rotation_trees=0):
    """A random CKKS DAG; with *n_products*, one of its level-1 values is
    a sum of that many rescaled ct x ct products of level-0 values; with
    *rotation_trees*, that many multi-source rotation sums are outputs
    too."""
    def body(tr, x, y):
        level0 = [x, y]
        level1 = []
        for _ in range(n_ops):
            op = rng.choice(["rotate", "add", "sub", "neg", "mul"])
            bucket = level1 if (level1 and rng.integers(2)) else level0
            pick = lambda: bucket[rng.integers(len(bucket))]
            if op == "rotate":
                bucket.append(tr.rotate(pick(), int(rng.integers(1, 9))))
            elif op == "add":
                bucket.append(tr.add(pick(), pick()))
            elif op == "sub":
                bucket.append(tr.sub(pick(), pick()))
            elif op == "neg":
                bucket.append(tr.negate(pick()))
            elif len(level1) < 3 and bucket is level0:
                level1.append(tr.rescale(tr.multiply(pick(), pick())))
            else:
                bucket.append(tr.negate(pick()))
        if n_products:
            pick = lambda: level0[rng.integers(len(level0))]
            terms = [tr.rescale(tr.multiply(pick(), pick()))
                     for _ in range(n_products)]
            acc = terms[0]
            for term in terms[1:]:
                acc = tr.add(acc, term)
            level1.append(acc)
        outputs = [level0[-1], (level1 or level0)[-1]]
        if rotation_trees:
            bucket = level1 if (level1 and rng.integers(2)) else level0
            outputs += _rotation_trees(tr, rng, [x, y], bucket,
                                       rotation_trees)
        return outputs

    return trace_program(params, body, ["x", "y"])


@pytest.mark.parametrize("seed", range(6))
def test_randomized_dag_ckks_scheduled_matches_reference(ckks, ckks_params,
                                                         seed):
    rng = np.random.default_rng(100 + seed)
    n_products = 8 + seed if seed % 2 else 0       # 9, 11 and 13 products
    program = _random_ckks_program(ckks_params, rng, n_ops=10,
                                   n_products=n_products, rotation_trees=2)
    x = ckks.encrypt(ckks.encode(rng.uniform(-0.5, 0.5, 512)))
    y = ckks.encrypt(ckks.encode(rng.uniform(-0.5, 0.5, 512)))
    sched, got, want = _run_both(ckks, program, {"x": x, "y": y})
    _assert_three_components_reach_only_relin(sched)
    assert sched.report.product_sum_terms >= n_products
    assert sched.report.rotation_sums >= 1
    for name in got:
        assert np.allclose(ckks.decrypt(got[name]),
                           ckks.decrypt(want[name]), atol=1e-3), \
            f"seed {seed} output {name} diverged"


# ------------------------------------------------------- kernel integration

def _named(*groups):
    """A kernel's run() inputs under the names its traced program uses."""
    return {f"in{i}": ct
            for i, ct in enumerate(ct for group in groups for ct in group)}


def test_matvec_scheduled_matches_direct(bfv):
    rng = np.random.default_rng(9)
    matrix = rng.integers(0, 8, (16, 16))
    kernel = EncryptedMatVec(bfv, matrix)
    bfv.make_galois_keys(kernel.required_rotation_steps())
    vec = rng.integers(0, 9, 16)
    ct = bfv.encrypt(kernel.pack_input(vec).astype(np.int64))

    naive = kernel.scheduled((1,)).run_reference(bfv, _named([ct]))["out0"]
    got = kernel.unpack_output(np.asarray(bfv.decrypt(kernel(ct))))
    want = kernel.unpack_output(np.asarray(bfv.decrypt(naive)))
    t = bfv.params.plain_modulus
    assert np.array_equal(got % t, want % t)
    assert np.array_equal(got % t, kernel.reference(vec) % t)

    report = kernel.schedule_report()
    assert report.weighted_sum_spans == 1
    assert report.level_plan is not None, "mat-vec outputs go to the client"
    # The one kernel whose output feeds another keeps the full chain.
    iteration = _Iteration(bfv, matrix)
    assert iteration.schedule_report().level_plan is None, \
        "PageRank iterations chain: planner off"


def test_bsgs_scheduled_matches_direct(bfv):
    rng = np.random.default_rng(10)
    matrix = rng.integers(0, 8, (16, 16))
    kernel = BsgsMatVec(bfv, matrix)
    bfv.make_galois_keys(kernel.required_rotation_steps())
    vec = rng.integers(0, 9, 16)
    ct = bfv.encrypt(kernel.pack_input(vec).astype(np.int64))
    naive = kernel.scheduled((1,)).run_reference(bfv, _named([ct]))["out0"]
    t = bfv.params.plain_modulus
    got = kernel.unpack_output(np.asarray(bfv.decrypt(kernel(ct)))) % t
    want = kernel.unpack_output(np.asarray(bfv.decrypt(naive))) % t
    assert np.array_equal(got, want)

    # Each baby feeds one span per giant step but is never materialized:
    # the warm call shares one decompose and transforms no row.
    before = dict(bfv.counts)
    kernel(ct)
    assert bfv.counts["ntt_forward"] == before["ntt_forward"]
    assert bfv.counts["hoisted_decompose"] - before["hoisted_decompose"] == 1


def test_a_run_leaves_the_shared_report_unchanged(bfv, ckks):
    """A report is the compile's alone: ``batched_consts`` counts the live
    consts under BFV (0 under CKKS) before any run, and no run of the
    shared schedule writes to it."""
    rng = np.random.default_rng(14)
    kernel = BsgsMatVec(bfv, rng.integers(0, 8, (16, 16)))
    bfv.make_galois_keys(kernel.required_rotation_steps())
    sched = kernel.scheduled((1,))
    consts = sum(sched.program.nodes[nid].kind == "const"
                 for nid in sched.program.live_set())
    assert sched.report.batched_consts == consts > 0
    before = replace(sched.report)
    kernel(bfv.encrypt(kernel.pack_input(rng.integers(0, 9, 16))
                       .astype(np.int64)))
    assert sched.report == before
    problem = DistanceProblem(n_points=4, dims=3)
    knn = DimensionMajorKernel(ckks, problem)
    report = knn.schedule_report(knn.input_shape)
    assert report.batched_consts == 0


def test_distance_kernel_scheduled_matches_direct(ckks):
    problem = DistanceProblem(n_points=4, dims=3)
    kernel = DimensionMajorKernel(ckks, problem)
    rng = np.random.default_rng(12)
    points = rng.uniform(-1, 1, (4, 3))
    query = rng.uniform(-1, 1, 3)
    p_cts, q_cts = kernel.encrypt_points(points), kernel.encrypt_query(query)
    got = kernel.distances(p_cts, q_cts)
    naive = kernel.scheduled((len(p_cts), len(q_cts))).run_reference(
        ckks, _named(p_cts, q_cts))
    want = kernel.decode([np.real(ckks.decrypt(naive["out0"]))])
    assert np.allclose(got, want, atol=1e-3)
    assert np.allclose(got, kernel.reference(points, query), atol=0.05)


def _linalg_case(ctx, kernel, packed, unpack, want):
    ensure_galois_keys(ctx, kernel.required_rotation_steps())
    ct = ctx.encrypt(np.asarray(packed).astype(np.int64))
    return (ctx, kernel.scheduled((1,)), _named([ct]), [kernel(ct)],
            lambda slots: unpack(slots[0]), want)


def _matvec_case(cls):
    def build(bfv, _ckks):
        rng = np.random.default_rng(32)
        kernel = cls(bfv, rng.integers(0, 8, (12, 16)))
        vec = rng.integers(0, 9, 16)
        return _linalg_case(bfv, kernel, kernel.pack_input(vec),
                            kernel.unpack_output, kernel.reference(vec))
    return build


def _conv_case(channels, seed):
    def build(bfv, _ckks):
        rng = np.random.default_rng(seed)
        spec = Conv2dSpec(channels, channels, 5, 5, 3)
        conv = TiledEncryptedConv2d(
            bfv, spec, rng.integers(-2, 3, (channels, channels, 3, 3)))
        ensure_galois_keys(bfv, conv.required_rotation_steps())
        image = rng.integers(0, 4, (channels, 5, 5))
        cts = conv.encrypt_input(image)
        return (bfv, conv.scheduled((len(cts),)), _named(cts), conv(cts),
                conv.unpack_outputs, conv.reference(image))
    return build


def _distance_case(cls, n_points=6, dims=4, **extra):
    def build(_bfv, shared):
        # A context of its own, with the fixture's params and seed: the
        # shared one's noise and keys depend on which tests ran before.
        ckks = CkksContext(shared.params, seed=5678)
        rng = np.random.default_rng(34)
        kernel = cls(ckks, DistanceProblem(n_points=n_points, dims=dims),
                     **extra)
        ensure_galois_keys(ckks, kernel.required_rotation_steps())
        points = rng.uniform(-1, 1, (n_points, dims))
        p_cts = kernel.encrypt_points(points)
        if extra:                           # multi-query: a query matrix
            queries = rng.uniform(-1, 1, (extra["max_queries"], dims))
            q_cts = ckks.encrypt_many(kernel.pack_queries(queries))
            decode = lambda slots: kernel.decode_matrix(slots, len(queries))
            want = kernel.reference_matrix(points, queries)
        else:
            query = rng.uniform(-1, 1, dims)
            q_cts = kernel.encrypt_query(query)
            decode, want = kernel.decode, kernel.reference(points, query)
        return (ckks, kernel.scheduled((len(p_cts), len(q_cts))),
                _named(p_cts, q_cts), kernel.compute(p_cts, q_cts),
                decode, want)
    return build


def _lola_case(_bfv, ckks):
    rng = np.random.default_rng(36)
    kernel = AlternatingMatVec(ckks, rng.uniform(-0.5, 0.5, (4, 4)))
    ensure_galois_keys(ckks, kernel.required_rotation_steps())
    vec = rng.uniform(-1, 1, 4)
    ct = ckks.encrypt(kernel.pack_dense(vec))
    return (ckks, kernel.scheduled((1, 0)), _named([ct]),
            [kernel.dense_to_spread(ct)],
            lambda slots: kernel.unpack_spread(slots[0]), kernel.matrix @ vec)


def _pagerank_case(_bfv, ckks):
    rng = np.random.default_rng(37)
    kernel = ClientAidedPageRank(ckks, rng.integers(0, 2, (4, 4)))._iteration
    rank = rng.uniform(0, 1, 4)
    ct = ckks.encrypt(kernel.pack_input(rank))
    return (ckks, kernel.scheduled((1,)), _named([ct]), [kernel(ct)],
            lambda slots: kernel.unpack_output(slots[0]),
            kernel.reference(rank))


def _eva_case(_bfv, ckks):
    x = Input("x")
    acc = x * [0.5, 0.25, 0.125, 1.0, 0.5, 0.25, 0.125, 1.0]
    acc = acc + acc.rotate(4)
    compiled = compile_program(EvaProgram({"y": acc * x + 1.0}, slots=8))
    values = {"x": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]}
    sched = compiled.scheduled(ckks.params)
    ensure_galois_keys(ckks, sched.rotation_steps())
    padded = np.zeros(ckks.params.poly_degree // 2)
    padded[:8] = values["x"]
    inputs = {"x": ckks.encrypt(padded)}
    return (ckks, sched, inputs, list(sched.run(ckks, inputs).values()),
            lambda slots: slots[0][:8], compiled.reference(values)["y"])


KERNEL_FAMILIES = {
    "conv2d": _conv_case(2, seed=31),           # one tile
    "matvec": _matvec_case(EncryptedMatVec),
    "bsgs-matvec": _matvec_case(BsgsMatVec),
    "tiled-conv2d": _conv_case(10, seed=33),    # two input and two output tiles
    **{name: _distance_case(cls) for name, cls in KERNEL_VARIANTS.items()},
    "multi-query": _distance_case(MultiQueryDimensionMajor, max_queries=3),
    "lola-product": _lola_case,
    "pagerank-iteration": _pagerank_case,
    "eva-program": _eva_case,
}


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_kernel_run_matches_its_reference_and_plaintext(family, bfv, ckks):
    """Every kernel family executes one way — trace, schedule, run — and
    the scheduled result equals the naive oracle over the kernel's own
    traced program and the plaintext reference."""
    ctx, sched, inputs, got_cts, decode, want = \
        KERNEL_FAMILIES[family](bfv, ckks)
    naive_cts = list(sched.run_reference(ctx, inputs).values())
    assert len(got_cts) == len(naive_cts)
    got = decode([np.real(v) for v in ctx.decrypt_many(got_cts)])
    naive = decode([np.real(v) for v in ctx.decrypt_many(naive_cts)])
    if ctx is bfv:
        t = bfv.params.plain_modulus
        assert np.array_equal(np.mod(got, t), np.mod(naive, t))
        assert np.array_equal(np.mod(got, t), np.mod(want, t))
    else:
        assert np.allclose(got, naive, atol=1e-3)
        assert np.allclose(got, want, atol=1e-3)
    # Keys are read off the trace: no pass, planner on or off, may add a
    # rotation step to it or remove one.
    for params in (None, ctx.params):
        compiled = compile_ir(sched.source, sched.scheme, params=params)
        assert compiled.rotation_steps() == sched.source.rotation_steps()


def test_untraceable_kernel_body_raises_schedule_error(bfv):
    """There is no direct path to fall back to: a body the tracer cannot
    record is an error from the first call."""
    class Untraceable(EncryptedMatVec):
        def _body(self, ev, cts):
            return ev.multiply(cts[0], cts[0], relinearize=False)

    kernel = Untraceable(bfv, np.eye(4, dtype=np.int64))
    ct = bfv.encrypt(kernel.pack_input(np.arange(4)).astype(np.int64))
    with pytest.raises(ScheduleError):
        kernel(ct)


def test_tiled_conv_shares_one_hoisted_decompose(bfv):
    """The e2e benchmark's conv (1 -> 4 channels, 12x12, k3): the 8 tap
    rotations of the one input tile ride a single key-switch decompose.
    Re-recorded from 35 steps / 1 hoisted / 0 naive: the 3 channel shifts
    are now rotations of their own, each of a different per-shift sum, so
    each pays its own decompose — 11 keys instead of 35."""
    rng = np.random.default_rng(35)
    spec = Conv2dSpec(in_channels=1, out_channels=4, height=12, width=12,
                      kernel_size=3)
    params = small_test_parameters(SchemeType.BFV, poly_degree=2048,
                                   plain_bits=16, data_bits=(30, 30))
    ctx = BfvContext(params, seed=b"tiled-hoist")
    conv = TiledEncryptedConv2d(ctx, spec, rng.integers(1, 4, (4, 1, 3, 3)))
    steps = conv.required_rotation_steps()
    assert len(steps) == 11
    ctx.make_galois_keys(steps)
    image = rng.integers(0, 16, (1, 12, 12))
    cts = conv.encrypt_input(image)
    before = dict(ctx.counts)
    outs = conv(cts)
    assert ctx.counts["hoisted_decompose"] - before.get(
        "hoisted_decompose", 0) == 1
    assert ctx.counts["naive_decompose"] - before.get(
        "naive_decompose", 0) == 3
    got = conv.unpack_outputs(ctx.decrypt_many(outs))
    t = params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(conv.reference(image), t))


def test_compiled_program_plans_levels_per_parameter_set(ckks):
    """One compiled Eva program run under two parameter sets gets two
    level plans, not the first caller's."""
    x = Input("x")
    compiled = compile_program(EvaProgram({"y": x * x + x.rotate(1)},
                                          slots=4))
    deep = CkksContext(small_test_parameters(
        SchemeType.CKKS, poly_degree=1024, data_bits=(30, 24, 24, 24)),
        seed=91)
    values = {"x": [0.5, 0.25, -0.5, 0.125]}
    want = compiled.reference(values)["y"]
    for ctx in (ckks, deep, ckks):
        assert np.allclose(compiled.execute(ctx, values)["y"], want,
                           atol=1e-2)
    first, second = (compiled.scheduled(c.params) for c in (ckks, deep))
    assert first is not second
    assert first is compiled.scheduled(ckks.params)       # memoised
    assert first.report.level_plan is not second.report.level_plan
    assert (second.report.level_plan.limb_rows_before
            > first.report.level_plan.limb_rows_before)


# ------------------------------------------------ one path, and who is off it

#: Every caller of an evaluator primitive on a live context, with the
#: reason it is not a traced kernel.  The scheduler, the level planner, the
#: program cache and the key derivation see nothing these do.
DIRECT_CALLERS = {
    "apps/kmeans.py::cluster_sums":
        "the mask is per-call client data: tracing it needs a plaintext-"
        "input IR node, or a recompile per cluster per round",
    "core/permute.py":
        "Fig. 4A's masked permutation, measured naive on purpose: Table 4 "
        "reads noise_budget off a live context",
    "core/packing.py::windowed_rotation_redundant":
        "Fig. 4B's single rotation, the other half of that measured pair",
    "baselines/gazelle_conv.py":
        "the server-optimized baseline the pair is measured against",
}

PRIMITIVES = {"rotate", "rotate_many", "rotate_and_sum", "multiply",
              "multiply_plain", "square", "rescale", "mod_switch_down",
              "relinearize"}

#: Receivers that emit IR instead of computing: ``ev`` in a kernel body,
#: ``builder`` in the Eva lowering.
EMITTERS = {"ev", "builder"}


class _DirectCalls(ast.NodeVisitor):
    """Innermost function name of every primitive call off an emitter."""

    def __init__(self):
        self.scope, self.found = ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        fn = node.func
        if (isinstance(fn, ast.Attribute) and fn.attr in PRIMITIVES
                and not (isinstance(fn.value, ast.Name)
                         and fn.value.id in EMITTERS)):
            self.found.add(self.scope[-1])
        self.generic_visit(node)


def test_evaluator_primitives_are_called_only_on_the_traced_evaluator():
    src = Path(repro.__file__).parent
    found = set()
    for path in sorted(p for package in ("core", "apps", "baselines")
                       for p in (src / package).glob("*.py")):
        name = path.relative_to(src).as_posix()
        if name == "core/ir.py":            # the tracer and the runner
            continue
        calls = _DirectCalls()
        calls.visit(ast.parse(path.read_text()))
        found |= {name if name in DIRECT_CALLERS else f"{name}::{fn}"
                  for fn in calls.found}
    assert found == set(DIRECT_CALLERS)


# -------------------------------------------------------------- galois keys

def test_ensure_galois_keys_merges_and_extends(bfv):
    keys = ensure_galois_keys(bfv, {1, 2}, {2, 3}, [0])
    assert keys is ensure_galois_keys(bfv, {1})      # extended in place
    again = ensure_galois_keys(bfv, set())           # empty set is a no-op
    assert again is keys
