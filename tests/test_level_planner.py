"""Tests for the level-aware parameter planner (``repro.core.levelplan``).

Covers the planner's contract end to end: eager limb drops at
coefficient-form sites with bit-exact BFV (and tight-tolerance CKKS)
results, the plan as a checked contract (a diverged entry level or a foreign
modulus chain is refused before anything runs, and a refused or failed run
is not metered), the static level analysis against what the executor
counts over everything shipped, the single noise-cost table, telemetry
flow into context counters / CostLedger / session metrics, the planner-on
pipelines (Eva programs, distance kernels), and a fleet round trip
(planner-on KNN through the router with resume-after-eviction).
"""

import asyncio
import contextlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.apps.pagerank import _Iteration, google_matrix
from repro.core.ir import (
    ScheduledProgram,
    ScheduleError,
    ScheduleReport,
    compile_ir,
    ensure_galois_keys,
    trace_program,
)
from repro.core.levelplan import LevelPlan, plan_levels
from repro.core.linalg import _window_sum
from repro.core.protocol import ClientAidedSession
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.keys import MissingEvaluationKey
from repro.hecore.noise import NoiseEstimator
from repro.hecore.params import PARAMETER_SET_B, SchemeType
from tests.test_ir import _random_bfv_program, _random_ckks_program
from tests.test_rotation_bases import _e2e_layers

KNN_INSTALLER = "repro.apps.knn:KnnOffloadService.install"


def _raw(program, scheme):
    """Pass-free oracle: one primitive call per traced node, full chain."""
    return ScheduledProgram(program, scheme, ScheduleReport(), set())


def _diag_matvec_trace(params, mats, dim):
    """Diagonal matvec layers traced as one program (drop-site rich)."""
    slots = params.poly_degree

    def body(tr, x):
        for m in mats:
            acc = None
            for d in range(dim):
                diag = np.array([m[r, (r + d) % dim] for r in range(dim)])
                term = tr.multiply_plain(tr.rotate(x, d) if d else x,
                                         tr.encode(np.tile(diag,
                                                           slots // dim)))
                acc = term if acc is None else tr.add(acc, term)
            x = acc
        return x

    return trace_program(params, body, ["x"])


def _light_trace(params):
    """A cheap-spend program: rotate, plain add, fold — drops at the input."""
    slots = params.poly_degree

    def body(tr, x):
        y = tr.add_plain(tr.rotate(x, 1), tr.encode(np.ones(slots)))
        return _window_sum(tr, y, 4)

    return trace_program(params, body, ["x"])


# ------------------------------------------------------------ plan plumbing

def test_compile_without_params_has_no_plan(bfv_params):
    sched = compile_ir(_light_trace(bfv_params), SchemeType.BFV)
    assert sched.report.level_plan is None


def test_plan_levels_reports_row_savings(bfv_params):
    program = _light_trace(bfv_params)
    planned, plan = plan_levels(program, bfv_params)
    assert isinstance(plan, LevelPlan)
    assert plan.limb_drops > 0
    assert plan.limb_rows_after < plan.limb_rows_before
    assert "limb drop(s)" in plan.describe()
    assert plan.predicted_unsafe == 0
    # The plan names the chain it is a contract for, and its switches
    # carry the ``planned`` marker the executor meters ``limb_drops`` on.
    assert plan.chain == tuple(int(p) for p in bfv_params.data_base.moduli)
    assert sum(n.planned for n in planned.nodes) == plan.limb_drops


# ----------------------------------------------------- exactness with drops

def test_matvec_chain_drops_limbs_bit_exact(bfv, bfv_params):
    rng = np.random.default_rng(21)
    mats = [rng.integers(0, 7, (8, 8)) for _ in range(2)]
    program = _diag_matvec_trace(bfv_params, mats, dim=8)

    sched = compile_ir(program, SchemeType.BFV, params=bfv_params)
    plan = sched.report.level_plan
    assert plan is not None and plan.limb_drops > 0

    raw = _raw(program, SchemeType.BFV)
    keys = ensure_galois_keys(bfv, sched.rotation_steps(),
                              raw.rotation_steps())
    vec = rng.integers(0, 7, 8)
    ct = bfv.encrypt(np.tile(vec, bfv_params.poly_degree // 8))

    before = {k: bfv.counts.get(k, 0) for k in ("limb_drops", "limbs_live")}
    got = sched.run(bfv, {"x": ct}, keys)["out0"]
    assert bfv.counts["limb_drops"] - before["limb_drops"] > 0
    assert bfv.counts["limbs_live"] - before["limbs_live"] > 0

    want = raw.run_reference(bfv, {"x": ct}, keys)["out0"]
    assert np.array_equal(np.asarray(bfv.decrypt(got)),
                          np.asarray(bfv.decrypt(want)))
    # The planned result rides a shorter chain — smaller on the wire too.
    assert len(got.level_base) < len(want.level_base)
    assert got.size_bytes() < want.size_bytes()


@pytest.mark.parametrize("seed", range(6))
def test_randomized_dag_planner_on_bfv_bit_exact(bfv, bfv_params, seed):
    rng = np.random.default_rng(seed)
    program = _random_bfv_program(bfv_params, rng, n_ops=12)
    sched = compile_ir(program, SchemeType.BFV, params=bfv_params)
    raw = _raw(program, SchemeType.BFV)
    keys = ensure_galois_keys(bfv, sched.rotation_steps(),
                              raw.rotation_steps())
    x = bfv.encrypt(rng.integers(0, 7, 512))
    y = bfv.encrypt(rng.integers(0, 7, 512))
    got = sched.run(bfv, {"x": x, "y": y}, keys)
    want = raw.run_reference(bfv, {"x": x, "y": y}, keys)
    for name in got:
        assert np.array_equal(np.asarray(bfv.decrypt(got[name])),
                              np.asarray(bfv.decrypt(want[name]))), \
            f"seed {seed} output {name} diverged under the planner"


@pytest.mark.parametrize("seed", range(4))
def test_randomized_dag_planner_on_ckks_close(ckks, ckks_params, seed):
    rng = np.random.default_rng(200 + seed)
    program = _random_ckks_program(ckks_params, rng, n_ops=10)
    sched = compile_ir(program, SchemeType.CKKS, params=ckks_params)
    raw = _raw(program, SchemeType.CKKS)
    keys = ensure_galois_keys(ckks, sched.rotation_steps(),
                              raw.rotation_steps())
    x = ckks.encrypt(ckks.encode(rng.uniform(-0.5, 0.5, 512)))
    y = ckks.encrypt(ckks.encode(rng.uniform(-0.5, 0.5, 512)))
    got = sched.run(ckks, {"x": x, "y": y}, keys)
    want = raw.run_reference(ckks, {"x": x, "y": y}, keys)
    for name in got:
        assert np.allclose(ckks.decrypt(got[name]),
                           ckks.decrypt(want[name]), atol=1e-3), \
            f"seed {seed} output {name} diverged under the planner"


def test_ckks_drop_is_value_exact(ckks_params):
    """A CKKS limb drop uses scale-preserving ``drop_modulus``, checked
    like with like on several context seeds.  The drop alone moves no
    decrypted value; and the planned run, which drops its input before
    rotating, decrypts as the oracle run on that dropped input with the
    same key, so the two rotations key-switch at one level and the
    comparison measures the drop, not the key-switch noise of two levels.
    A drop that divided and rounded as ``rescale`` does fails both."""
    def body(tr, x):
        return tr.add(tr.rotate(x, 2), x)

    program = trace_program(ckks_params, body, ["x"])
    sched = compile_ir(program, SchemeType.CKKS, params=ckks_params)
    raw = _raw(program, SchemeType.CKKS)
    plan = sched.report.level_plan
    assert plan is not None and plan.limb_drops > 0
    entry = sched.entry_limbs()["x"]
    assert entry < len(plan.chain)
    for seed in (5678, 1, 2, 3):
        ckks = CkksContext(ckks_params, seed=seed)
        keys = ensure_galois_keys(ckks, sched.rotation_steps())
        ct = ckks.encrypt(ckks.encode(np.linspace(-1, 1, 512)))
        dropped = ct
        while len(dropped.level_base) > entry:
            dropped = ckks.drop_modulus(dropped)
        assert np.array_equal(ckks.decrypt(dropped), ckks.decrypt(ct))
        got = sched.run(ckks, {"x": ct}, keys)["out0"]
        want = raw.run_reference(ckks, {"x": dropped}, keys)["out0"]
        assert len(got.level_base) == len(want.level_base) == entry
        assert np.allclose(ckks.decrypt(got), ckks.decrypt(want),
                           rtol=0, atol=1e-6), f"seed {seed}"


def test_a_product_sum_reads_its_operands_at_one_level(ckks, ckks_params):
    """The planner drops ``y`` a limb at entry and keeps ``x``, which a
    deeper path reads too: the product sum ``x·x + y·y`` reads ``x``
    through one align switch, as a ``mul`` would, keeps ``x·x`` a square,
    and decrypts as the oracle does."""
    def body(tr, x, y):
        total = tr.rescale(tr.add(tr.multiply(x, x), tr.multiply(y, y)))
        deep = tr.rescale(tr.multiply(tr.rescale(tr.multiply(x, x)), x))
        return [total, deep]

    program = trace_program(ckks_params, body, ["x", "y"])
    sched = compile_ir(program, SchemeType.CKKS, params=ckks_params)
    assert sched.report.product_sums == 1
    assert sched.entry_limbs() == {"x": 3, "y": 2}
    nodes = sched.program.nodes
    (psum,) = [nid for nid in sched.program.live_set()
               if nodes[nid].kind == "product_sum"]
    x2, x2_, y2, y2_ = nodes[psum].args
    assert (x2, y2) == (x2_, y2_)
    assert nodes[x2].kind == "mod_switch" and nodes[x2].planned
    assert sched.limbs[x2] == sched.limbs[y2] == 2
    rng = np.random.default_rng(17)
    inputs = {name: ckks.encrypt(ckks.encode(rng.uniform(-0.5, 0.5, 512)))
              for name in ("x", "y")}
    got = sched.run(ckks, inputs)
    want = _raw(program, SchemeType.CKKS).run_reference(ckks, inputs)
    for name in want:
        assert np.allclose(ckks.decrypt(got[name]), ckks.decrypt(want[name]),
                           atol=1e-3), name


@pytest.fixture(scope="module")
def wide_bfv():
    """A five-limb chain: the foreign chain of the contract tests and the
    chain the bench programs are checked on."""
    from repro.hecore.params import small_test_parameters
    params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                   plain_bits=16,
                                   data_bits=(30, 30, 30, 30, 30))
    return BfvContext(params, seed=77)


# ------------------------------------------------ the plan is a contract

LEVEL_COUNTERS = ("limb_drops", "limbs_live")


def _level_counts(ctx):
    return {k: ctx.counts.get(k, 0) for k in LEVEL_COUNTERS}


def test_planned_drop_skips_on_level_divergence(bfv, bfv_params):
    """A ciphertext entering below its entry level is refused before
    anything runs, naming the input, its width and the entry level, and
    the refused run is billed nothing."""
    sched = compile_ir(_light_trace(bfv_params), SchemeType.BFV,
                       params=bfv_params)
    assert sched.report.level_plan.limb_drops > 0
    keys = ensure_galois_keys(bfv, sched.rotation_steps())

    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 7)
    low = bfv.mod_switch_down(bfv.mod_switch_down(ct))   # 3 -> 1 limb
    before = _level_counts(bfv)
    with pytest.raises(ScheduleError,
                       match=r"input 'x' arrives on 1 limb\(s\), below its "
                             r"entry level: the level plan enters it on 2 "
                             r"of all 3"):
        sched.run(bfv, {"x": low}, keys)
    assert _level_counts(bfv) == before
    # The unplanned source program still serves any entry level.
    want = sched.run_reference(bfv, {"x": low}, keys)["out0"]
    assert len(want.level_base) == 1


def test_bfv_terminal_result_fed_to_a_kernel_is_refused():
    """A conv result leaves on its planned 2 limbs; a caller that chains
    it into the fc without declaring so gets an error, not a decrypt."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"forgotten-declaration")
    conv, fc, rng = _e2e_layers(ctx, 0)
    ensure_galois_keys(ctx, conv.required_rotation_steps(),
                       fc.required_rotation_steps())
    (out,) = conv.run((ctx.encrypt_symmetric_many(
        [v.astype(np.int64)
         for v in conv.pack_input(rng.integers(0, 16, (1, 12, 12)))]),))
    assert len(out.level_base) == 2
    with pytest.raises(ScheduleError,
                       match=r"input 'in0' arrives on 2 limb\(s\), below "
                             r"its entry level: the level plan enters it on "
                             r"3 of all 3"):
        fc(out)


def test_ckks_undeclared_chaining_iteration_is_refused(ckks_params):
    """PageRank's ``_Iteration`` declares that its output feeds the next
    iteration; forced terminal, the second iteration is refused."""
    class Undeclared(_Iteration):
        terminal_outputs = True

    ctx = CkksContext(ckks_params, seed=b"forgotten-declaration")
    matrix = google_matrix(np.ones((4, 4)) - np.eye(4))
    declared, undeclared = _Iteration(ctx, matrix), Undeclared(ctx, matrix)
    ctx.make_galois_keys(declared.required_rotation_steps())
    ct = ctx.encrypt(declared.pack_input(np.full(4, 0.25)))
    declared(declared(ct))
    with pytest.raises(ScheduleError,
                       match=r"input 'in0' arrives on 1 limb\(s\), below "
                             r"its entry level"):
        undeclared(undeclared(ct))


def test_schedule_refuses_a_foreign_chain(bfv_params, wide_bfv):
    """A level plan is made for one modulus chain; a context with another
    raises instead of executing drops priced for different limbs."""
    sched = compile_ir(_light_trace(bfv_params), SchemeType.BFV,
                       params=bfv_params)
    ct = wide_bfv.encrypt(np.arange(512, dtype=np.int64) % 7)
    before = Counter(wide_bfv.counts)
    with pytest.raises(ScheduleError, match="3-limb chain.*5-limb chain"):
        sched.run(wide_bfv, {"x": ct})
    assert wide_bfv.counts == before, "nothing may execute before the check"


def test_failed_run_is_not_metered(wide_bfv):
    """A run that dies on a missing Galois key is billed no limb drop and
    no limbs-live: level telemetry is charged on return."""
    params = wide_bfv.params
    mats = [np.random.default_rng(31).integers(0, 7, (8, 8))]
    sched = compile_ir(_diag_matvec_trace(params, mats, dim=8),
                       SchemeType.BFV, params=params)
    assert sched.report.level_plan.limb_drops > 0
    keyless = BfvContext(params, seed=78)
    ct = keyless.encrypt(np.arange(512, dtype=np.int64) % 7)
    with pytest.raises(MissingEvaluationKey):
        sched.run(keyless, {"x": ct})
    assert _level_counts(keyless) == dict.fromkeys(LEVEL_COUNTERS, 0)


def test_one_cost_table_moves_estimator_and_planner(bfv_params, monkeypatch):
    """``NoiseEstimator.node_cost_bits`` is the only per-op noise table:
    making rotations dearer there lowers ``budget_after`` *and* pulls the
    planner's drop frontier back."""
    program = _light_trace(bfv_params)
    estimator = NoiseEstimator(bfv_params)
    budget = estimator.budget_after(program)["out0"].budget_bits
    _, plan = plan_levels(program, bfv_params)
    assert plan.limb_drops > 0

    real = NoiseEstimator.node_cost_bits
    monkeypatch.setattr(
        NoiseEstimator, "node_cost_bits",
        lambda self, node, nodes: real(self, node, nodes)
        + (15.0 if node.kind == "rotate" else 0.0))
    # The deepest path holds two rotations: the body's, then the window's.
    assert estimator.budget_after(program)["out0"].budget_bits == budget - 30
    # The input-side drop is no longer affordable: it moves to the output,
    # so every node in between runs on the full chain again.
    _, dearer = plan_levels(program, bfv_params)
    assert dearer.limb_rows_after > plan.limb_rows_after


def test_diverged_entry_over_the_wire_fails_one_request(ckks_params):
    """Served: a query below the planned entry level answers
    HANDLER_FAILED (counted as an error, no kernel counter moved) and the
    session serves the next well-formed query."""
    from repro.apps.knn import KnnOffloadService, RemoteKnn
    from repro.core.protocol import KERNEL_COUNTER_NAMES
    from repro.runtime import OffloadClient, OffloadError, OffloadServer
    from repro.runtime.framing import ErrorCode

    rng = np.random.default_rng(9)
    points, query = rng.normal(size=(8, 4)), rng.normal(size=4)

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        host, port = await server.start()
        ctx = CkksContext(ckks_params, seed=29)
        try:
            async with OffloadClient(ckks_params, host, port) as client:
                knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
                batch = await knn.add_points(points, np.arange(8) % 2)
                kernel = knn._batches[0][0]
                stats = server.metrics.get(1)
                before = {n: getattr(stats, n) for n in KERNEL_COUNTER_NAMES}

                low = [ctx.mod_switch_down(ct)
                       for ct in ctx.encrypt_many(kernel.pack_query(query))]
                with pytest.raises(OffloadError) as refused:
                    await client.request(KnnOffloadService.OP_QUERY, low,
                                         {"batch": batch})
                assert refused.value.code is ErrorCode.HANDLER_FAILED
                assert "2 limb(s)" in str(refused.value)
                assert "all 3" in str(refused.value)
                assert stats.errors == 1
                assert before == {n: getattr(stats, n)
                                  for n in KERNEL_COUNTER_NAMES}

                served = await knn.classify(query)
                assert stats.errors == 1 and stats.limbs_live > 0
                return served
        finally:
            await server.stop()

    assert asyncio.run(main()).label in (0, 1)


# ------------------------------- static analysis == what the executor counts

def _assert_static_matches_run(sched, ctx, inputs, keys=None):
    """Σ statically analysed live limbs over executed ciphertext nodes ==
    the run's ``limbs_live``; live planned switches == its ``limb_drops``.
    An input's entry chain runs from the limbs it arrived on: each drop
    there goes down to its planned level, so one on the entry chain skips
    them and one above it takes them (its ``entry_drops``)."""
    full = len(ctx.params.data_base.moduli)
    nodes = sched.program.nodes
    levels = sched.program.levels(sched.scheme)
    limbs = {nid: full - level[0] for nid, level in levels.items()
             if level is not None}
    entry = {nid for chain in sched.entry_chains.values() for nid in chain}
    taken = 0
    for nid, node in enumerate(nodes):
        if nid in limbs and node.kind == "input":
            limbs[nid] = arrived = len(inputs[node.name].level_base)
            for drop in sched.entry_chains[node.name]:
                taken += arrived > limbs[drop]
                arrived = limbs[drop] = min(arrived, limbs[drop])
    want = {
        "limbs_live": sum(limbs.values()),
        "limb_drops": sum(nodes[nid].planned and nid not in entry
                          for nid in levels) + taken,
        "entry_drops": taken,
    }
    before = Counter(ctx.counts)
    sched.run(ctx, inputs, keys)
    delta = ctx.counts - before
    assert {k: delta[k] for k in want} == want


@pytest.mark.parametrize("variant", [
    "point-major", "dimension-major", "stacked-point", "stacked-dimension",
    "collapsed", "multi-query"])
def test_static_levels_match_executed_distance_kernels(ckks, variant):
    from repro.core.distance import (KERNEL_VARIANTS, DistanceProblem,
                                     MultiQueryDimensionMajor)

    rng = np.random.default_rng(17)
    points = rng.uniform(-1, 1, (4, 3))
    problem = DistanceProblem(n_points=4, dims=3)
    if variant == "multi-query":
        kernel = MultiQueryDimensionMajor(ckks, problem, max_queries=2)
        queries = rng.uniform(-1, 1, (2, 3))
        q_cts = ckks.encrypt_many(kernel.pack_queries(queries))
        full_q = ckks.encrypt_many(kernel.queries_slots(queries))
    else:
        kernel = KERNEL_VARIANTS[variant](ckks, problem)
        query = rng.uniform(-1, 1, 3)
        q_cts = kernel.encrypt_query(query)
        full_q = ckks.encrypt_many(kernel.query_slots(query))
    p_cts = kernel.encrypt_points(points)
    sched = kernel.scheduled((len(p_cts), len(q_cts)))
    assert sched.report.level_plan is not None
    keys = ensure_galois_keys(ckks, sched.rotation_steps())
    # Queries on their entry chain, then as a full-chain client sends them.
    for queries in (q_cts, full_q):
        _assert_static_matches_run(
            sched, ckks,
            {f"in{i}": ct for i, ct in enumerate(p_cts + queries)}, keys)


def test_evaluation_form_uploads_reach_the_first_multiply_untransformed(ckks):
    """The served dimension-major query: every input arrives in evaluation
    form (``encrypt_symmetric_many``), the plan drops a limb on each of
    them (a CKKS limb drop is a row slice in either form), the subtracts
    feed the squares, and the squares' 3-component sum stays in evaluation
    form down to its one ``relin``, which takes it in that form.  So the
    whole query charges one relinearization and, as its only
    ``ntt_inverse`` rows, the two of the ``c2`` the key switch decomposes
    in coefficient form; static levels still equal executed
    ``limbs_live``."""
    from repro.core.distance import KERNEL_VARIANTS, DistanceProblem

    rng = np.random.default_rng(19)
    points, query = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 3)
    kernel = KERNEL_VARIANTS["dimension-major"](
        ckks, DistanceProblem(n_points=4, dims=3))
    p_cts = ckks.encrypt_symmetric_many(kernel.pack_points(points))
    q_cts = ckks.encrypt_symmetric_many(kernel.pack_query(query))
    assert all(ct.is_ntt for ct in p_cts + q_cts)
    sched = kernel.scheduled((len(p_cts), len(q_cts)))
    assert sched.report.level_plan.limb_drops == len(p_cts + q_cts)
    assert sched.report.relins_sunk == len(p_cts) - 1
    (relin,) = [nid for nid in sched.program.live_set()
                if sched.program.nodes[nid].kind == "relin"]
    assert sched.program.nodes[relin].args[0] in sched.resident

    inputs = {f"in{i}": ct for i, ct in enumerate(p_cts + q_cts)}
    before = Counter(ckks.counts)
    _assert_static_matches_run(sched, ckks, inputs)
    delta = ckks.counts - before
    assert (delta["ntt_inverse"], delta["relinearize"]) == (2, 1)

    got = kernel.decode([np.real(v) for v in ckks.decrypt_many(
        [sched.run(ckks, inputs)["out0"]])])
    assert np.allclose(got, kernel.reference(points, query), atol=1e-2)


def test_static_levels_match_executed_eva_program(ckks):
    from repro.core.compiler import EvaProgram, Input, compile_program

    x = Input("x")
    acc = (x * x) * 0.25 + x + 1.0
    compiled = compile_program(EvaProgram({"y": acc + acc.rotate(1)}, slots=4))
    sched = compiled.scheduled(ckks.params)
    keys = ensure_galois_keys(ckks, sched.rotation_steps())
    padded = np.zeros(ckks.params.poly_degree // 2)
    padded[:4] = [0.3, 0.6, -0.3, -0.6]
    _assert_static_matches_run(sched, ckks, {"x": ckks.encrypt(padded)}, keys)


@pytest.mark.parametrize("which", ["matvec_chain", "dnn_slice"])
def test_static_levels_match_executed_bench_programs(wide_bfv, which):
    """The BFV programs ``bench_level_planner.py`` gates on (four matvec
    layers; the slice's conv and fc), on the five-limb test chain."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
    import bench_level_planner as bench

    params = wide_bfv.params
    rng = np.random.default_rng(7)
    if which == "matvec_chain":
        mats = [rng.integers(0, 7, size=(bench.CHAIN_DIM, bench.CHAIN_DIM))
                for _ in range(bench.CHAIN_LAYERS)]
        programs, name = [bench._trace_chain(wide_bfv, mats)], "x"
    else:
        programs, name = bench._trace_slice(wide_bfv, rng)[0], "in0"
    for program in programs:
        sched = compile_ir(program, SchemeType.BFV, params=params)
        assert sched.report.level_plan.limb_drops > 0
        keys = ensure_galois_keys(wide_bfv, sched.rotation_steps())
        ct = wide_bfv.encrypt(rng.integers(0, 4, params.poly_degree))
        _assert_static_matches_run(sched, wide_bfv, {name: ct}, keys)


# ------------------------------------------------------- telemetry surfaces

def test_planner_counters_reach_ledger_and_metrics(bfv, bfv_params):
    program = _light_trace(bfv_params)
    sched = compile_ir(program, SchemeType.BFV, params=bfv_params)
    keys = ensure_galois_keys(bfv, sched.rotation_steps())
    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 5)

    session = ClientAidedSession(bfv)
    session.server_compute(sched.run, bfv, {"x": ct}, keys)
    assert session.ledger.limb_drops > 0
    assert session.ledger.limbs_live > 0

    from repro.runtime.metrics import RuntimeMetrics
    metrics = RuntimeMetrics()
    m = metrics.open_session(1)
    m.limb_drops = session.ledger.limb_drops
    m.limbs_live = session.ledger.limbs_live
    snapshot = metrics.snapshot()
    assert snapshot["limb_drops"] == session.ledger.limb_drops
    assert snapshot["limbs_live"] == session.ledger.limbs_live
    rendered = metrics.render()
    assert "level planner:" in rendered
    assert f"{session.ledger.limb_drops} limb drop(s)" in rendered


# ----------------------------------------------- pipelines: dnn / knn apps

def test_eva_dnn_pipeline_planner_equality(ckks):
    """A compiled Eva pipeline (fc-layer shape: plain mult + rotation sum)
    run planner-on (the one way it executes), as the same lowered program
    compiled without the planner, and through the naive oracle must agree
    — and the executed schedule must carry a level plan."""
    from repro.core.compiler import (EvaProgram, Input, compile_program,
                                     lower_to_ir)

    x = Input("x")
    acc = x * [0.5, 0.25, 0.125, 1.0, 0.5, 0.25, 0.125, 1.0]
    acc = acc + acc.rotate(4)
    acc = acc + acc.rotate(2) + 1.0
    program = EvaProgram({"y": acc}, slots=8)
    values = {"x": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]}

    compiled = compile_program(program)
    got_on = compiled.execute(ckks, values)["y"]
    sched_on = compiled.scheduled(ckks.params)
    sched_off = compile_ir(lower_to_ir(program), SchemeType.CKKS)
    padded = np.zeros(ckks.params.poly_degree // 2)
    padded[:8] = values["x"]
    inputs = {"x": ckks.encrypt(padded)}
    got_off = np.real(ckks.decrypt(sched_off.run(ckks, inputs)["y"]))[:8]
    got_naive = np.real(ckks.decrypt(
        sched_on.run_reference(ckks, inputs)["y"]))[:8]
    want = compiled.reference(values)["y"]
    for got in (got_on, got_off, got_naive):
        assert np.allclose(got, want, atol=0.05)

    plan = sched_on.report.level_plan
    assert plan is not None and plan.limb_drops > 0
    assert sched_off.report.level_plan is None


def test_knn_distance_pipeline_planner_drops_download_bytes(ckks):
    """Distance kernels are planner-on (their outputs download
    immediately): same distances as the kernel's own program compiled
    without the planner, smaller result ciphertexts on the wire."""
    from repro.core.distance import DimensionMajorKernel, DistanceProblem

    kernel = DimensionMajorKernel(ckks, DistanceProblem(n_points=4, dims=3))
    rng = np.random.default_rng(19)
    points = rng.uniform(-1, 1, (4, 3))
    query = rng.uniform(-1, 1, 3)
    p_cts, q_cts = kernel.encrypt_points(points), kernel.encrypt_query(query)
    shape = (len(p_cts), len(q_cts))

    out_on = kernel.compute(p_cts, q_cts)
    # Without a plan there is no entry level: the query rides the full chain.
    off = compile_ir(kernel.program(shape), SchemeType.CKKS)
    full_q = ckks.encrypt_many(kernel.query_slots(query))
    out_off = list(off.run(ckks, {
        f"in{i}": ct for i, ct in enumerate(p_cts + full_q)}).values())
    d_on, d_off = (kernel.decode([np.real(v) for v in ckks.decrypt_many(o)])
                   for o in (out_on, out_off))
    assert np.allclose(d_on, d_off, atol=1e-3)
    assert np.allclose(d_on, kernel.reference(points, query), atol=0.05)

    plan = kernel.scheduled(shape).report.level_plan
    assert plan is not None and plan.limb_drops > 0
    assert off.report.level_plan is None
    assert (sum(ct.size_bytes() for ct in out_on)
            < sum(ct.size_bytes() for ct in out_off))


# ------------------------------------------------ fleet: planner-on serving

def test_fleet_knn_resume_after_eviction_planner_on(ckks_params):
    """Planner-on distance kernels through the sharded fleet: a KNN
    session survives a key eviction plus a connection drop (RESUME), and
    the aggregated metrics carry the planner's limbs-live telemetry."""
    from repro.apps.knn import KnnOffloadService, RemoteKnn
    from repro.runtime import OffloadClient
    from repro.runtime.fleet import FleetServer

    rng = np.random.default_rng(5)
    points = rng.normal(size=(8, 4))
    labels = (np.arange(8) % 3).tolist()
    query = points[3] + 0.01
    expected = KnnOffloadService  # imported for install; label checked below

    async def main():
        fleet = FleetServer(ckks_params, 1, installers=(KNN_INSTALLER,),
                            keystore_limit=1, resume_grace_s=10.0)
        host, port = await fleet.start()
        evictor = None
        try:
            ctx = CkksContext(ckks_params, seed=23)
            client = await OffloadClient(
                ckks_params, host, port, request_timeout=30.0,
                backoff_s=0.01).connect()
            knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
            await knn.add_points(points, labels)
            first = await knn.classify(query)

            # A second session's key upload evicts ours from the LRU...
            evictor = await OffloadClient(
                ckks_params, host, port, request_timeout=30.0).connect()
            ctx2 = CkksContext(ckks_params, seed=24)
            await evictor.upload_keys(relin=ctx2.relin_keys())
            # ...and a dropped connection forces the next request through
            # a router RESUME.  The classify must still come back right.
            client._conn_error = ConnectionError("injected for test")
            second = await knn.classify(query)
            assert second.label == first.label
            assert client.stats.resumes == 1
            assert client.stats.key_reuploads >= 1

            snapshot = await fleet.refresh_metrics()
            assert snapshot["key_evictions"] >= 1
            assert snapshot["resumes_routed"] == 1
            assert snapshot["limbs_live"] > 0
            return first.label
        finally:
            with contextlib.suppress(Exception):
                await client.close()
            if evictor is not None:
                with contextlib.suppress(Exception):
                    await evictor.close()
            await fleet.stop()

    label = asyncio.run(main())
    assert label in set(labels)
