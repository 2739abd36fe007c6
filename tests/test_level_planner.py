"""Tests for the level-aware parameter planner (``repro.core.levelplan``).

Covers the planner's contract end to end: eager limb drops at
coefficient-form sites with bit-exact BFV (and tight-tolerance CKKS)
results, the options surface (disabled, drop caps, terminal-output
reserves), per-segment replanning across explicit ``recrypt_boundary``
nodes, the advisory-skip guard when runtime levels diverge from the plan,
telemetry flow into context counters / CostLedger / session metrics, the
planner-on pipelines (Eva programs, distance kernels), and a fleet round
trip (planner-on KNN through the router with resume-after-eviction).
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.core.ir import (
    ScheduledProgram,
    ScheduleReport,
    compile_ir,
    concat_programs,
    ensure_galois_keys,
    trace_program,
)
from repro.core.levelplan import LevelPlan, PlannerOptions, plan_levels
from repro.core.protocol import ClientAidedSession
from repro.hecore.params import SchemeType
from tests.test_ir import _random_bfv_program, _random_ckks_program

KNN_INSTALLER = "repro.apps.knn:KnnOffloadService.install"


def _raw(program, scheme):
    """Pass-free oracle: one primitive call per traced node, full chain."""
    return ScheduledProgram(program, scheme, ScheduleReport(), {}, set())


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
        return tr.rotate_and_sum(y, 4)

    return trace_program(params, body, ["x"])


# ------------------------------------------------------------ plan plumbing

def test_compile_without_params_has_no_plan(bfv_params):
    sched = compile_ir(_light_trace(bfv_params), SchemeType.BFV)
    assert sched.report.level_plan is None


def test_disabled_planner_is_a_noop(bfv_params):
    sched = compile_ir(_light_trace(bfv_params), SchemeType.BFV,
                       params=bfv_params,
                       level_planner=PlannerOptions(enabled=False))
    assert sched.report.level_plan is None
    assert not any(n.planned for n in sched.program.nodes)


def test_plan_levels_reports_row_savings(bfv_params):
    program = _light_trace(bfv_params)
    planned, plan = plan_levels(program, bfv_params)
    assert isinstance(plan, LevelPlan)
    assert plan.limb_drops > 0
    assert plan.limb_rows_after < plan.limb_rows_before
    assert "limb drop(s)" in plan.describe()
    assert plan.predicted_unsafe == 0
    # Planner-inserted switches carry the advisory markers the executor
    # keys its skip guard on: planned=True plus the expected live count.
    switches = [n for n in planned.nodes
                if n.kind == "mod_switch" and n.planned]
    assert switches and all(n.width > 0 for n in switches)


def test_max_drops_caps_the_frontier(bfv_params):
    program = _light_trace(bfv_params)
    _, plan = plan_levels(program, bfv_params)
    assert plan.limb_drops >= 1
    _, capped = plan_levels(program, bfv_params,
                            PlannerOptions(max_drops=1))
    assert capped.limb_drops == 1
    _, frozen = plan_levels(program, bfv_params,
                            PlannerOptions(max_drops=0))
    assert frozen.limb_drops == 0


def test_terminal_output_reserve_is_conservative(bfv_params):
    program = _light_trace(bfv_params)
    _, terminal = plan_levels(program, bfv_params,
                              PlannerOptions(terminal_outputs=True))
    _, reserved = plan_levels(program, bfv_params,
                              PlannerOptions(terminal_outputs=False))
    # A continuation reserve can only hold limbs back, never drop more.
    assert reserved.limb_drops <= terminal.limb_drops


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


def test_ckks_drop_is_value_exact(ckks, ckks_params):
    """A CKKS limb drop uses scale-preserving ``drop_modulus``: the
    decrypted values of a shallow program must match to well below the
    scheme's own encoding-noise floor (~1e-5 at these test parameters)."""
    def body(tr, x):
        return tr.add(tr.rotate(x, 2), x)

    program = trace_program(ckks_params, body, ["x"])
    sched = compile_ir(program, SchemeType.CKKS, params=ckks_params)
    raw = _raw(program, SchemeType.CKKS)
    keys = ensure_galois_keys(ckks, sched.rotation_steps())
    ct = ckks.encrypt(ckks.encode(np.linspace(-1, 1, 512)))
    got = sched.run(ckks, {"x": ct}, keys)["out0"]
    want = raw.run_reference(ckks, {"x": ct}, keys)["out0"]
    plan = sched.report.level_plan
    assert plan is not None and plan.limb_drops > 0
    assert len(got.level_base) < len(want.level_base)
    assert np.allclose(ckks.decrypt(got), ckks.decrypt(want), atol=1e-4)


# ------------------------------------------------- recrypt-boundary replans

@pytest.fixture(scope="module")
def wide_bfv():
    """A five-limb chain: wide enough that a recrypt segment's trimmed
    entry still clears the paramsearch feasibility floor (~70 bits at
    these parameters), so replans actually fire."""
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import small_test_parameters
    params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                   plain_bits=16,
                                   data_bits=(30, 30, 30, 30, 30))
    return BfvContext(params, seed=77)


def _recrypt_program(params, rng):
    first = _diag_matvec_trace(params, [rng.integers(0, 7, (8, 8))], dim=8)

    def tail(tr, x):
        return tr.add_plain(tr.rotate(x, 1),
                            tr.encode(np.ones(params.poly_degree)))

    second = trace_program(params, tail, ["out0"])
    return concat_programs(first, second, boundary="recrypt")


def test_recrypt_boundary_replans_segment(wide_bfv):
    params = wide_bfv.params
    rng = np.random.default_rng(31)
    program = _recrypt_program(params, rng)
    assert any(n.kind == "recrypt_boundary" for n in program.nodes)

    sched = compile_ir(program, SchemeType.BFV, params=params)
    plan = sched.report.level_plan
    assert plan is not None
    assert plan.replans >= 1
    assert plan.segments, "each boundary must record a SegmentPlan"
    seg = plan.segments[-1]
    assert seg.entry_limbs < seg.full_limbs
    assert seg.spend_bits > 0

    raw = _raw(program, SchemeType.BFV)
    keys = ensure_galois_keys(wide_bfv, sched.rotation_steps(),
                              raw.rotation_steps())
    vec = rng.integers(0, 7, 8)
    ct = wide_bfv.encrypt(np.tile(vec, params.poly_degree // 8))
    before = {k: wide_bfv.counts.get(k, 0)
              for k in ("level_replans", "recrypt")}
    got = sched.run(wide_bfv, {"x": ct}, keys)["out0"]
    assert wide_bfv.counts["level_replans"] - before["level_replans"] >= 1
    assert wide_bfv.counts["recrypt"] - before["recrypt"] >= 1
    want = raw.run_reference(wide_bfv, {"x": ct}, keys)["out0"]
    assert np.array_equal(np.asarray(wide_bfv.decrypt(got)),
                          np.asarray(wide_bfv.decrypt(want)))


def test_shallow_chain_keeps_segment_at_full_depth(bfv_params):
    """On the three-limb test chain the paramsearch floor forbids a
    trimmed entry — the planner must record the segment and leave it at
    the full chain rather than replan below feasibility."""
    rng = np.random.default_rng(31)
    _, plan = plan_levels(_recrypt_program(bfv_params, rng), bfv_params)
    assert plan.replans == 0
    assert plan.segments
    assert plan.segments[-1].entry_limbs == plan.segments[-1].full_limbs


def test_segment_replan_with_dse_records_operating_point(wide_bfv):
    params = wide_bfv.params
    rng = np.random.default_rng(32)
    program = _recrypt_program(params, rng)
    _, plan = plan_levels(program, params, PlannerOptions(use_dse=True))
    replanned = [s for s in plan.segments if s.entry_limbs < s.full_limbs]
    assert replanned
    assert all(s.operating_point for s in replanned)


# -------------------------------------------------- advisory-skip guard

def test_planned_drop_skips_on_level_divergence(bfv, bfv_params):
    """A planned program fed a ciphertext already below the planned level
    must skip its advisory drops (no underflow) and stay bit-exact."""
    program = _light_trace(bfv_params)
    sched = compile_ir(program, SchemeType.BFV, params=bfv_params)
    assert sched.report.level_plan.limb_drops > 0
    raw = _raw(program, SchemeType.BFV)
    keys = ensure_galois_keys(bfv, sched.rotation_steps(),
                              raw.rotation_steps())

    ct = bfv.encrypt(np.arange(512, dtype=np.int64) % 7)
    low = bfv.mod_switch_down(bfv.mod_switch_down(ct))   # 3 -> 1 limb
    before = bfv.counts.get("limb_drops", 0)
    got = sched.run(bfv, {"x": low}, keys)["out0"]
    assert bfv.counts.get("limb_drops", 0) == before, \
        "a diverged level must skip the planned drop, not count it"
    want = raw.run_reference(bfv, {"x": low}, keys)["out0"]
    assert np.array_equal(np.asarray(bfv.decrypt(got)),
                          np.asarray(bfv.decrypt(want)))
    assert len(got.level_base) == 1


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
    m.level_replans = 2
    snapshot = metrics.snapshot()
    assert snapshot["limb_drops"] == session.ledger.limb_drops
    assert snapshot["limbs_live"] == session.ledger.limbs_live
    assert snapshot["level_replans"] == 2
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
    off = compile_ir(kernel.program(shape), SchemeType.CKKS)
    out_off = list(off.run(ckks, {
        f"in{i}": ct for i, ct in enumerate(p_cts + q_cts)}).values())
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
    from repro.hecore.ckks import CkksContext
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
