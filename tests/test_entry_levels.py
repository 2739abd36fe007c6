"""Entry levels: the client encrypts each query at the level the schedule
first reads it.

A compiled schedule records every node's planned live-limb count and, per
input, its entry level (:meth:`repro.core.ir.ScheduledProgram.entry_limbs`):
the limbs left after the planned drops taken on it before anything else
reads it.  ``pack_query`` / ``pack_queries`` encode on that prefix of the
chain, and every ``encrypt*`` entry point encrypts over the plaintext's own
chain.  Pinned here: the entry-chain ciphertext is the full-chain one with
its trailing rows cut, byte for byte; served results do not move by a bit
whichever chain a query arrives on, inline or pooled; a full-chain upload
is still served (and counted in ``entry_drops``); a below-entry upload gets
one ERROR frame from either executor; and the one-pass sinking pass emits
exactly what the rewrite-and-rescan fixpoint emitted.
"""

import asyncio
import contextlib
import itertools
import types

import numpy as np
import pytest

from repro.apps.knn import KnnOffloadService
from repro.core import ir
from repro.core.distance import (
    KERNEL_VARIANTS,
    DistanceProblem,
    MultiQueryDimensionMajor,
)
from repro.core.ir import IrNode, ScheduleError, _program_digest, compile_ir
from repro.core.linalg import BsgsMatVec, Conv2dSpec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import PARAMETER_SET_B
from repro.hecore.polyring import RnsPoly
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase
from repro.hecore.serialize import serialize_ciphertext
from repro.runtime import OffloadClient, OffloadError, OffloadServer
from repro.runtime.evalpool import EvalPool
from repro.runtime.framing import ErrorCode
from repro.runtime.transport import SimulatedLink
from tests.test_level_corpus import CORPUS, corpus_programs

KNN_POOLED = "repro.apps.knn:KnnOffloadService.install_pooled"


@pytest.fixture(scope="module")
def ckks(ckks_params):
    """This module's own context: the keys and ciphertexts drawn here
    leave the session-wide context's streams where other modules find
    them."""
    return CkksContext(ckks_params, seed=3344)


def _kernel(ctx, variant, problem=DistanceProblem(n_points=8, dims=4)):
    if variant == "multi-query":
        return MultiQueryDimensionMajor(ctx, problem, max_queries=2)
    return KERNEL_VARIANTS[variant](ctx, problem)


def _query(kernel, rng):
    """(entry-chain plaintexts, the same slot vectors) for one query."""
    if isinstance(kernel, MultiQueryDimensionMajor):
        queries = rng.uniform(-1, 1, (2, kernel.problem.dims))
        return kernel.pack_queries(queries), kernel.queries_slots(queries)
    query = rng.uniform(-1, 1, kernel.problem.dims)
    return kernel.pack_query(query), kernel.query_slots(query)


def _rows(ct):
    return [c.data for c in ct.components]


# ------------------------------------------------------ the entry contract

@pytest.mark.parametrize("variant", [*KERNEL_VARIANTS, "multi-query"])
def test_pack_query_encodes_on_each_inputs_entry_chain(ckks, variant):
    kernel = _kernel(ckks, variant)
    plaintexts, slots = _query(kernel, np.random.default_rng(3))
    entry = kernel.scheduled(kernel.input_shape).entry_limbs()
    points = kernel.input_shape[0]
    chain = ckks.params.data_base.moduli
    full = ckks.encoder.encode_many(slots)
    assert len(plaintexts) == len(slots) == kernel.input_shape[1]
    for i, (pt, whole) in enumerate(zip(plaintexts, full)):
        limbs = entry[f"in{points + i}"]
        assert pt.poly.base.moduli == chain[:limbs]
        assert np.array_equal(pt.poly.data, whole.poly.data[:limbs])
        assert pt.scale == whole.scale


def test_entry_levels_of_the_e2e_packings():
    """The served KNN set (64 points x 16 dims, three 30-bit limbs): the
    plan drops one limb on arrival of every query of the rotation-light
    packings; the collapsed query enters on the full chain.  Layout alone
    (a context with nothing but ``params``) is enough to read them."""
    knn_params = CORPUS["knn/collapsed"][1]
    want = {"point-major": 2, "dimension-major": 2, "stacked-point": 2,
            "stacked-dimension": 2, "collapsed": 3}
    for name, cls in KERNEL_VARIANTS.items():
        kernel = cls(types.SimpleNamespace(params=knn_params),
                     DistanceProblem(n_points=64, dims=16))
        sched = compile_ir(kernel.program(kernel.input_shape),
                           knn_params.scheme, params=knn_params)
        points, queries = kernel.input_shape
        entry = sched.entry_limbs()
        assert {entry[f"in{points + i}"] for i in range(queries)} == {
            want[name]}, name
        # A stored point keeps the full chain: the plan drops it itself.
        assert all(len(sched.entry_chains[f"in{i}"]) == 3 - entry[f"in{i}"]
                   for i in range(points))


@pytest.mark.parametrize("variant", [*KERNEL_VARIANTS, "multi-query"])
@pytest.mark.parametrize("method", ["encrypt", "encrypt_many",
                                    "encrypt_symmetric",
                                    "encrypt_symmetric_many"])
def test_entry_chain_ciphertext_is_the_full_one_truncated(ckks, variant,
                                                         method):
    """Same draws, shorter chain: every row the entry-chain ciphertext has
    equals the full-chain ciphertext's, and so do its scale and seed."""
    kernel = _kernel(ckks, variant)
    plaintexts, slots = _query(kernel, np.random.default_rng(7))
    full_pts = ckks.encoder.encode_many(slots)
    encrypt = getattr(ckks, method)
    if method.endswith("_many"):
        got = encrypt(plaintexts, rng=BlakePrng(b"entry"))
        whole = encrypt(full_pts, rng=BlakePrng(b"entry"))
    elif method == "encrypt":
        got = [encrypt(pt, rng=BlakePrng(i)) for i, pt in enumerate(plaintexts)]
        whole = [encrypt(pt, rng=BlakePrng(i)) for i, pt in enumerate(full_pts)]
    else:
        got = [encrypt(pt, seed=bytes([i]) * 32, rng=BlakePrng(i))
               for i, pt in enumerate(plaintexts)]
        whole = [encrypt(pt, seed=bytes([i]) * 32, rng=BlakePrng(i))
                 for i, pt in enumerate(full_pts)]
    for ct, full_ct, pt in zip(got, whole, plaintexts):
        assert ct.level_base == pt.poly.base
        cut = full_ct
        while len(cut.level_base) > len(ct.level_base):
            cut = ckks.drop_modulus(cut)
        cut.seed = full_ct.seed
        assert serialize_ciphertext(ct) == serialize_ciphertext(cut)


def test_a_batch_over_two_chains_is_refused(ckks):
    """A batch encrypts over one chain: its first plaintext's."""
    short = RnsBase.of(ckks.params.data_base.moduli[:2])
    mixed = [ckks.encode(np.ones(4)), ckks.encode(np.ones(4), base=short)]
    for method in ("encrypt_many", "encrypt_symmetric_many"):
        with pytest.raises(ValueError, match="one chain"):
            getattr(ckks, method)(mixed)


def test_a_plaintext_off_the_chain_is_refused(ckks):
    other = RnsBase.of(ckks.params.data_base.moduli[1:])
    pt = ckks.encode(np.ones(4), base=other)
    for method in ("encrypt", "encrypt_symmetric"):
        with pytest.raises(ValueError, match="prefix of the data chain"):
            getattr(ckks, method)(pt)


# ------------------------------------------------------------ the runner

def test_planned_drops_go_down_to_their_level(ckks):
    """Entry-chain and full-chain queries run to the same output bits; the
    full-chain one takes the drops the other skipped, counted once each in
    ``limb_drops`` and ``entry_drops``.  Below the entry level, or off the
    chain's prefix, an input is refused before anything runs."""
    rng = np.random.default_rng(11)
    kernel = _kernel(ckks, "dimension-major")
    points = rng.uniform(-1, 1, (8, 4))
    query = rng.uniform(-1, 1, 4)
    p_cts = kernel.encrypt_points(points)
    entry_q = ckks.encrypt_many(kernel.pack_query(query), rng=BlakePrng(1))
    full_q = ckks.encrypt_many(kernel.query_slots(query), rng=BlakePrng(1))
    sched = kernel.scheduled(kernel.input_shape)
    outs, deltas = [], []
    for q_cts in (entry_q, full_q):
        before = dict(ckks.counts)
        outs.append(sched.run(ckks, {f"in{i}": ct
                                     for i, ct in enumerate(p_cts + q_cts)}))
        deltas.append({k: ckks.counts[k] - before.get(k, 0)
                       for k in ("limb_drops", "entry_drops")})
    assert all(np.array_equal(a, b) for a, b in zip(_rows(outs[0]["out0"]),
                                                    _rows(outs[1]["out0"])))
    n = len(p_cts)
    assert deltas == [{"limb_drops": n, "entry_drops": n},
                      {"limb_drops": 2 * n, "entry_drops": 2 * n}]

    low = [ckks.mod_switch_down(ct) for ct in entry_q]
    inputs = {f"in{i}": ct for i, ct in enumerate(p_cts + low)}
    with pytest.raises(ScheduleError, match=r"arrives on 1 limb\(s\), below "
                                            r"its entry level: the level plan "
                                            r"enters it on 2 of all 3"):
        sched.run(ckks, inputs)
    q0, _, q2 = ckks.params.data_base.moduli
    skipped = RnsBase.of((q0, q2))
    stray = Ciphertext(ckks.params, [RnsPoly(skipped, c.degree, c.data,
                                             is_ntt=c.is_ntt)
                                     for c in entry_q[0].components],
                       scale=entry_q[0].scale)
    inputs = {f"in{i}": ct for i, ct in enumerate(p_cts + entry_q)}
    inputs[f"in{n}"] = stray
    with pytest.raises(ScheduleError, match="not on a prefix"):
        sched.run(ckks, inputs)


# ------------------------------------------------------------ served path

def _serve(params, use_pool, queries, points):
    """Store *points* (dimension-major), then send each of *queries*
    (``make(ctx, kernel) -> cts``); returns per query the RESULT blobs or
    the error's (code, text), with the session's ``entry_drops`` after it."""
    ir.clear_program_cache()

    async def main():
        server = OffloadServer(params, concurrency=1)
        pool = None
        if use_pool:
            pool = server.eval_pool = EvalPool(params, 1, (KNN_POOLED,))
        else:
            KnnOffloadService.install(server)
        client_end, server_end = SimulatedLink.pair()
        task = asyncio.ensure_future(server.serve_transport(server_end))
        ctx = CkksContext(params, seed=44)
        kernel = _kernel(ctx, "dimension-major")
        try:
            client = await OffloadClient(params,
                                         transport=client_end).connect()
            await client.upload_keys(relin=ctx.relin_keys())
            await client.request(
                KnnOffloadService.OP_STORE,
                ctx.encrypt_symmetric_many(kernel.pack_points(points),
                                           rng=BlakePrng(b"points")),
                {"n_points": 8, "dims": 4, "variant": kernel.name},
                account=False)
            metrics = server.metrics.get(client.session_id)
            replies = []
            for make in queries:
                try:
                    out, _ = await client.request(
                        KnnOffloadService.OP_QUERY, make(ctx, kernel),
                        {"batch": 0})
                    reply = [serialize_ciphertext(ct) for ct in out]
                except OffloadError as exc:
                    reply = (exc.code, str(exc))
                replies.append((reply, metrics.entry_drops))
            await client.close()
            return replies
        finally:
            await server.stop()
            task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    return asyncio.run(main())


def _entry_query(query):
    return lambda ctx, kernel: ctx.encrypt_symmetric_many(
        kernel.pack_query(query), rng=BlakePrng(b"query"))


def _full_query(query):
    return lambda ctx, kernel: ctx.encrypt_symmetric_many(
        kernel.query_slots(query), rng=BlakePrng(b"query"))


def _below_entry(query):
    return lambda ctx, kernel: [
        ctx.mod_switch_down(ct) for ct in _entry_query(query)(ctx, kernel)]


def test_served_results_do_not_depend_on_the_upload_chain(ckks_params):
    """RESULT ciphertexts are byte-identical for an entry-chain and a
    full-chain (old-client) upload, inline and pooled; only the full-chain
    query moves ``entry_drops`` past the stored points' own."""
    rng = np.random.default_rng(23)
    points, query = rng.uniform(-1, 1, (8, 4)), rng.uniform(-1, 1, 4)
    queries = [_entry_query(query), _full_query(query)]
    inline = _serve(ckks_params, False, queries, points)
    pooled = _serve(ckks_params, True, queries, points)
    assert inline == pooled
    (entry_result, after_entry), (full_result, after_full) = inline
    assert entry_result == full_result
    dims = 4
    assert (after_entry, after_full) == (dims, 3 * dims)


def test_below_entry_upload_gets_one_error_frame_from_either_executor(
        ckks_params):
    """The pooled refusal used to reach the client as ``RuntimeError:
    ScheduleError: ...``: a subprocess exception now re-raises as its
    nearest typed ancestor under its own name, so both executors send the
    same ERROR frame, and the session serves the next query."""
    rng = np.random.default_rng(29)
    points, query = rng.uniform(-1, 1, (8, 4)), rng.uniform(-1, 1, 4)
    queries = [_below_entry(query), _entry_query(query)]
    inline = _serve(ckks_params, False, queries, points)
    pooled = _serve(ckks_params, True, queries, points)
    assert inline == pooled
    (code, text), _ = inline[0]
    assert code is ErrorCode.HANDLER_FAILED
    assert text.endswith("[HANDLER_FAILED]: ScheduleError: input 'in4' "
                         "arrives on 1 limb(s), below its entry level: the "
                         "level plan enters it on 2 of all 3")
    assert isinstance(inline[1][0], list)


# ------------------------------------------------------ the sinking pass

def _fixpoint_sink(program, scheme, report):
    """The sinking pass as a rewrite-and-rescan fixpoint: re-analyse the
    whole program after every rewrite and take the lowest qualifying root."""
    nodes = program.nodes
    changed = True
    while changed:
        changed = False
        level = program.levels(scheme)
        live = program.live_set()
        consumers = program.consumers(live)
        out_ids = set(program.outputs.values())
        for root, node in enumerate(nodes):
            if root not in live or node.kind not in ("add", "sub"):
                continue
            a, b = node.args
            da, db = nodes[a], nodes[b]
            if da.kind != db.kind or da.kind not in ir._SINKABLE:
                continue
            if da.normalize != db.normalize:
                continue
            if any(len(consumers.get(d, ())) != 1 or d in out_ids
                   for d in (a, b)):
                continue
            if level[da.args[0]] != level[db.args[0]]:
                continue
            inner = len(nodes)
            nodes.append(IrNode(node.kind, (da.args[0], db.args[0])))
            nodes[root] = IrNode(da.kind, (inner,), normalize=da.normalize)
            field_name = ir._SINKABLE[da.kind]
            setattr(report, field_name, getattr(report, field_name) + 1)
            changed = True
            break


def _sink_programs():
    """name -> (traced programs, params): the level corpus plus the served
    DNN kernels at set B."""
    programs = {name: corpus_programs(name) for name in CORPUS}
    ctx = types.SimpleNamespace(params=PARAMETER_SET_B)
    rng = np.random.default_rng(3)
    spec = Conv2dSpec(in_channels=1, out_channels=4, height=12, width=12,
                      kernel_size=3)
    conv = TiledEncryptedConv2d(ctx, spec, rng.integers(1, 4, (4, 1, 3, 3)))
    fc = BsgsMatVec(ctx, rng.integers(1, 4, (10, 64)))
    for name, kernel in (("dnn/conv", conv), ("dnn/fc", fc)):
        programs[name] = (kernel.program(kernel.input_shape),), PARAMETER_SET_B
    return programs


SINK_PROGRAMS = _sink_programs()


@pytest.mark.parametrize("name", sorted(SINK_PROGRAMS))
def test_one_pass_sinking_emits_what_the_fixpoint_emitted(name, monkeypatch):
    programs, params = SINK_PROGRAMS[name]
    for program, planned in itertools.product(programs, (params, None)):
        one_pass = compile_ir(program, params.scheme, params=planned)
        with monkeypatch.context() as patch:
            patch.setattr(ir, "_sink_level_drops", _fixpoint_sink)
            fixpoint = compile_ir(program, params.scheme, params=planned)
        assert (_program_digest(one_pass.program, params, planned is not None)
                == _program_digest(fixpoint.program, params,
                                   planned is not None))
        assert one_pass.report == fixpoint.report
        assert one_pass.limbs == fixpoint.limbs
