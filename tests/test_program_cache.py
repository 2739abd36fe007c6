"""The process-wide, content-addressed schedule cache (``core.ir``).

One compiled :class:`ScheduledProgram` — node list and lazily filled
plaintext / NTT / weighted-sum-span tables — serves every session of the
process that traces the same computation over the same constants for the
same parameter set.  Each test below is one property that sharing must
keep.  ``conftest.py`` clears the cache before every test.
"""

import asyncio
import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.apps.knn import KnnOffloadService
from repro.core import ir
from repro.core.distance import (
    CollapsedPointMajorKernel,
    DimensionMajorKernel,
    DistanceProblem,
)
from repro.core.ir import TracedKernel, ensure_galois_keys
from repro.core.linalg import BsgsMatVec, Conv2dSpec, EncryptedMatVec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore import rlwe
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.runtime import KeyKind, OffloadClient, OffloadServer, SimulatedLink
from repro.runtime.server import SessionEvaluator, build_restricted_context

# The e2e benchmark's cold DNN session: conv(1 -> 4, 12x12, 3x3) then
# fc(64 -> 10) at Table-3 set B.
CONV_SPEC = Conv2dSpec(in_channels=1, out_channels=4, height=12, width=12,
                       kernel_size=3)
FC_SHAPE = (10, 64)


def _dnn_weights():
    rng = np.random.default_rng(20)
    conv = rng.integers(1, 4, size=(4, 1, 3, 3)) * rng.choice((-1, 1),
                                                              size=(4, 1, 3, 3))
    return conv, rng.integers(1, 4, size=FC_SHAPE)


def _dnn_kernels(ctx):
    conv_w, fc_w = _dnn_weights()
    return TiledEncryptedConv2d(ctx, CONV_SPEC, conv_w), BsgsMatVec(ctx, fc_w)


@pytest.fixture(scope="module")
def dnn_clients():
    """Two clients with unrelated keys for the same model."""
    clients = []
    for seed in (b"cache-a", b"cache-b"):
        ctx = BfvContext(PARAMETER_SET_B, seed=seed)
        conv, fc = _dnn_kernels(ctx)
        galois = ensure_galois_keys(ctx, conv.required_rotation_steps(),
                                    fc.required_rotation_steps())
        clients.append((ctx, {KeyKind.RELIN: ctx.relin_keys(),
                              KeyKind.GALOIS: galois}))
    return clients


def _signed(values, t):
    values = np.asarray(values, dtype=np.int64)
    return np.where(values > t // 2, values - t, values)


def _serve_dnn(client, keystore):
    """One cold server session of the DNN slice on a restricted context:
    decrypted conv and fc results, the oracle's, and what each first call
    was charged."""
    t = PARAMETER_SET_B.plain_modulus
    ev = build_restricted_context(PARAMETER_SET_B, keystore, b"cache-test")
    conv, fc = _dnn_kernels(ev)
    image = np.random.default_rng(3).integers(0, 16, size=(1, 12, 12))
    vec = np.random.default_rng(4).integers(0, 8, size=FC_SHAPE[1])
    conv_cts = client.encrypt_symmetric_many(
        [v.astype(np.int64) for v in conv.pack_input(image)])
    (fc_ct,) = client.encrypt_symmetric_many(
        [fc.pack_input(vec).astype(np.int64)])

    before = Counter(ev.counts)
    conv_out, fc_out = conv(conv_cts), fc(fc_ct)
    cold = ev.counts - before

    oracle_conv = conv.scheduled((1,)).run_reference(ev, {"in0": conv_cts[0]})
    oracle_fc = fc.scheduled((1,)).run_reference(ev, {"in0": fc_ct})
    slots = client.decrypt_many(conv_out + [fc_out, oracle_conv["out0"],
                                            oracle_fc["out0"]])
    got = (_signed(conv.unpack_outputs(slots[:1]), t),
           _signed(fc.unpack_output(slots[1]), t))
    oracle = (_signed(conv.unpack_outputs(slots[2:3]), t),
              _signed(fc.unpack_output(slots[3]), t))
    want = (conv.reference(image), fc.reference(vec))

    before = Counter(ev.counts)
    conv(conv_cts)
    fc(fc_ct)
    warm = ev.counts - before
    return dict(got=got, oracle=oracle, want=want, cold=cold, warm=warm,
                scheds=(conv.scheduled((1,)), fc.scheduled((1,))))


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


# ------------------------------------------------- (i) a second session hits

def test_second_bfv_session_reuses_the_first_ones_program(dnn_clients):
    """Re-recorded with the shift x tap conv and the hybrid-diagonal fc: the
    fill a reuse saves is 36 + 16 weight plaintexts (was 36 + 64, which the
    old ``> 10x`` forward-NTT ratio assumed).  Since every giant step of
    both is a double-hoisted weighted-sum span, those plaintexts are
    transformed over the extended base (the data limbs plus the special
    prime) and no ciphertext row is transformed forward at all."""
    first = _serve_dnn(*dnn_clients[0])
    second = _serve_dnn(*dnn_clients[1])
    for run in (first, second):
        assert _same(run["got"], run["want"])
        assert _same(run["oracle"], run["want"])
    assert _same(first["got"], second["got"])
    assert all(a is b for a, b in zip(first["scheds"], second["scheds"]))

    assert (first["cold"]["program_cache_misses"],
            first["cold"]["program_cache_hits"]) == (2, 0)
    assert (second["cold"]["program_cache_misses"],
            second["cold"]["program_cache_hits"]) == (0, 2)
    # The second session's first call transforms ciphertext rows only —
    # what any warm call pays — and is charged the reuse, not the fill.
    assert second["cold"]["ntt_forward"] == first["warm"]["ntt_forward"]
    assert (first["cold"]["ntt_forward"] - second["cold"]["ntt_forward"]
            == (36 + 16) * (len(PARAMETER_SET_B.data_base) + 1))
    assert first["cold"]["ntt_forward"] > 3 * second["cold"]["ntt_forward"]
    assert second["cold"]["ntt_elided"] == first["warm"]["ntt_elided"]
    assert second["warm"] == first["warm"]


def test_second_ckks_session_reuses_the_first_ones_program(ckks_params):
    rng = np.random.default_rng(8)
    points = rng.uniform(-0.5, 0.5, size=(8, 4))
    query = rng.uniform(-0.5, 0.5, size=4)
    runs = []
    for seed in (41, 42):
        ctx = CkksContext(ckks_params, seed=seed)
        kernel = CollapsedPointMajorKernel(ctx, DistanceProblem(8, 4))
        ctx.relin_keys()
        # Key provisioning looks the schedule up (its rotation levels), and
        # so does packing the query (its entry levels).
        before = Counter(ctx.counts)
        ctx.make_galois_keys(kernel.required_rotation_steps())
        p_cts, q_cts = kernel.encrypt_points(points), kernel.encrypt_query(query)
        got = kernel.distances(p_cts, q_cts)
        cold = ctx.counts - before
        sched = kernel.scheduled((len(p_cts), len(q_cts)))
        inputs = {f"in{i}": ct for i, ct in enumerate(p_cts + q_cts)}
        oracle = kernel.decode([np.real(v) for v in ctx.decrypt_many(
            [sched.run_reference(ctx, inputs)["out0"]])])
        want = kernel.reference(points, query)
        assert np.max(np.abs(got - want)) < 1e-2
        assert np.max(np.abs(oracle - want)) < 1e-2
        runs.append((sched, cold))
    (sched_a, cold_a), (sched_b, cold_b) = runs
    assert sched_a is sched_b
    assert (cold_a["program_cache_misses"], cold_a["program_cache_hits"],
            cold_b["program_cache_misses"], cold_b["program_cache_hits"]
            ) == (1, 0, 0, 1)
    assert cold_b["ntt_forward"] < cold_a["ntt_forward"]


# --------------------------------------------------- (ii) no false sharing

class _WeightedSum(TracedKernel):
    """``sum_i cts[i] * weights`` — traces ``weights`` itself, uncopied."""

    def __init__(self, ctx, weights):
        super().__init__(ctx)
        self.weights = weights

    def _body(self, ev, cts):
        acc = None
        for ct in cts:
            term = ev.multiply_plain(ct, ev.encode(self.weights))
            acc = term if acc is None else ev.add(acc, term)
        return acc

    def reference(self, vectors):
        return sum(np.asarray(v) * self.weights[: len(v)] for v in vectors)


class _TerminalWeightedSum(_WeightedSum):
    terminal_outputs = True


def _weights(n=8):
    return np.arange(1, n + 1, dtype=np.int64)


def test_different_programs_never_share_an_entry(bfv_params):
    other_params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                         plain_bits=16, data_bits=(30, 30))
    changed = _weights()
    changed[3] += 1
    cases = [
        (_WeightedSum, bfv_params, _weights(), (2,)),
        (_WeightedSum, bfv_params, changed, (2,)),             # one weight
        (_WeightedSum, bfv_params, _weights(), (3,)),          # input shape
        (_WeightedSum, other_params, _weights(), (2,)),        # parameters
        (_TerminalWeightedSum, bfv_params, _weights(), (2,)),  # level planner
        (_WeightedSum, bfv_params, _weights().astype(float), (2,)),  # dtype
    ]
    scheds = []
    for cls, params, weights, shape in cases:
        ctx = BfvContext(params, seed=1)
        scheds.append(cls(ctx, weights).scheduled(shape))
        assert ctx.counts["program_cache_misses"] == 1
        assert ctx.counts["program_cache_hits"] == 0
    assert len({id(s) for s in scheds}) == len(cases)

    # ... and the same content from an unrelated kernel instance does.
    ctx = BfvContext(bfv_params, seed=2)
    assert _WeightedSum(ctx, _weights()).scheduled((2,)) is scheds[0]
    assert ctx.counts["program_cache_hits"] == 1
    assert ctx.counts["program_cache_misses"] == 0


def test_equal_fingerprints_share_and_the_handshake_uses_the_same_one():
    from repro.runtime.framing import Hello

    a = small_test_parameters(SchemeType.BFV, poly_degree=1024)
    b = small_test_parameters(SchemeType.BFV, poly_degree=1024)
    c = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                              plain_bits=17)
    assert a is not b and a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert Hello.from_params(a).mismatch(b) is None
    assert Hello.from_params(a).mismatch(c).startswith("plain_modulus: ")
    hello = Hello.from_params(a)
    assert (hello.scheme, hello.poly_degree, hello.plain_modulus,
            hello.scale_bits, hello.data_moduli, hello.special_moduli
            ) == a.fingerprint()
    first = _WeightedSum(BfvContext(a, seed=1), _weights()).scheduled((1,))
    assert _WeightedSum(BfvContext(b, seed=2),
                        _weights()).scheduled((1,)) is first


# ------------------------------------- (iii) consts are private and frozen

def test_mutating_a_traced_weight_array_changes_nobody_elses_answer(
        bfv_params):
    t = bfv_params.plain_modulus
    vec = np.arange(8) + 2
    original = _weights()

    mine = original.copy()
    ctx1 = BfvContext(bfv_params, seed=11)
    kernel1 = _WeightedSum(ctx1, mine)
    sched = kernel1.scheduled((1,))
    mine[:] = 99            # after the build, before any plaintext is encoded

    consts = [n.values for n in sched.source.nodes if n.kind == "const"]
    assert consts and all(not c.flags.writeable for c in consts)
    assert all(not np.shares_memory(c, mine) for c in consts)
    with pytest.raises(ValueError):
        consts[0][0] = 5

    want = _WeightedSum(None, original).reference([vec]) % t
    for seed in (12, 13):
        ctx = BfvContext(bfv_params, seed=seed)
        kernel = _WeightedSum(ctx, original.copy())
        assert kernel.scheduled((1,)) is sched
        ct = ctx.encrypt(vec)
        (out,) = kernel.run(([ct],))
        oracle = sched.run_reference(ctx, {"in0": ct})["out0"]
        for result in (out, oracle):
            assert np.array_equal(np.asarray(ctx.decrypt(result))[:8], want)


# --------------------------- (iv) the cache keeps programs, never sessions

def test_dropped_session_state_dies_while_the_shared_program_lives(
        bfv_params):
    from repro.hecore.serialize import (
        deserialize_galois_keys,
        deserialize_relin_key,
        serialize_galois_keys,
        serialize_relin_key,
    )

    rng = np.random.default_rng(6)
    matrix = rng.integers(1, 5, size=(8, 8))
    vec = rng.integers(0, 8, size=8)
    t = bfv_params.plain_modulus
    client = BfvContext(bfv_params, seed=21)
    probe = EncryptedMatVec(client, matrix)
    galois = client.make_galois_keys(probe.required_rotation_steps())
    # Provisioning compiled the program on the client: the worker's first
    # session starts cold.
    ir.clear_program_cache()

    def session():
        """What a worker holds for one session, all of it session-owned."""
        keystore = {
            KeyKind.RELIN: deserialize_relin_key(
                serialize_relin_key(client.relin_keys()), bfv_params),
            KeyKind.GALOIS: deserialize_galois_keys(
                serialize_galois_keys(galois), bfv_params),
        }
        ev = build_restricted_context(bfv_params, keystore, b"s")
        kernel = EncryptedMatVec(ev, matrix.copy())
        ct = client.encrypt_symmetric(probe.pack_input(vec).astype(np.int64))
        out = kernel(ct)
        got = probe.unpack_output(np.asarray(client.decrypt(out)))
        assert np.array_equal(got % t, probe.reference(vec) % t)
        # (A Ciphertext has __slots__: its residue arrays stand in for it.)
        held = [ev, ev.counts, kernel, keystore[KeyKind.GALOIS],
                keystore[KeyKind.RELIN], ct.components[0].data,
                out.components[0].data]
        return (kernel.scheduled((1,)), [weakref.ref(o) for o in held],
                ev.counts["program_cache_hits"])

    sched, refs, hits = session()
    assert hits == 0
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    sched_again, _refs, hits = session()
    assert sched_again is sched and hits == 1


# ---------------------------------------- (v) concurrent cold start, once

def test_threads_cold_starting_one_program_compile_it_once(bfv_params,
                                                           monkeypatch):
    n_threads = 6                       # more than this host has cores
    rng = np.random.default_rng(9)
    matrix = rng.integers(1, 5, size=(8, 8))
    vec = rng.integers(0, 8, size=8)
    t = bfv_params.plain_modulus

    compiles = []
    real_compile = ir.compile_ir

    def counting_compile(*args, **kwargs):
        compiles.append(threading.get_ident())
        return real_compile(*args, **kwargs)

    contexts = [BfvContext(bfv_params, seed=50 + i) for i in range(n_threads)]
    # Provisioning compiles the program on a context of its own; the
    # threads then start cold.
    probe = EncryptedMatVec(BfvContext(bfv_params, seed=49), matrix)
    steps = probe.required_rotation_steps()
    for ctx in contexts:
        ctx.make_galois_keys(steps)
    ir.clear_program_cache()
    monkeypatch.setattr(ir, "compile_ir", counting_compile)
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def cold_start(i):
        ctx = contexts[i]
        kernel = EncryptedMatVec(ctx, matrix.copy())
        ct = ctx.encrypt(kernel.pack_input(vec).astype(np.int64))
        barrier.wait(timeout=30)
        out = kernel(ct)                # trace, look up / compile, fill, run
        oracle = kernel.scheduled((1,)).run_reference(ctx, {"in0": ct})
        results[i] = (
            kernel.scheduled((1,)),
            kernel.unpack_output(np.asarray(ctx.decrypt(out))),
            kernel.unpack_output(np.asarray(ctx.decrypt(oracle["out0"]))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=cold_start, args=(i,))
                   for i in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(r is not None for r in results)

    assert len(compiles) == 1
    assert len({id(sched) for sched, _, _ in results}) == 1
    want = probe.reference(vec) % t
    for _sched, got, oracle in results:
        assert np.array_equal(got % t, want)
        assert np.array_equal(oracle % t, want)
    misses = sum(c.counts["program_cache_misses"] for c in contexts)
    hits = sum(c.counts["program_cache_hits"] for c in contexts)
    assert (misses, hits) == (1, n_threads - 1)


# ------------------------------------------------------- (vi) the LRU bound

def test_lru_bound_evicts_the_oldest_and_a_remiss_recompiles(bfv_params,
                                                              monkeypatch):
    monkeypatch.setattr(ir, "PROGRAM_CACHE_SIZE", 2)
    vec = np.arange(8) + 1
    t = bfv_params.plain_modulus

    def run(scale):
        ctx = BfvContext(bfv_params, seed=60)
        kernel = _WeightedSum(ctx, scale * _weights())
        (out,) = kernel.run(([ctx.encrypt(vec)],))
        return (kernel.scheduled((1,)), np.asarray(ctx.decrypt(out))[:8],
                ctx.counts["program_cache_hits"])

    a, a_out, _ = run(1)
    b, _, _ = run(2)
    assert run(1)[0] is a               # touched: b is now the oldest
    c, _, _ = run(3)                    # evicts b
    assert run(1)[0] is a and run(3)[0] is c
    b_again, b_out, hits = run(2)       # a re-miss, recompiled
    assert b_again is not b and hits == 0
    assert np.array_equal(b_out, (2 * _weights() * vec) % t)
    assert np.array_equal(a_out, (_weights() * vec) % t)
    a_again, a_out_again, hits = run(1)  # b's return evicted a in turn
    assert a_again is not a and hits == 0
    assert np.array_equal(a_out_again, a_out)


# -------------------------------------------------- (vii) the admission cap

def _victim_program(ckks_params):
    """A session's served KNN query program (compiled or fetched)."""
    ctx = CkksContext(ckks_params, seed=70)
    state = {}
    KnnOffloadService.store_op(ctx, state, {
        "n_points": 8, "dims": 2, "variant": "dimension-major"}, [])
    kernel, _cts = state["knn_batches"][0]
    return kernel.scheduled((2, 2)), ctx.counts


def _flood(ckks_params, n_programs):
    """One session storing *n_programs* distinct shapes named in its own
    request metadata, then compiling each one's query program."""
    session = SessionEvaluator(ckks_params, b"hostile")
    ctx = session.context()
    for dims in range(3, 3 + n_programs):
        KnnOffloadService.store_op(ctx, session.state, {
            "n_points": 4, "dims": dims, "variant": "dimension-major"}, [])
    for kernel, _cts in session.state["knn_batches"]:
        assert isinstance(kernel, DimensionMajorKernel)
        dims = kernel.problem.dims
        kernel.scheduled((dims, dims))
    return ctx.counts


def test_one_session_cannot_flush_another_sessions_program(ckks_params,
                                                           monkeypatch):
    assert ir.SESSION_PROGRAM_CAP < ir.PROGRAM_CACHE_SIZE < 40
    victim, _counts = _victim_program(ckks_params)
    hostile = _flood(ckks_params, 40)
    # The hostile session compiled all forty (it is served, slowly) ...
    assert hostile["program_cache_misses"] == 40
    # ... but inserted only its allowance: the victim's program survives.
    again, counts = _victim_program(ckks_params)
    assert again is victim and counts["program_cache_hits"] == 1

    # Without the cap the same flood does flush it.
    monkeypatch.setattr(ir, "SESSION_PROGRAM_CAP", 1000)
    ir.clear_program_cache()
    victim, _counts = _victim_program(ckks_params)
    _flood(ckks_params, 40)
    again, counts = _victim_program(ckks_params)
    assert again is not victim and counts["program_cache_misses"] == 1


# --------------------------------------- (viii) through a real OffloadServer

def test_second_served_session_hits_the_cache(ckks_params):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(8, 4))

    # Both clients pack and encrypt before anything is served (packing a
    # query reads its entry levels off the compiled program); the cache is
    # cleared after that, so the first served session starts cold.
    uploads = []
    for seed in (81, 82):
        ctx = CkksContext(ckks_params, seed=seed)
        kernel = CollapsedPointMajorKernel(ctx, DistanceProblem(8, 4))
        uploads.append((
            ctx, kernel,
            ensure_galois_keys(ctx, kernel.required_rotation_steps()),
            ctx.encrypt_symmetric_many(kernel.pack_points(points)),
            ctx.encrypt_symmetric_many(kernel.pack_query(points[5] + 0.01))))
    ir.clear_program_cache()

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        sessions = []
        try:
            # Sequential cold sessions.
            for ctx, kernel, galois, point_cts, query_cts in uploads:
                client_end, server_end = SimulatedLink.pair()
                task = asyncio.ensure_future(
                    server.serve_transport(server_end))
                client = await OffloadClient(
                    ckks_params, transport=client_end).connect()
                await client.upload_keys(relin=ctx.relin_keys(),
                                         galois=galois)
                _, meta = await client.request(
                    KnnOffloadService.OP_STORE, point_cts,
                    {"n_points": 8, "dims": 4, "variant": "collapsed"},
                    account=False)
                out_cts, _ = await client.request(
                    KnnOffloadService.OP_QUERY, query_cts,
                    {"batch": int(meta["batch"])})
                distances = kernel.decode(
                    [np.real(v) for v in ctx.decrypt_many(out_cts)])
                assert int(np.argmin(distances)) == 5
                sessions.append(server.metrics.get(client.session_id))
                await client.close()
                await task
            return sessions, server.metrics.snapshot()
        finally:
            await server.stop()

    (first, second), totals = asyncio.run(main())
    assert (first.program_cache_misses, first.program_cache_hits) == (1, 0)
    assert (second.program_cache_misses, second.program_cache_hits) == (0, 1)
    assert second.ntt_forward < first.ntt_forward // 2
    assert second.rotations == first.rotations
    assert totals["program_cache_hits"] == totals["program_cache_misses"] == 1


# --------------------------------------------- satellite: lazy key generator

def test_restricted_context_serves_a_dnn_query_without_a_key_generator(
        dnn_clients, monkeypatch):
    def no_keygen(*_args, **_kwargs):
        raise AssertionError("an evaluator context generated a key pair")

    monkeypatch.setattr(rlwe, "KeyGenerator", no_keygen)
    run = _serve_dnn(*dnn_clients[0])
    assert _same(run["got"], run["want"])
    assert "keygen" not in vars(build_restricted_context(
        PARAMETER_SET_B, {}, b"x"))


# ------------------------------ the key bill is read off the same one trace

def test_cold_dnn_session_key_bill(dnn_clients):
    """11 conv + 8 fc Galois keys, 17 merged — nearly all of what a cold
    ``dnn_cold_sessions`` client uploads.  Re-recorded from (35, 14, 48):
    the conv asks for 8 taps + 3 channel shifts instead of their 35
    products, the 10 x 64 fc for 3 + 3 baby/giant steps over 16 extended
    diagonals + 2 fold steps instead of 7 + 7 over 64 (ROADMAP 3a)."""
    conv, fc = _dnn_kernels(dnn_clients[0][0])
    conv_steps, fc_steps = (k.required_rotation_steps() for k in (conv, fc))
    assert (len(conv_steps), len(fc_steps), len(conv_steps | fc_steps)
            ) == (11, 8, 17)


def test_key_provisioning_and_the_run_share_one_trace(bfv_params):
    traced = []

    class Counted(BsgsMatVec):
        def _body(self, ev, cts):
            traced.append(len(cts))
            return super()._body(ev, cts)

    ctx = BfvContext(bfv_params, seed=31)
    kernel = Counted(ctx, np.random.default_rng(5).integers(1, 4, (4, 16)))
    ctx.make_galois_keys(kernel.required_rotation_steps())
    ct = ctx.encrypt(kernel.pack_input(np.arange(16)).astype(np.int64))
    kernel(ct)
    kernel(ct)
    kernel.required_rotation_steps()
    assert traced == [1]
