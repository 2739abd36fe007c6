"""Per-layer measurements taken from outside the program.

Each function times one layer through its public functions, on the same
inputs a served query carried: the key and ciphertext serialisers
(``hecore.serialize``), the frame codec (``runtime.framing``), the handler on
a ``build_restricted_context`` evaluator (``core.ir`` execute and compile),
single HE operations and the stacked NTT (``hecore``), and the analytic client
and link models (``core.protocol``, ``platforms``).  ``replay_query`` lays
the results under a traced query's request spans as synthetic children, so
the trace can say how much of a request nothing explains.
"""

import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.protocol import ClientCostModel, CostLedger
from repro.hecore.ntt import get_stack_plan
from repro.hecore.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    deserialize_relin_key,
    serialize_ciphertext,
    serialize_galois_keys,
    serialize_relin_key,
)
from repro.platforms.radio import BluetoothLink
from repro.runtime.framing import (
    Compute,
    KeyKind,
    KeyUpload,
    MessageType,
    Result,
    decode_frame,
    encode_frame,
)
from repro.runtime.server import build_restricted_context

#: The seed ``OffloadServer`` gives its evaluation contexts.
SERVER_CONTEXT_SEED = b"offload-server-eval"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# ------------------------------------------------------------------ keys
def server_evaluator(params, relin, galois):
    """Ship the session's keys through serialise -> frame -> deserialise and
    build the worker's evaluator from them.  Returns (ctx, costs)."""
    keystore, ser_s, codec_s, nbytes = {}, 0.0, 0.0, 0
    for kind, key, ser, deser in (
            (KeyKind.RELIN, relin, serialize_relin_key, deserialize_relin_key),
            (KeyKind.GALOIS, galois, serialize_galois_keys,
             deserialize_galois_keys)):
        if key is None:
            continue
        blob, dt = timed(ser, key)
        ser_s += dt
        nbytes += len(blob)
        start = time.perf_counter()
        frame = encode_frame(MessageType.KEY_UPLOAD,
                             KeyUpload(kind, blob).pack())
        upload = KeyUpload.unpack(decode_frame(frame)[2])
        codec_s += time.perf_counter() - start
        keystore[kind], dt = timed(deser, upload.blob, params)
        ser_s += dt
    ctx = build_restricted_context(params, keystore, SERVER_CONTEXT_SEED)
    return ctx, {"hecore.serialize.keys_ms": 1e3 * ser_s,
                 "hecore.serialize.keys_bytes": nbytes,
                 "runtime.framing.keys_codec_ms": 1e3 * codec_s}


# ------------------------------------------------------------- one request
def up_costs(params, op, meta, cts):
    """COMPUTE, client to worker: (server cts, serialise s, codec s,
    deserialise s)."""
    start = time.perf_counter()
    blobs = tuple(serialize_ciphertext(ct, compress_seed=True) for ct in cts)
    t_ser = time.perf_counter()
    frame = encode_frame(MessageType.COMPUTE,
                         Compute(1, op, dict(meta), blobs).pack())
    compute = Compute.unpack(decode_frame(frame)[2])
    t_codec = time.perf_counter()
    server_cts = [deserialize_ciphertext(b, params) for b in compute.blobs]
    t_deser = time.perf_counter()
    return server_cts, t_ser - start, t_codec - t_ser, t_deser - t_codec


def down_costs(params, cts):
    """RESULT, worker to client: (serialise s, codec s, deserialise s)."""
    start = time.perf_counter()
    blobs = tuple(serialize_ciphertext(ct, compress_seed=False) for ct in cts)
    t_ser = time.perf_counter()
    frame = encode_frame(MessageType.RESULT, Result(1, {}, blobs).pack())
    result = Result.unpack(decode_frame(frame)[2])
    t_codec = time.perf_counter()
    for blob in result.blobs:
        deserialize_ciphertext(blob, params)
    t_deser = time.perf_counter()
    return t_ser - start, t_codec - t_ser, t_deser - t_codec


def request_parts(span):
    """(op, cts, meta, result cts) of a kept ``client.request`` span."""
    args, _kwargs, (out_cts, _meta) = span.payload
    meta = args[2] if len(args) > 2 and args[2] else {}
    return args[0], list(args[1]), meta, out_cts


def request_spans(tracer, root):
    """The recorded ``client.request`` calls of one traced query."""
    return [s for s in tracer.children(root)
            if s.name == "runtime.client.request" and not s.replayed]


def replay_query(tracer, workload, ctx, state, warmed, root, derived):
    """Replay one traced query's requests in-process under their spans.

    *warmed* is the set of ops already run on *state*: an op's first run
    there is cold, and (cold - warm) is its compile cost, which a
    cold-session query pays and a long-lived session paid in set-up.
    *derived* names what cannot be replayed in-process, as seconds per
    request: ``echo`` by op (the echo round trip of the same upload; less its
    own serialise and codec work it is socket, router relay and event-loop
    time), ``service`` (server-reported service time of a pooled op; less the
    in-process execute it is eval-pool shipping) and ``contention``
    (two-session less one-session request time).  Each derived child is
    capped by what the measured children leave of the request.
    Returns this query's totals in seconds, by layer.
    """
    totals = {"serialize": 0.0, "codec": 0.0, "execute": 0.0, "compile": 0.0}
    for span in request_spans(tracer, root):
        op, cts, meta, _out = request_parts(span)
        server_cts, ser_up, codec_up, deser_up = up_costs(
            workload.params, op, meta, cts)
        cold_s = None
        if op not in warmed:
            _, cold_s = timed(workload.execute, ctx, state, op, meta,
                              server_cts)
            warmed.add(op)
        out, exec_s = timed(workload.execute, ctx, state, op, meta,
                            server_cts)
        compile_s = max(0.0, cold_s - exec_s) if cold_s is not None else 0.0
        ser_dn, codec_dn, deser_dn = down_costs(workload.params, out)
        echo_own = (ser_up + codec_up + deser_up
                    + sum(down_costs(workload.params, server_cts)))
        parts = [("hecore.serialize.ct", ser_up),
                 ("runtime.framing.codec", codec_up),
                 ("hecore.serialize.ct", deser_up),
                 ("core.ir.execute", exec_s),
                 ("hecore.serialize.ct", ser_dn),
                 ("runtime.framing.codec", codec_dn),
                 ("hecore.serialize.ct", deser_dn)]
        if workload.cold_sessions:      # paid by every query
            parts.insert(3, ("core.ir.compile", compile_s))
        left = (span.end - span.start) - sum(s for _, s in parts)
        for name, seconds in (
                ("runtime.relay", derived["echo"][op] - echo_own),
                ("runtime.evalpool", derived["service"] - exec_s),
                ("runtime.contention", derived["contention"])):
            seconds = max(0.0, min(seconds, left))
            left -= seconds
            parts.append((name, seconds))
        cursor = span.start
        for name, seconds in parts:
            cursor = tracer.add_replayed(name, span, cursor, seconds)
        totals["serialize"] += ser_up + deser_up + ser_dn + deser_dn
        totals["codec"] += codec_up + codec_dn
        totals["execute"] += exec_s
        totals["compile"] += compile_s
    return totals


# ------------------------------------------------------- standalone layers
def ntt_row_us(params, reps=20):
    """Microseconds per residue row of a standalone forward ``NttStackPlan``
    at the workload's (k, N)."""
    moduli = params.data_base.moduli
    plan = get_stack_plan(params.poly_degree, moduli)
    rng = np.random.default_rng(0)
    stack = np.stack([rng.integers(0, p, params.poly_degree) for p in moduli])
    plan.forward(stack)
    samples = [timed(plan.forward, stack)[1] for _ in range(reps)]
    return 1e6 * statistics.median(samples) / len(moduli)


def single_op_ms(fn, reps=5):
    fn()
    return 1e3 * statistics.median(timed(fn)[1] for _ in range(reps))


def modeled(params, requests):
    """The paper's IMX6 view of one query, from its kept request spans:
    ledger ops x model constants."""
    ledger = CostLedger()
    software = ClientCostModel.software(params)
    taco = ClientCostModel.choco_taco(params)
    sw_s = taco_s = 0.0
    for span in requests:
        _op, ups, _meta, downs = request_parts(span)
        for ct in ups:
            ledger.charge_upload(ct.size_bytes())
        for ct in downs:
            ledger.charge_download(ct.size_bytes())
        sw_s += (software.encrypt_many_s(len(ups))
                 + software.decrypt_many_s(len(downs)))
        taco_s += (taco.encrypt_many_s(len(ups))
                   + taco.decrypt_many_s(len(downs)))
    link_s = BluetoothLink().session_time(ledger.total_bytes, ledger.rounds)
    return {"core.protocol.ledger_bytes": ledger.total_bytes,
            "platforms.modeled_client_ms": 1e3 * sw_s,
            "platforms.modeled_taco_client_ms": 1e3 * taco_s,
            "platforms.modeled_link_ms": 1e3 * link_s}


# ----------------------------------------------------------------- process
def peak_rss_mb(pid, with_children=False):
    """Peak resident set of *pid* (and its live children) from /proc."""
    pids = [pid]
    if with_children:
        try:
            kids = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
            pids += [int(k) for k in kids]
        except OSError:
            pass
    total_kb = 0
    for p in pids:
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
