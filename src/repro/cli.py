"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``params``
    Print Table 3's parameter selections and the SEAL defaults.
``networks``
    Print the Table 5 model zoo with measured plan costs.
``accelerator``
    Evaluate the CHOCO-TACO operating point; ``--dse`` runs the full sweep.
``advisor --network NAME``
    The §5.8 offload-vs-local energy analysis for one network.
``demo``
    A tiny end-to-end encrypted inference (real HE).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_params(_args) -> int:
    from repro.hecore.params import (
        PARAMETER_SET_A,
        PARAMETER_SET_B,
        PARAMETER_SET_C,
        seal_default_parameters,
    )

    print("CHOCO parameter selections (Table 3):")
    for p in (PARAMETER_SET_A, PARAMETER_SET_B, PARAMETER_SET_C):
        print(f"  {p.describe()}")
    default = seal_default_parameters(8192)
    print("\nSEAL default baseline:")
    print(f"  {default.describe()}")
    ratio = default.ciphertext_bytes() / PARAMETER_SET_A.ciphertext_bytes()
    print(f"\nCHOCO ciphertexts are {ratio:.0f}/2 the default size at N=8192.")
    return 0


def _cmd_networks(_args) -> int:
    from repro.apps.dnn import ClientAidedDnnPlan
    from repro.nn.models import NETWORK_BUILDERS, TABLE5_REFERENCE

    print(f"{'network':8s} {'MACs(M)':>9s} {'params':>7s} {'comm MB':>8s} "
          f"{'pub MB':>7s} {'enc':>4s} {'dec':>4s}")
    for name, build in NETWORK_BUILDERS.items():
        net = build()
        plan = ClientAidedDnnPlan(net)
        print(f"{name:8s} {net.total_macs() / 1e6:9.2f} "
              f"{plan.params.label:>7s} "
              f"{plan.communication_bytes() / 1e6:8.2f} "
              f"{TABLE5_REFERENCE[name]['comm_mb']:7.2f} "
              f"{plan.encrypt_ops:4d} {plan.decrypt_ops:4d}")
    return 0


def _cmd_accelerator(args) -> int:
    from repro.accel.design import AcceleratorModel, CHOCO_TACO_CONFIG

    model = AcceleratorModel(CHOCO_TACO_CONFIG, args.n, args.k)
    enc, dec = model.encrypt_cost(), model.decrypt_cost()
    print(f"CHOCO-TACO at (N={args.n}, k={args.k}):")
    print(f"  encrypt: {enc.time_s * 1e3:7.3f} ms   {enc.energy_j * 1e6:8.1f} uJ")
    print(f"  decrypt: {dec.time_s * 1e3:7.3f} ms   {dec.energy_j * 1e6:8.1f} uJ")
    print(f"  area {model.area_mm2:.1f} mm^2, average power "
          f"{model.average_power_w * 1e3:.0f} mW")
    if args.dse:
        from repro.accel.dse import explore_design_space, select_operating_point

        print("\nsweeping 32,000 configurations ...")
        points = explore_design_space(poly_degree=args.n, residues=args.k)
        sel = select_operating_point(points)
        print(f"operating point: {sel.config.as_dict()}")
        print(f"  {sel.time_s * 1e3:.3f} ms | {sel.energy_j * 1e3:.4f} mJ | "
              f"{sel.area_mm2:.1f} mm^2 | {sel.power_w * 1e3:.0f} mW")
    return 0


def _cmd_advisor(args) -> int:
    from repro.apps.advisor import WorkloadAdvisor
    from repro.nn.models import NETWORK_BUILDERS

    build = NETWORK_BUILDERS.get(args.network)
    if build is None:
        print(f"unknown network {args.network!r}; choose from "
              f"{sorted(NETWORK_BUILDERS)}", file=sys.stderr)
        return 2
    advisor = WorkloadAdvisor()
    print(advisor.render(advisor.analyze(build())))
    return 0


def _cmd_report(_args) -> int:
    """Regenerate every table/figure with ``benchmarks/figures.py``."""
    import pathlib
    import runpy

    runner = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/figures.py"
    if not runner.is_file():
        print("benchmarks/ not found next to the package; run from a source "
              "checkout", file=sys.stderr)
        return 2
    return runpy.run_path(str(runner))["main"]([])


def _cmd_demo(_args) -> int:
    import numpy as np

    from repro.core.packing import RedundantPacking, windowed_rotation_redundant
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                   plain_bits=16, data_bits=(30, 30))
    ctx = BfvContext(params, seed=0)
    ctx.make_galois_keys([2])
    packing = RedundantPacking(window=8, redundancy=2, count=1)
    values = np.arange(1, 9)
    # Encode explicitly so the encode cost is charged once, on the plaintext
    # path, instead of hiding inside encrypt (keeps breakdown benches honest).
    pt = ctx.encode(packing.pack([values]).astype(np.int64))
    ct = ctx.encrypt(pt)
    print(f"encrypted {[int(v) for v in values]} "
          f"(noise budget {ctx.noise_budget(ct)} bits)")
    ct = windowed_rotation_redundant(ctx, ct, 2, packing.layout)
    out = packing.unpack(ctx.decrypt(ct), rotation=2)[0]
    print(f"windowed rotation by 2 via rotational redundancy -> "
          f"{[int(v) for v in out]} (budget {ctx.noise_budget(ct)} bits)")
    return 0


_PARAM_PRESETS = ("test-bfv", "test-ckks", "A", "B", "C")


def _resolve_params(preset: str):
    """One shared preset table for ``serve`` and ``offload``.

    Parameter generation is deterministic, so the same preset name yields
    bit-identical moduli in separate processes — the handshake fingerprint
    matches across a real client/server split.
    """
    from repro.hecore.params import (
        PARAMETER_SET_A,
        PARAMETER_SET_B,
        PARAMETER_SET_C,
        SchemeType,
        small_test_parameters,
    )

    if preset == "test-bfv":
        return small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                     plain_bits=16, data_bits=(30, 30, 30))
    if preset == "test-ckks":
        return small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                     data_bits=(30, 24, 24))
    named = {"A": PARAMETER_SET_A, "B": PARAMETER_SET_B,
             "C": PARAMETER_SET_C}
    if preset in named:
        return named[preset]
    raise SystemExit(f"unknown parameter preset {preset!r}; choose from "
                     f"{', '.join(_PARAM_PRESETS)}")


def _install_demo_ops(server) -> None:
    """Ops the ``offload`` client exercises (beyond the built-in echo)."""
    server.register_op("square", lambda ctx, _state, _meta, cts: [
        ctx.multiply(ct, ct) for ct in cts])


#: Installer specs for the fleet path — worker processes resolve these by
#: name, so the same ops are served whether sharded or single-process.
_SERVE_INSTALLERS = ("repro.cli:_install_demo_ops",)
_SERVE_POOLED_INSTALLERS = (
    "repro.apps.knn:KnnOffloadService.install_pooled",
)


async def _serve_selftest(params, host, port) -> int:
    """One encrypted round trip against the server we just started."""
    import numpy as np

    from repro.hecore import context_for
    from repro.hecore.params import SchemeType
    from repro.runtime import OffloadClient

    ctx = context_for(params, seed=b"serve-selftest")
    client = await OffloadClient(params, host, port).connect()
    try:
        await client.upload_keys(relin=ctx.relin_keys())
        values = (np.array([1, 2, 3]) if params.scheme is SchemeType.BFV
                  else np.array([1.0, 2.0, 3.0]))
        ct = ctx.encrypt_symmetric(ctx.encode(values))
        out, _meta = await client.request("square", [ct])
        decrypted = np.real(ctx.decrypt(out[0]))[: len(values)]
        rounded = [round(float(v)) for v in decrypted]
        expected = [round(float(v) ** 2) for v in values]
        if rounded != expected:
            print(f"selftest MISMATCH: {rounded} != {expected}",
                  file=sys.stderr)
            return 1
        print(f"selftest ok: square{values.tolist()} -> {rounded} "
              f"(session {client.session_id})")
        return 0
    finally:
        await client.close()


def _cmd_serve(args) -> int:
    import asyncio

    from repro.apps.knn import KnnOffloadService
    from repro.runtime import EvalPool, FleetServer, OffloadServer

    params = _resolve_params(args.params)

    async def run() -> int:
        if args.workers > 0:
            server = FleetServer(
                params, args.workers,
                installers=_SERVE_INSTALLERS,
                pooled_installers=_SERVE_POOLED_INSTALLERS,
                eval_workers=args.eval_workers,
                queue_limit=args.queue_limit,
                concurrency=args.concurrency)
            host, port = await server.start(args.host, args.port)
            print(f"offload fleet on {host}:{port} "
                  f"({args.workers} worker(s) x {args.eval_workers} eval "
                  f"subprocess(es); {params.describe()}); Ctrl-C to stop")
        else:
            eval_pool = None
            if args.eval_workers > 0:
                eval_pool = EvalPool(params, args.eval_workers,
                                     _SERVE_POOLED_INSTALLERS)
            server = OffloadServer(params, queue_limit=args.queue_limit,
                                   concurrency=args.concurrency,
                                   eval_pool=eval_pool, verbose=True)
            KnnOffloadService.install(server)
            _install_demo_ops(server)
            host, port = await server.start(args.host, args.port)
            print(f"offload server on {host}:{port} "
                  f"({params.describe()}); Ctrl-C to stop")
        try:
            if args.selftest:
                return await _serve_selftest(params, host, port)
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
        return 0


def _cmd_offload(args) -> int:
    import asyncio

    import numpy as np

    from repro.hecore import context_for
    from repro.hecore.params import SchemeType
    from repro.runtime import OffloadClient, OffloadServer

    params = _resolve_params(args.params)
    if params.scheme is SchemeType.BFV:
        values = np.array([int(v) for v in args.values.split(",")])
    else:
        values = np.array([float(v) for v in args.values.split(",")])

    async def run() -> int:
        server = None
        host, port = args.host, args.port
        if args.selftest:
            server = OffloadServer(params)
            _install_demo_ops(server)
            host, port = await server.start("127.0.0.1", 0)
        ctx = context_for(params, seed=b"offload-cli-client")
        client = await OffloadClient(params, host, port).connect()
        try:
            await client.upload_keys(relin=ctx.relin_keys())
            # Explicit encode-then-encrypt: same plaintext path as the batch
            # engine, so encode cost is not double-counted in breakdowns.
            ct = ctx.encrypt_symmetric(ctx.encode(values))
            out, _meta = await client.request("square", [ct])
            decrypted = np.real(ctx.decrypt(out[0]))[: len(values)]
            rounded = [round(float(v)) for v in decrypted]
            print(f"encrypted square of {values.tolist()} -> {rounded} "
                  f"(session {client.session_id} on {host}:{port})")
            expected = [round(float(v) ** 2) for v in values]
            if rounded != expected:
                print(f"MISMATCH: expected {expected}", file=sys.stderr)
                return 1
        finally:
            await client.close()
            if server is not None:
                await server.stop()
        return 0

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHOCO / CHOCO-TACO (ASPLOS 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("params", help="Table 3 parameter selections")
    sub.add_parser("networks", help="Table 5 model zoo and plan costs")
    acc = sub.add_parser("accelerator", help="CHOCO-TACO cost model")
    acc.add_argument("--n", type=int, default=8192, help="polynomial degree")
    acc.add_argument("--k", type=int, default=3, help="RNS residue count")
    acc.add_argument("--dse", action="store_true",
                     help="run the full design-space sweep")
    adv = sub.add_parser("advisor", help="offload-vs-local energy advice (§5.8)")
    adv.add_argument("--network", required=True,
                     help="LeNetSm | LeNetLg | SqzNet | VGG16")
    sub.add_parser("demo", help="tiny end-to-end encrypted demo")
    sub.add_parser("report", help="regenerate every table/figure "
                                  "(runs benchmarks/figures.py)")
    srv = sub.add_parser("serve", help="run the offload runtime server")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7700)
    srv.add_argument("--params", default="test-bfv",
                     help=f"parameter preset: {', '.join(_PARAM_PRESETS)}")
    srv.add_argument("--workers", type=int, default=0,
                     help="shard sessions across N worker processes behind "
                          "a router (0 = single-process)")
    srv.add_argument("--eval-workers", type=int, default=0,
                     help="per-worker eval subprocesses for pooled COMPUTE "
                          "ops (0 = run handlers on the serving loop)")
    srv.add_argument("--selftest", action="store_true",
                     help="start, run one encrypted round trip against "
                          "the server, and exit")
    srv.add_argument("--queue-limit", type=int, default=16,
                     help="per-session request queue bound")
    srv.add_argument("--concurrency", type=int, default=1,
                     help="parallel compute slots")
    off = sub.add_parser("offload",
                         help="run an encrypted request against a server")
    off.add_argument("--host", default="127.0.0.1")
    off.add_argument("--port", type=int, default=7700)
    off.add_argument("--params", default="test-bfv",
                     help=f"parameter preset: {', '.join(_PARAM_PRESETS)}")
    off.add_argument("--values", default="1,2,3",
                     help="comma-separated values to square under encryption")
    off.add_argument("--selftest", action="store_true",
                     help="spin up an in-process server on an ephemeral port")
    return parser


_HANDLERS = {
    "params": _cmd_params,
    "networks": _cmd_networks,
    "accelerator": _cmd_accelerator,
    "advisor": _cmd_advisor,
    "demo": _cmd_demo,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "offload": _cmd_offload,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)
