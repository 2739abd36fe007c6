"""Fleet serving gate: sharded workers vs a single process, plus chaos.

Two legs, both against a real :class:`~repro.runtime.fleet.FleetServer`
(router + worker processes + per-worker eval pools) over loopback TCP:

* **throughput** — N concurrent KNN sessions classify through the router;
  aggregate COMPUTE throughput with ``--workers`` sharded workers must
  beat the 1-worker fleet by 2.5x at 4 workers.  The comparison runs only
  with at least ``MIN_CORES`` usable cores: four processes on one or two
  cores can only add IPC overhead, and on the 2-vCPU host the ratio read
  0.70-1.41x run to run — a coin flip, not a gate.  Below that the leg is
  recorded as ``"speedup": "skipped (N cores)"`` (never as a pass) and the
  chaos leg alone decides.
* **chaos** — the fleet soak kills a worker mid-traffic and audits
  exactly-once execution, byte-identical ledger parity across failover,
  and supervision (every kill produced a restart, failover was
  exercised).  The soak's machine-readable report lands in the JSON
  output verbatim.

Usage::

    python benchmarks/bench_fleet.py --check            # full gate
    python benchmarks/bench_fleet.py --check --quick    # tier-2 budget
    python benchmarks/bench_fleet.py --record           # rewrite the record
"""

import argparse
import asyncio
import os
import sys
import time
from pathlib import Path

import numpy as np

from _gate import record_options, save_record
from _soak import soak
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters
from repro.apps.knn import KnnOffloadService, RemoteKnn
from repro.runtime import OffloadClient
from repro.runtime.fleet import FleetServer

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_fleet.json"

KNN_INSTALLER = "repro.apps.knn:KnnOffloadService.install_pooled"

#: Aggregate-throughput floor (sharded / single-worker), and the usable
#: cores below which measuring it says nothing about the fleet.
FLOOR = 2.5
MIN_CORES = 4


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def knn_params():
    return small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                 data_bits=(30, 30, 30))


async def _knn_session(params, host, port, seed, n_queries,
                       points, labels, rng) -> int:
    """One client session: provision a KNN store, then classify."""
    ctx = CkksContext(params, seed=seed)
    client = await OffloadClient(params, host, port,
                                 request_timeout=30.0).connect()
    try:
        knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
        await knn.add_points(points, labels)
        done = 0
        for q in range(n_queries):
            query = points[rng.integers(len(points))] + rng.normal(
                0.0, 0.05, size=points.shape[1])
            await knn.classify(query)
            done += 1
        return done
    finally:
        await client.close()


async def measure_fleet(params, n_workers, n_sessions, n_queries,
                        eval_workers=1) -> dict:
    """Aggregate KNN COMPUTE throughput through an n-worker fleet."""
    fleet = FleetServer(
        params, n_workers,
        pooled_installers=(KNN_INSTALLER,),
        eval_workers=eval_workers,
        concurrency=2)
    host, port = await fleet.start()
    rng = np.random.default_rng(7)
    points = rng.normal(0.0, 1.0, size=(8, 4))
    labels = (np.arange(8) % 3).tolist()
    try:
        # Untimed warmup: provisioning paths, eval-pool key shipping.
        await _knn_session(params, host, port, 1000, 1, points, labels,
                           np.random.default_rng(11))
        started = time.perf_counter()
        counts = await asyncio.gather(*(
            _knn_session(params, host, port, 2000 + i, n_queries,
                         points, labels, np.random.default_rng(100 + i))
            for i in range(n_sessions)))
        elapsed = time.perf_counter() - started
        snapshot = await fleet.refresh_metrics()
    finally:
        await fleet.stop()
    total = sum(counts)
    return {
        "n_workers": n_workers,
        "eval_workers": eval_workers,
        "n_sessions": n_sessions,
        "queries": total,
        "elapsed_s": round(elapsed, 4),
        "queries_per_s": round(total / elapsed, 3),
        "sessions_routed": snapshot["sessions_routed"],
        "per_worker": [
            {"worker": w.get("worker"),
             "handler_invocations": w.get("metrics", {}).get(
                 "handler_invocations", 0)}
            for w in snapshot["per_worker"]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero below the floor or on a "
                             "violated soak invariant")
    parser.add_argument("--quick", action="store_true",
                        help="smaller leg sizes for the tier-2 budget")
    parser.add_argument("--workers", type=int, default=4,
                        help="sharded fleet size (baseline is always 1)")
    parser.add_argument("--sessions", type=int, default=None,
                        help="concurrent client sessions (default 4; "
                             "--quick 3)")
    parser.add_argument("--queries", type=int, default=None,
                        help="classifications per session (default 6; "
                             "--quick 3)")
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    n_sessions = args.sessions or (3 if args.quick else 4)
    n_queries = args.queries or (3 if args.quick else 6)
    cores = usable_cores()
    params = knn_params()
    failures = []
    throughput = {}

    if cores < MIN_CORES:
        speedup = f"skipped ({cores} cores)"
        print(f"fleet throughput: SKIPPED — {cores} usable core(s), the "
              f"speedup comparison needs {MIN_CORES}; NOT a pass, the "
              f"scaling claim stays unobserved on this host")
    else:
        print(f"fleet throughput: {n_sessions} session(s) x {n_queries} "
              f"KNN queries, {cores} usable core(s), floor {FLOOR:.2f}x")
        single = asyncio.run(measure_fleet(params, 1, n_sessions, n_queries))
        sharded = asyncio.run(measure_fleet(params, args.workers, n_sessions,
                                            n_queries))
        throughput = {"single": single, "sharded": sharded}
        ratio = sharded["queries_per_s"] / max(single["queries_per_s"], 1e-9)
        speedup = round(ratio, 3)
        for leg in (single, sharded):
            spread = ", ".join(
                f"w{w['worker']}={w['handler_invocations']}"
                for w in leg["per_worker"])
            print(f"  {leg['n_workers']} worker(s): "
                  f"{leg['queries_per_s']:.2f} queries/s "
                  f"({leg['queries']} in {leg['elapsed_s']:.2f}s; {spread})")
        verdict = "ok" if ratio >= FLOOR else "BELOW FLOOR"
        print(f"  aggregate speedup {ratio:.2f}x (floor {FLOOR:.2f}x at "
              f"{cores} core(s)) [{verdict}]")
        if ratio < FLOOR:
            failures.append(
                f"throughput: {args.workers}-worker fleet at {ratio:.2f}x "
                f"vs single worker, below the {FLOOR:.2f}x floor")

    soak_sessions = 3 if args.quick else 4
    soak_requests = 6 if args.quick else 10
    print(f"fleet chaos soak: {soak_sessions} session(s) x "
          f"{soak_requests} request(s), 1 worker kill")
    report = asyncio.run(soak(workers=2, n_sessions=soak_sessions,
                              n_requests=soak_requests, seed=2027))
    print(report.render())
    failures.extend(f"soak: {f}" for f in report.failures)

    out = {
        "usable_cores": cores,
        "floor": FLOOR,
        "speedup": speedup,
        **throughput,
        "soak": report.as_dict(),
        "failures": failures,
    }
    save_record(out, args)

    if args.check and failures:
        for line in failures:
            print(f"GATE FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
