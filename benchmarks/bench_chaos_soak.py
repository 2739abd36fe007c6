"""Chaos soak — the offload runtime's resilience contract, under load.

Tier-1 runs one short seeded soak (tests/test_chaos.py); this gate runs the
*long* version of the same driver (``_soak.py``, one in-process server):
several independent seeds, a harsher fault plan, and more requests per
session, auditing the same end-state invariants each time:

* exactly-once handler execution (every logical request's ``uid`` once in
  the execution logs, under drops, duplicates, and reconnects);
* per-session transfer-ledger totals byte-identical to a fault-free oracle
  run (retries and resumes are transport artifacts the analytical cost
  model never sees);
* sessions resume after disconnects without re-uploading evaluation keys;
* zero leaked pending futures, worker tasks, or server sessions.

Unlike the throughput gates there is no tolerance: any violated invariant
in any seed is a hard failure.  Only ``--record`` rewrites
``results/BENCH_chaos_soak.json``.
"""

import argparse
import asyncio
import sys
from pathlib import Path

from _gate import record_options, save_record
from _soak import soak
from repro.runtime import DEFAULT_PLAN, FaultPlan

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_chaos_soak.json"

#: A harsher link than the tier-1 default: twice the drop rate and a
#: disconnect every ~20 frames on average.
HARSH_PLAN = FaultPlan(
    drop_p=0.18, delay_p=0.20, delay_range_s=(0.001, 0.015),
    corrupt_p=0.03, truncate_p=0.03, disconnect_p=0.05,
)

SCENARIOS = [
    ("default-2026", 2026, DEFAULT_PLAN),
    ("default-31337", 31337, DEFAULT_PLAN),
    ("harsh-424242", 424242, HARSH_PLAN),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any soak scenario violates an invariant")
    parser.add_argument("--sessions", type=int, default=8,
                        help="concurrent sessions per scenario")
    parser.add_argument("--requests", type=int, default=6,
                        help="logical requests per session")
    record_options(parser, RESULTS_PATH)
    args = parser.parse_args(argv)

    failures = []
    scenarios = {}
    for name, seed, plan in SCENARIOS:
        report = asyncio.run(soak(n_sessions=args.sessions,
                                  n_requests=args.requests,
                                  seed=seed, plan=plan))
        print(report.render())
        print()
        scenarios[name] = report.as_dict()
        failures.extend(f"{name}: {f}" for f in report.failures)

    out = {
        "sessions": args.sessions,
        "requests_per_session": args.requests,
        "scenarios": scenarios,
    }
    save_record(out, args)

    if args.check and failures:
        for line in failures:
            print(f"INVARIANT VIOLATED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
