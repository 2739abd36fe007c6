"""Tier-2 performance gate: run every benchmark's ``--check`` mode.

Runs each benchmark as a subprocess with the repo's ``src`` on PYTHONPATH,
streams its output, and exits non-zero if ANY gate reports a regression —
the single entry point CI (and humans) use to validate the perf posture of
a change:

* ``bench_he_throughput`` — stacked NTT / key-switch / multiply kernels
  against the pre-refactor floors;
* ``bench_wire_format`` — CHOCO wire-format sizes and (de)serialization
  throughput;
* ``bench_hoisting`` — fused hoisted-rotation kernels against the naive
  per-rotation paths;
* ``bench_client_crypto`` — batched encrypt/decrypt engine against looped
  single-shot calls (including the RNS-decrypt floor over the bigint
  baseline at N=4096);
* ``bench_chaos_soak`` — the runtime's resilience invariants (exactly-once
  execution, ledger parity, leak-free shutdown) under long randomized
  fault schedules;
* ``bench_fleet`` — sharded multi-worker serving: the fleet chaos soak
  (worker kill, failover, exactly-once, ledger parity), plus aggregate
  KNN COMPUTE throughput through the router where at least four cores are
  usable (recorded as ``skipped`` below that).
  Runs in ``--quick`` mode here to keep the tier within budget;
* ``bench_ir`` — the ciphertext-program IR scheduler against the naive
  ``run_reference`` of the same traced kernels (fig15 matvec and a
  2-layer dnn slice), plus the NTT-residency telemetry signal;
* ``bench_level_planner`` — the level-aware parameter planner against the
  planner-off scheduled paths (fig15 matvec chain and a Table-5 dnn
  slice with a recrypt boundary), plus limb-drop telemetry and wire-byte
  reductions;
* ``figures`` — regenerates every paper table and figure (``figures.py``)
  and diffs each untimed report byte for byte against
  ``benchmarks/results/``, so a change that moves a figure shows the diff.

A per-gate wall-clock summary prints at the end, so a gate quietly eating
the tier's time budget is visible before it becomes a problem.  The same
summary is written as JSON (``benchmarks/results/check_all_summary.json``
by default) so tooling can consume gate outcomes without scraping stdout;
for the paired-implementation gates it carries every kernel's ``speedup``
and ``min_speedup`` (CI prints them on the run's summary page, so a
re-derived floor is visible on the PR that re-derives it).

Usage::

    python benchmarks/check_all.py                 # run all gates
    python benchmarks/check_all.py hoisting        # run a subset by substring
    python benchmarks/check_all.py --only bench_ir # run one gate by exact name
    python benchmarks/check_all.py --only he_kernels,ir,wire_format  # aliases
    python benchmarks/check_all.py --only figures  # the figure-drift gate
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).parent
SUMMARY_PATH = BENCH_DIR / "results" / "check_all_summary.json"

#: (script, extra arguments beyond --check)
GATES = [
    ("bench_he_throughput.py", []),
    ("bench_wire_format.py", []),
    ("bench_hoisting.py", []),
    ("bench_client_crypto.py", []),
    ("bench_chaos_soak.py", []),
    ("bench_fleet.py", ["--quick"]),
    ("bench_ir.py", []),
    ("bench_level_planner.py", []),
    ("figures.py", []),
]

#: Where the paired-implementation gates (``_gate.run_speedup_gate``) record
#: their kernels; the summary carries each one's speedup beside its floor.
SPEEDUP_RECORDS = {
    "bench_hoisting.py": "BENCH_hoisting.json",
    "bench_client_crypto.py": "BENCH_client_crypto.json",
    "bench_ir.py": "BENCH_ir.json",
    "bench_level_planner.py": "BENCH_level_planner.json",
}

#: Short gate aliases accepted by ``--only`` alongside the script names.
ALIASES = {
    "he_kernels": "bench_he_throughput.py",
    "wire_format": "bench_wire_format.py",
    "hoisting": "bench_hoisting.py",
    "client_crypto": "bench_client_crypto.py",
    "chaos_soak": "bench_chaos_soak.py",
    "fleet": "bench_fleet.py",
    "ir": "bench_ir.py",
    "level_planner": "bench_level_planner.py",
    "figures": "figures.py",
}


def _select(patterns, only):
    """Resolve the gate subset: ``--only`` exact names, else substrings.

    ``--only`` accepts script names (``bench_ir.py``), stems (``bench_ir``),
    short aliases (``ir``, ``he_kernels``), and comma-separated lists
    (``--only he_kernels,ir,wire_format``).  Unknown names are an error
    listing everything known — never a silent zero-gate run.
    """
    if only:
        by_script = {gate: (gate, extra) for gate, extra in GATES}
        names = dict(by_script)
        names.update({gate[: -len(".py")]: (gate, extra)
                      for gate, extra in GATES})
        names.update({alias: by_script[script]
                      for alias, script in ALIASES.items()
                      if script in by_script})
        wanted = [name.strip() for entry in only
                  for name in entry.split(",") if name.strip()]
        missing = [name for name in wanted if name not in names]
        if missing:
            return None, missing
        return [names[name] for name in wanted], []
    selected = [
        (gate, extra) for gate, extra in GATES
        if not patterns or any(pattern in gate for pattern in patterns)
    ]
    return (selected or None), patterns


def _recorded_speedups(gate):
    """``{kernel: {speedup, min_speedup}}`` from the record *gate* just
    wrote, or ``{}`` for a gate that records no speedups."""
    path = BENCH_DIR / "results" / SPEEDUP_RECORDS.get(gate, "")
    if not path.is_file():
        return {}
    kernels = json.loads(path.read_text()).get("kernels", {})
    return {name: {"speedup": kernel["speedup"],
                   "min_speedup": kernel["min_speedup"]}
            for name, kernel in kernels.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run every benchmark gate in --check mode")
    parser.add_argument(
        "patterns", nargs="*",
        help="run only gates whose script name contains any of these")
    parser.add_argument(
        "--only", action="append", default=[], metavar="GATE",
        help="run exactly this gate (script name, .py optional); repeatable")
    parser.add_argument(
        "--summary", type=Path, default=SUMMARY_PATH,
        help="where to write the machine-readable JSON summary")
    args = parser.parse_args(argv)

    selected, bad = _select(args.patterns, args.only)
    if selected is None:
        names = [gate for gate, _ in GATES] + sorted(ALIASES)
        print(f"no gate matches {bad!r}; available: {names}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    failed = []
    timings = []
    for gate, extra in selected:
        print(f"=== {gate} ===", flush=True)
        started = time.monotonic()
        result = subprocess.run(
            [sys.executable, str(BENCH_DIR / gate), "--check", *extra],
            env=env,
        )
        elapsed = time.monotonic() - started
        timings.append((gate, elapsed, result.returncode == 0))
        if result.returncode != 0:
            failed.append(gate)
        print(flush=True)

    total = sum(elapsed for _, elapsed, _ in timings)
    print("gate timing summary:")
    for gate, elapsed, ok in timings:
        print(f"  {'PASS' if ok else 'FAIL'}  {elapsed:7.2f}s  {gate}")
    print(f"        {total:7.2f}s  total")

    summary = {
        "ok": not failed,
        "total_seconds": round(total, 3),
        "gates": [
            {"gate": gate, "seconds": round(elapsed, 3), "ok": ok,
             "kernels": _recorded_speedups(gate)}
            for gate, elapsed, ok in timings
        ],
    }
    args.summary.parent.mkdir(parents=True, exist_ok=True)
    args.summary.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.summary}")

    if failed:
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(selected)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
