#!/usr/bin/env python3
"""Served-path benchmark: four offload workloads, end to end and per layer.

    python3 benchmarks/e2e/run.py                    # all workloads, untraced
    python3 benchmarks/e2e/run.py --traced           # ... plus per-layer metrics
    python3 benchmarks/e2e/run.py --quick --traced   # a few queries each (smoke)
    python3 benchmarks/e2e/run.py --list             # every declared metric
    python3 benchmarks/e2e/run.py --repeat-check     # two sets against the bounds
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is what ``BENCHMARK.json`` declares: one workload in this
interpreter, and a final stdout line holding one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` every
workload runs in a fresh interpreter of its own.  README.md has the metric
catalogue, the predictions and how to read a trace file.
"""

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Forked fleet workers resolve "benchmarks.e2e.handlers:install" and import
# repro from the path they inherit, so no PYTHONPATH is needed.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# numpy asks for transparent huge pages on large allocations; where the kernel
# compacts memory on such a fault, every fresh key-sized buffer stalls for
# seconds (README, finding 4).  Must be set before numpy is first imported;
# the forked workers inherit it.  Export it as 1 to measure with the hint.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")


def declared(spec, section):
    return {m["name"]: m for m in spec[section]}


def print_record(record, spec):
    n = record["samples"]
    print(f"{record['workload']} seed={record['seed']}: "
          f"{n['measured']} queries in {record['seconds']} s measured, "
          f"{record['failed']} failed, {n['setups']} set-up(s), "
          f"{n['traced']} traced, {record['wall_s']:.1f} s wall; timed "
          f"end-to-end metrics x host speed {record['host_speed']:.3f}")
    for section in ("end_to_end", "per_layer"):
        if record[section] is None:
            continue
        for name, meta in declared(spec, section).items():
            note = (f"  (n={n['measured']})" if name.endswith("_p50_ms")
                    else "")
            if section == "end_to_end" and name in record["as_measured"]:
                note += f"  as measured {record['as_measured'][name]:.4f}"
            print(f"  {name:42s} {record[section][name]:14.4f} "
                  f"{meta['unit']}{note}")
    print(f"  {'failed_share':42s} {record['failed_share']:14.4f} share")
    for error in record["errors"]:
        print(f"  error: {error}")


def contract_line(record, spec):
    """The driver's result line: end-to-end metrics untraced, per-layer
    metrics traced."""
    section = "per_layer" if record["trace"] else "end_to_end"
    return json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record[section][name],
                           "unit": meta["unit"]}
                    for name, meta in declared(spec, section).items()}})


def list_metrics(spec):
    for w in spec["workloads"]:
        print(f"workload   {w['name']:20s} {w['why']}")
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            bound = f"bound {m['bound']:.2f}" if "bound" in m else "no bound"
            print(f"{section:10s} {m['name']:42s} {m['unit']:8s} "
                  f"{m['better']:7s} {bound}")
    print(f"{'end_to_end':10s} {'failed_share':42s} {'share':8s} "
          f"{'lower':7s} no increase (failed / attempted of the result line)")


def run_all(spec, args, seed):
    """Every workload in a fresh interpreter; returns their records."""
    records = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + ["--quick"] * args.quick
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        record = None
        for line in out.stdout.splitlines():
            if line.startswith("RECORD "):
                record = json.loads(line[len("RECORD "):])
            elif not line.startswith("{"):
                print(line)
        if record is None:
            sys.exit(f"workload {w['name']} exited {out.returncode} "
                     f"without a result")
        records.append(record)
    return records


def repeat_check(spec, args):
    """Two full sets (two seeds each) of the same code against the bounds;
    returns how many metric x workload pairs moved by more than the bound."""
    sets = [[run_all(spec, args, args.seed + i) for i in range(2)]
            for _ in range(2)]
    over = 0
    for i, w in enumerate(spec["workloads"]):
        for name, meta in declared(spec, "end_to_end").items():
            first, second = (
                statistics.mean(run[i]["end_to_end"][name] for run in runs)
                for runs in sets)
            worse = (second - first) / first
            if meta["better"] == "higher":
                worse = -worse
            over += worse > meta["bound"]
            print(f"{w['name']:18s} {name:22s} {first:14.4f} -> "
                  f"{second:14.4f}  {worse:+8.2%} worse, bound "
                  f"{meta['bound']:.0%}"
                  f"{'  OVER BOUND' if worse > meta['bound'] else ''}")
    return over


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this one, in-process")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds data, weights, queries and HE contexts")
    parser.add_argument("--seconds", type=float,
                        help="measured phase (default: run_seconds of "
                             "BENCHMARK.json; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="a few queries per workload and one set-up")
    parser.add_argument("--list", action="store_true",
                        help="print every metric's name, unit, direction "
                             "and bound")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two full sets and compare them against "
                             "the bounds")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.list:
        list_metrics(spec)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.seconds is None:
        args.seconds = 2 if args.quick else spec["run_seconds"]
    if args.repeat_check:
        return 1 if repeat_check(spec, args) else 0
    if args.workload is None:
        return 1 if any(r["failed"] for r in run_all(spec, args, args.seed)) \
            else 0

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; choose from {names}")
    from benchmarks.e2e import driver

    record = asyncio.run(driver.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick))
    driver.RESULTS.mkdir(parents=True, exist_ok=True)
    with open(driver.RESULTS / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_record(record, spec)
    print("RECORD " + json.dumps(record))
    print(contract_line(record, spec))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
