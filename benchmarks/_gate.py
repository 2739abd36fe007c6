"""The speedup-gate harness shared by the paired-implementation benches,
and the record options every gate shares.

``bench_hoisting``, ``bench_ir``, ``bench_level_planner`` and
``bench_client_crypto`` each time a baseline against an optimized
implementation of the same work and gate the ratio twice: against a fixed
per-kernel floor, and against the committed record of the same JSON
file.  The timing discipline and the gate loop live here once.

Every gate reads its committed record and leaves it byte-identical: only
``--record`` rewrites it (:func:`record_options`, :func:`save_record`), so
a second run compares against the same numbers as the first.
"""

import json
import sys
import time
from pathlib import Path

#: A kernel may lose this share of its previously recorded speedup.
REGRESSION_TOLERANCE = 0.20


def record_options(parser, default: Path) -> None:
    """``--output``, the committed record a run compares against, and
    ``--record``, the one way to rewrite it with the run."""
    parser.add_argument(
        "--output", type=Path, default=default,
        help="the recorded run to compare against (rewritten by --record)")
    parser.add_argument(
        "--record", action="store_true",
        help="write this run to --output; without it nothing is written")


def load_record(output: Path):
    """The record at *output*, or ``None`` before the first one."""
    return json.loads(output.read_text()) if output.exists() else None


def save_record(report, args) -> None:
    """Write *report* to ``args.output`` when ``args.record`` is set."""
    if not args.record:
        print(f"not recorded: {args.output} is unchanged (--record writes it)")
        return
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")


def best_of_pair(base_fn, fast_fn, reps, rounds=6):
    """Seconds-per-op for both implementations, interleaving their timing
    windows so background load drift hits each side equally, and taking the
    fastest window per side."""
    base_fn()  # warm caches / NTT plans / encoded plaintexts
    fast_fn()
    bests = [float("inf"), float("inf")]
    for _ in range(rounds):
        for i, fn in enumerate((base_fn, fast_fn)):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            bests[i] = min(bests[i], (time.perf_counter() - start) / reps)
    return tuple(bests)


def run_speedup_gate(measurements, floors, labels, extra, args):
    """Report, gate and (with ``--record``) record ``{kernel: (base_s,
    fast_s)}``.

    *floors* maps each kernel to its minimum speedup, *labels* names the
    two sides (``("naive", "hoisted")`` → the ``naive_ms`` / ``hoisted_ms``
    record keys), *extra* is the record's header (everything beside
    ``tolerance`` and ``kernels``), *args* the parsed ``--check`` and
    :func:`record_options`.  Returns the process exit code: 1 when
    ``--check`` is set and a kernel misses its floor or falls more than
    :data:`REGRESSION_TOLERANCE` below the speedup ``--output`` records.
    """
    previous = (load_record(args.output) or {}).get("kernels", {})

    base_label, fast_label = labels
    report = {**extra, "tolerance": REGRESSION_TOLERANCE, "kernels": {}}
    failures = []
    for name, (base_s, fast_s) in measurements.items():
        speedup = base_s / fast_s
        floor = floors[name]
        report["kernels"][name] = {
            f"{base_label}_ms": round(1e3 * base_s, 3),
            f"{fast_label}_ms": round(1e3 * fast_s, 3),
            "speedup": round(speedup, 3),
            "min_speedup": floor,
        }
        print(f"  {name:18s} {base_label} {1e3 * base_s:9.2f} ms   "
              f"{fast_label} {1e3 * fast_s:9.2f} ms   {speedup:5.2f}x "
              f"(floor {floor:.2f}x)")
        if speedup < floor:
            failures.append(f"{name}: {speedup:.2f}x is below the required "
                            f"{floor:.2f}x speedup")
        reference = previous.get(name, {}).get("speedup")
        if (reference is not None
                and speedup < reference * (1.0 - REGRESSION_TOLERANCE)):
            failures.append(
                f"{name}: {speedup:.2f}x is more than "
                f"{REGRESSION_TOLERANCE:.0%} below the recorded run "
                f"({reference:.2f}x)")

    save_record(report, args)
    if args.check and failures:
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    return 0
