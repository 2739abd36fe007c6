"""The gates' committed records are written only on purpose.

Every gate script reads its record at ``--output`` and leaves it
byte-identical unless passed ``--record`` (``benchmarks/_gate.py``), so a
second run compares against the same numbers as the first; and
``check_all.py`` runs each gate on a scratch copy of its committed record
unless it is passed ``--record`` itself.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import _gate  # noqa: E402
import check_all  # noqa: E402


def _args(output, *extra):
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true")
    _gate.record_options(parser, output)
    return parser.parse_args(["--check", *extra])


def _gate_run(output, fast_s, *extra):
    return _gate.run_speedup_gate({"k": (1.0, fast_s)}, {"k": 1.0},
                                  ("naive", "fast"), {}, _args(output, *extra))


def test_a_gate_compares_against_its_record_and_leaves_it(tmp_path):
    record = tmp_path / "BENCH_x.json"
    assert _gate_run(record, 0.25, "--record") == 0        # 4.0x recorded
    committed = record.read_bytes()
    assert json.loads(committed)["kernels"]["k"]["speedup"] == 4.0
    # 2.5x clears the floor but is more than 20 % below the record; 3.5x
    # is within it.  Neither run rewrites the record.
    assert _gate_run(record, 0.4) == 1
    assert _gate_run(record, 1 / 3.5) == 0
    assert record.read_bytes() == committed


def test_check_all_runs_gates_on_a_scratch_copy(tmp_path):
    committed = BENCH_DIR / "results" / "BENCH_hoisting.json"
    args, path = check_all._record_args("bench_hoisting.py", False, tmp_path)
    assert args == ["--output", str(path), "--record"]
    assert path.parent == tmp_path
    assert path.read_bytes() == committed.read_bytes()
    assert check_all._record_args("bench_hoisting.py", True, tmp_path) == (
        ["--record"], committed)
    assert check_all._record_args("figures.py", False, tmp_path) == ([], None)
    assert sorted(check_all.RECORDS) == sorted(
        gate for gate, _ in check_all.GATES if gate != "figures.py")
