"""The figure runner (``benchmarks/figures.py``) and its drift check.

Every paper report under ``benchmarks/results/`` comes from exactly one
``FIGURES`` row, and ``check`` names the file a one-character drift lands
in.  The full check (every row, ~20 s) is the ``figures`` tier-2 gate.
"""

import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import figures  # noqa: E402


def _row(name):
    return next(f for f in figures.FIGURES if f.name == name)


def test_every_report_comes_from_exactly_one_row():
    declared = [report for f in figures.FIGURES for report in f.reports]
    assert len(declared) == len(set(declared))
    committed = {path.name for path in figures.RESULTS_DIR.iterdir()
                 if path.suffix in (".txt", ".json")
                 and not path.name.startswith("BENCH_")
                 and path.name != "check_all_summary.json"}
    assert committed == set(declared)


def test_only_wall_clock_rows_are_timed():
    assert [f.name for f in figures.FIGURES if f.timed] == ["table1"]


def test_a_cheap_row_matches_its_committed_report():
    assert figures.check([_row("table3"), _row("sec47")]) == []


def test_a_one_character_drift_fails_and_names_the_file(tmp_path):
    committed = tmp_path / "results"
    shutil.copytree(figures.RESULTS_DIR, committed)
    path = committed / "table3_params.txt"
    line = path.read_text().splitlines()[2]
    planted = line.replace("262144", "262145")
    path.write_text(path.read_text().replace(line, planted))

    (problem,) = figures.check([_row("table3")], committed)
    assert "committed/table3_params.txt" in problem
    assert f"-{planted}\n+{line}\n" in problem


def test_a_failed_assertion_fails_the_check():
    def broken():
        assert False, "the paper's shape"

    row = figures.Figure(broken, ("broken.txt",))
    (problem,) = figures.check([row])
    assert problem.startswith("broken failed") and "the paper's shape" in problem
