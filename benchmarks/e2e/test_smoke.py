"""Smoke test of the e2e benchmark (about 40 s; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

``run.py --quick --traced`` must print, for every workload, every metric that
``BENCHMARK.json`` declares, and verify every result it measured.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_quick_traced_run_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]

    printed = {}            # workload -> {metric name: value}
    for line in out.stdout.splitlines():
        if not line.startswith(" "):
            current = printed.setdefault(line.split()[0], {})
        else:
            name, value = line.split()[:2]
            current[name] = float(value)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        missing = [n for n in declared if n not in printed[workload]]
        assert not missing, f"{workload} did not print {missing}"
        assert printed[workload]["failed_share"] == 0.0
    assert printed["knn_dimmajor"]["hecore.rotations"] == 0.0
