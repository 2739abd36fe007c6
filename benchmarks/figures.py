"""One runner for the paper's tables and figures.

``FIGURES`` holds one row per table or figure of the paper's evaluation.
A row calls its generator (mostly :mod:`repro.experiments`), renders the
rows the paper reports, asserts the paper's shape (who wins, by roughly
what factor, where crossovers fall) and returns ``{report file: lines or
json data}``.  Absolute numbers come from this repository's simulators
(DESIGN.md's substitution table).  Every report is a pure function of the
code except the rows marked ``timed``, whose numbers are wall-clock.  Each
row builds its own contexts and starts with an empty shared schedule
cache, so no report depends on which rows ran before it.

This runner is the one place that writes the reports under
``benchmarks/results/``::

    python benchmarks/figures.py           # regenerate every report
    python benchmarks/figures.py --check   # regenerate in memory and diff

``--check`` exits 1 with a unified diff when an untimed report differs
from the committed file by one byte, or when a row's assertion fails
(``benchmarks/check_all.py --only figures`` runs it as a gate).
"""

import argparse
import difflib
import json
import math
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Tuple

import numpy as np

from repro.core import ir

RESULTS_DIR = Path(__file__).parent / "results"


class Figure(NamedTuple):
    """One row of :data:`FIGURES`, named after its *build* function."""

    build: Callable[[], dict]
    #: the report files *build* returns, each ``.txt`` (lines) or ``.json``
    reports: Tuple[str, ...]
    #: wall-clock numbers: regenerated and asserted, never diffed
    timed: bool = False

    @property
    def name(self) -> str:
        return self.build.__name__


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def format_table(headers, rows) -> list:
    """Fixed-width table lines, headers first."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for i, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def ascii_scatter(xs, ys, width: int = 64, height: int = 18,
                  logx: bool = False, logy: bool = False,
                  marks=None, xlabel: str = "x", ylabel: str = "y") -> list:
    """An ASCII scatter plot; *marks* gives one character per point."""
    def tx(v, log):
        return math.log10(v) if log else v

    pts = [(tx(x, logx), tx(y, logy)) for x, y in zip(xs, ys)]
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for i, (px, py) in enumerate(pts):
        col = int((px - x_lo) / x_span * (width - 1))
        row = (height - 1) - int((py - y_lo) / y_span * (height - 1))
        grid[row][col] = marks[i] if marks else "*"
    lines = [f"{ylabel}  (top={max(ys):.3g}, bottom={min(ys):.3g}"
             f"{', log' if logy else ''})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f"  {xlabel}: {min(xs):.3g} .. {max(xs):.3g}"
                 f"{' (log)' if logx else ''}")
    return lines


def _render(name: str, body) -> str:
    if name.endswith(".json"):
        return json.dumps(body, indent=2) + "\n"
    return "\n".join(body) + "\n"


def _near(value, expected, rel) -> bool:
    """``value`` within *rel* of *expected* (relative to *expected*)."""
    return abs(value - expected) <= rel * abs(expected)


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _time(fn, repeats=3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1() -> dict:
    """Table 1: HE operation cost ordering (adds are linear, multiplies and
    rotations carry NTT / key-switching costs) and noise-growth classes,
    timed on the functional BFV scheme; encrypt is O(N log N x r)."""
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    ctx = BfvContext(small_test_parameters(SchemeType.BFV, poly_degree=2048,
                                           plain_bits=18, data_bits=(30, 30)),
                     seed=11)
    ctx.make_galois_keys([1])
    rng = np.random.default_rng(0)
    values = rng.integers(0, ctx.params.plain_modulus, ctx.params.poly_degree,
                          dtype=np.int64)
    pt = ctx.encode(values)
    ct = ctx.encrypt(values)
    ct2 = ctx.encrypt(np.roll(values, 3))
    ctx.relin_keys()
    times = {
        "Encrypt": _time(lambda: ctx.encrypt(pt)),
        "Decrypt": _time(lambda: ctx.decrypt(ct)),
        "Plaintext Add": _time(lambda: ctx.add_plain(ct, pt)),
        "Ciphertext Add": _time(lambda: ctx.add(ct, ct2)),
        "Plaintext Multiply": _time(lambda: ctx.multiply_plain(ct, pt)),
        "Ciphertext Multiply": _time(lambda: ctx.multiply(ct, ct2), repeats=1),
        "Ciphertext Rotate": _time(lambda: ctx.rotate_rows(ct, 1)),
    }
    fresh = ctx.noise_budget(ct)
    growth = {op: fresh - ctx.noise_budget(out) for op, out in (
        ("Plaintext Add", ctx.add_plain(ct, pt)),
        ("Ciphertext Add", ctx.add(ct, ct2)),
        ("Plaintext Multiply", ctx.multiply_plain(ct, pt)),
        ("Ciphertext Multiply", ctx.multiply(ct, ct2)),
        ("Ciphertext Rotate", ctx.rotate_rows(ct, 1)),
    )}
    rows = [(op, f"{t * 1e3:.3f} ms", growth.get(op, "N/A"))
            for op, t in times.items()]

    # Complexity ordering: adds are O(N*r), everything else carries NTTs.
    assert times["Ciphertext Add"] < times["Plaintext Multiply"]
    assert times["Plaintext Add"] < times["Plaintext Multiply"]
    assert times["Plaintext Multiply"] < times["Ciphertext Multiply"]
    # Noise classes: small / moderate / large (Table 1's last column).
    assert growth["Ciphertext Add"] <= 2
    assert growth["Ciphertext Rotate"] <= 4
    assert growth["Plaintext Add"] <= 2
    assert growth["Plaintext Multiply"] > growth["Ciphertext Add"]
    assert growth["Ciphertext Multiply"] >= growth["Plaintext Multiply"]

    scaling = {}
    for n in (1024, 2048, 4096):
        params = small_test_parameters(SchemeType.BFV, poly_degree=n,
                                       plain_bits=16, data_bits=(30, 30))
        small = BfvContext(params, seed=n)
        plain = small.encode([1, 2, 3])
        scaling[n] = _time(lambda: small.encrypt(plain))
    assert scaling[4096] > scaling[1024]

    return {
        "table1_ops.txt": format_table(
            ["Operation", "Time", "Noise growth (bits)"], rows),
        "table1_encrypt_scaling.txt": [
            f"N={n}: {t * 1e3:.2f} ms" for n, t in scaling.items()],
    }


def table3() -> dict:
    """Table 3: the published ciphertext sizes (262,144 B for sets A and C,
    131,072 B for B), and §5.3's halving of SEAL's default at N=8192."""
    from repro.hecore.params import (
        EncryptionParameters, PARAMETER_SET_A, PARAMETER_SET_B,
        PARAMETER_SET_C, SchemeType, seal_default_parameters)

    sets = [PARAMETER_SET_A, PARAMETER_SET_B, PARAMETER_SET_C]
    rows = [(p.label, p.scheme.value.upper(), p.poly_degree,
             p.total_coeff_bits, list(p.logical_coeff_bits),
             p.plain_bits or "N/A", p.ciphertext_bytes()) for p in sets]
    default = seal_default_parameters(8192)

    assert PARAMETER_SET_A.ciphertext_bytes() == 262144
    assert PARAMETER_SET_B.ciphertext_bytes() == 131072
    assert PARAMETER_SET_C.ciphertext_bytes() == 262144
    # All chosen for at least 128-bit security (construction-enforced).
    assert PARAMETER_SET_A.total_coeff_bits == 175
    assert PARAMETER_SET_B.total_coeff_bits == 109
    assert PARAMETER_SET_C.total_coeff_bits == 180
    assert (PARAMETER_SET_A.ciphertext_bytes()
            == default.ciphertext_bytes() // 2)
    # A set created from its bit widths (prime search included) sizes alike.
    assert EncryptionParameters.create(
        SchemeType.BFV, 4096, (36, 36, 37), 18).ciphertext_bytes() == 131072

    return {
        "table3_params.txt": format_table(
            ["Label", "Scheme", "N", "log2 q", "{k}", "log2 t",
             "Size (Bytes)"], rows),
        "table3_vs_default.txt": [
            f"SEAL default (N=8192, k={default.logical_residue_count}): "
            f"{default.ciphertext_bytes()} B",
            f"CHOCO set A  (N=8192, k={PARAMETER_SET_A.logical_residue_count}): "
            f"{PARAMETER_SET_A.ciphertext_bytes()} B",
        ],
    }


def table4() -> dict:
    """Table 4: measured noise budgets for the six (N, log2 t) rows.  A
    windowed rotation by rotational redundancy costs about one rotation; the
    masked permutation costs ~log2(t) bits and exhausts (4096, t=20).
    Exhausting the budget renders data undecryptable (§2.1)."""
    from repro.experiments.noise_budgets import (
        TABLE4_PUBLISHED, TABLE4_ROWS, table4_noise_budgets)
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import EncryptionParameters, SchemeType

    measured = table4_noise_budgets()
    rows = []
    for (n, t), (init, rot, perm) in measured.items():
        pub = TABLE4_PUBLISHED[(n, t)]
        rows.append((n, t, init, rot, perm, f"{pub[0]}/{pub[1]}/{pub[2]}"))

    for (n, t), (init, rot, perm) in measured.items():
        logical = next(b for nn, tt, b in TABLE4_ROWS if (nn, tt) == (n, t))
        data_bits = sum(logical[:-1])
        # Initial budget tracks log2(q_data) - 2*log2(t) - c; the constant
        # differs a few bits from SEAL's exact noise bound.
        assert abs(init - (data_bits - 2 * t - 7)) <= 14, (n, t, init)
        # Rotational redundancy: noise synonymous with a single rotation.
        assert 0 <= init - rot <= 6, (n, t)
        # Masked permutation burns ~log2(t) bits (two masking multiplies).
        assert rot - perm >= t - 6, (n, t)
        assert init >= rot > perm
    # The budget slope in t is -2 bits per plaintext bit, as in Table 4.
    assert abs(measured[(8192, 20)][0] - measured[(8192, 28)][0] - 16) <= 6
    assert abs(measured[(4096, 16)][0] - measured[(4096, 20)][0] - 8) <= 6
    # The tightest row (4096, t=20) is (nearly) exhausted, as published.
    assert measured[(4096, 20)][2] <= 6

    ctx = BfvContext(EncryptionParameters.create(
        SchemeType.BFV, 4096, (36, 36, 37), plain_bits=20), seed=99)
    values = np.arange(1, 9, dtype=np.int64)
    ct = ctx.encrypt(values)
    pt = ctx.encode(np.full(8, 3, dtype=np.int64))
    while ctx.noise_budget(ct) > 0:
        ct = ctx.multiply_plain(ct, pt)
    assert not np.array_equal(ctx.decrypt(ct)[:8] % ctx.params.plain_modulus,
                              values)

    return {"table4_noise.txt": format_table(
        ["N", "log2 t", "Initial", "Post-Rotate", "Post-Permute",
         "Published (I/R/P)"], rows)}


def table5() -> dict:
    """Table 5: layer census, MACs, model sizes and per-inference
    communication of the four networks beside the published values
    (accuracy columns are the published reference, DESIGN.md)."""
    from repro.experiments import table5_rows
    from repro.nn.models import TABLE5_REFERENCE

    table = table5_rows()
    rows = []
    for name, d in table.items():
        ref = TABLE5_REFERENCE[name]
        c = d["census"]
        rows.append((
            name, f"{c['conv']}/{c['fc']}/{c['act']}/{c['pool']}",
            f"{d['macs_e6']:.2f} ({ref['macs_e6']})",
            "/".join(str(a) for a in ref["acc"]),
            f"{d['float_mb']:.2f} ({ref['size_mb'][0]})",
            f"{d['fourbit_mb']:.2f} ({ref['size_mb'][1]})",
            f"{d['comm_mb']:.2f} ({ref['comm_mb']})",
            d["params"],
        ))

    for name, d in table.items():
        ref = TABLE5_REFERENCE[name]
        assert d["census"] == ref["layers"], name
        assert abs(d["macs_e6"] - ref["macs_e6"]) / ref["macs_e6"] < 0.03, name
        assert ref["comm_mb"] / 2 < d["comm_mb"] < ref["comm_mb"] * 2, name
    # Communication ordering follows network scale.
    comm = {k: v["comm_mb"] for k, v in table.items()}
    assert comm["LeNetSm"] < comm["LeNetLg"] < comm["SqzNet"] < comm["VGG16"]

    return {"table5_networks.txt": format_table(
        ["Network", "Cnv/FC/Act/Pl", "MACs e6 (pub)", "% Acc (pub)",
         "Float MB (pub)", "4b MB (pub)", "Comm MB (pub)", "Params"], rows)}


def layer_plans() -> dict:
    """The round-by-round protocol plan (uploads, downloads, server
    rotations, MACs) that Table 5, Figure 12 and Figure 15 integrate."""
    from repro.apps.dnn import ClientAidedDnnPlan
    from repro.nn.models import NETWORK_BUILDERS

    plans = {name: ClientAidedDnnPlan(build())
             for name, build in NETWORK_BUILDERS.items()}
    lines = []
    for plan in plans.values():
        lines += [plan.describe(), ""]

    for plan in plans.values():
        # Round accounting must tie out with the aggregates.
        assert sum(r.up_cts for r in plan.rounds) == plan.encrypt_ops
        assert sum(r.down_cts for r in plan.rounds) == plan.decrypt_ops
        macs = sum(r.macs for r in plan.rounds)
        assert _near(macs, plan.network.total_macs(), 0.01)
        # Every round moves at least one ciphertext each way.
        for rnd in plan.rounds:
            assert rnd.up_cts >= 1 and rnd.down_cts >= 1
    # The round counts follow network depth.
    assert (len(plans["VGG16"].rounds) > len(plans["SqzNet"].rounds)
            > len(plans["LeNetSm"].rounds))

    return {"layer_plans.txt": lines}


# ---------------------------------------------------------------------------
# The accelerator: Figures 2, 7, 8 and §4.6 / §4.7
# ---------------------------------------------------------------------------

def fig2() -> dict:
    """Figure 2: >99% of client compute is HE, and even with HEAX / FPGA
    assistance client-aided crypto loses to local TFLite (14.5x)."""
    from repro.experiments import seal_baseline_breakdown

    data = seal_baseline_breakdown()
    rows = [
        (name, f"{d['software']:.3f}", f"{d['heax']:.3f}", f"{d['fpga']:.3f}",
         f"{d['app'] * 1e3:.3f} ms", f"{d['local'] * 1e3:.1f} ms",
         f"{100 * d['crypto_sw'] / d['software']:.2f}%")
        for name, d in data.items()
    ]
    for name, d in data.items():
        assert d["crypto_sw"] / d["software"] > 0.99, name
        # Partial hardware helps but is bounded by Amdahl.
        assert d["heax"] < d["software"]
        assert d["software"] / d["heax"] < 1 / (1 - 0.60) + 0.1
        assert d["heax"] > d["local"], name
    mean_ratio = sum(d["heax"] / d["local"] for d in data.values()) / len(data)
    assert mean_ratio > 5

    return {
        "fig2_breakdown.txt": format_table(
            ["Network", "SEAL sw (s)", "+HEAX (s)", "+FPGA (s)", "App ops",
             "TFLite local", "HE share"], rows),
        "fig2_summary.txt": [
            f"HEAX-assisted / local, mean across networks: {mean_ratio:.1f}x "
            f"(published: 14.5x)"],
    }


def fig7() -> dict:
    """Figure 7: the 32,000-point design-space sweep (the paper's 31,340)
    and the §4.4 operating point (<= 200 mW, smallest design within 1% of
    the optimal time): published 19.3 mm^2, 0.1228 mJ, 0.66 ms."""
    from repro.accel.dse import (POWER_LIMIT_W, explore_design_space,
                                 pareto_frontier, select_operating_point)

    points = explore_design_space()
    powers = [p.power_w for p in points]
    areas = [p.area_mm2 for p in points]
    times = [p.time_s for p in points]
    selected = select_operating_point(points)
    # Pareto frontier on a thinned subset (full O(n^2) is unnecessary here).
    sample = sorted(points, key=lambda p: p.time_s)[:: max(1, len(points) // 400)]
    frontier = pareto_frontier(sample)
    cloud = points[:: max(1, len(points) // 900)] + [selected]

    assert 30000 <= len(points) <= 33000
    # Area varies less than power: the working buffers are a fixed floor.
    assert max(powers) / min(powers) > 3
    assert max(areas) / min(areas) > 2
    # The selected point sits at the published corner of the space.
    assert selected.power_w <= POWER_LIMIT_W
    assert 0.4e-3 < selected.time_s < 0.9e-3
    assert 14 < selected.area_mm2 < 25
    assert 0.08e-3 < selected.energy_j < 0.16e-3

    return {
        "fig7_dse.txt": [
            f"configurations swept: {len(points)} (paper: 31,340)",
            f"power range:  {min(powers) * 1e3:8.1f} .. {max(powers) * 1e3:8.1f} mW",
            f"area  range:  {min(areas):8.2f} .. {max(areas):8.2f} mm^2",
            f"time  range:  {min(times) * 1e3:8.3f} .. {max(times) * 1e3:8.3f} ms",
            f"pareto points (sampled): {len(frontier)}",
            "",
            "operating point (power<=200mW, time within 1%, min area):",
            f"  config: {selected.config.as_dict()}",
            f"  time {selected.time_s * 1e3:.3f} ms | energy "
            f"{selected.energy_j * 1e3:.4f} mJ | area {selected.area_mm2:.1f} mm^2 "
            f"| power {selected.power_w * 1e3:.0f} mW",
            "",
            "published: 0.66 ms | 0.1228 mJ | 19.3 mm^2 | <=200 mW",
        ],
        "fig7_scatter.txt": ascii_scatter(
            [p.time_s * 1e3 for p in cloud], [p.power_w * 1e3 for p in cloud],
            marks=["." for _ in cloud[:-1]] + ["O"], logx=True,
            xlabel="encryption time (ms)", ylabel="power (mW)"),
    }


def fig8() -> dict:
    """Figure 8: CHOCO-TACO vs IMX6 software encryption across (N, k).
    Hardware time scales with N, software with N and k, so the speedup grows
    with k ("up to 1094x"); (32768, 16) does not fit the client (§4.5)."""
    from repro.experiments import scaling_study

    rows = scaling_study()
    table = []
    for r in rows:
        if r["sw_time"] is None:
            sw_t, sw_e, sp_t, sp_e = "OOM", "OOM", "-", "-"
        else:
            sw_t = f"{r['sw_time'] * 1e3:.1f} ms"
            sw_e = f"{r['sw_energy'] * 1e3:.2f} mJ"
            sp_t = f"{r['sw_time'] / r['hw_time']:.0f}x"
            sp_e = f"{r['sw_energy'] / r['hw_energy']:.0f}x"
        table.append((f"({r['n']},{r['k']})", f"{r['hw_time'] * 1e3:.3f} ms",
                      f"{r['hw_energy'] * 1e6:.1f} uJ", sw_t, sw_e, sp_t, sp_e))

    by_point = {(r["n"], r["k"]): r for r in rows}
    # Published anchor at the CHOCO configuration (8192, 3): 417x / 603x.
    anchor = by_point[(8192, 3)]
    assert _near(anchor["sw_time"] / anchor["hw_time"], 417, 0.05)
    assert _near(anchor["sw_energy"] / anchor["hw_energy"], 603, 0.05)
    assert by_point[(32768, 16)]["sw_time"] is None
    sp = {p: r["sw_time"] / r["hw_time"] for p, r in by_point.items()
          if r["sw_time"] is not None}
    assert sp[(8192, 5)] > sp[(8192, 3)]
    assert sp[(4096, 3)] > sp[(4096, 2)]
    assert sp[(16384, 9)] > 600
    assert (by_point[(16384, 9)]["hw_time"]
            / by_point[(4096, 3)]["hw_time"]) < 6

    return {
        "fig8_scaling.json": rows,
        "fig8_scaling.txt": format_table(
            ["(N,k)", "TACO time", "TACO energy", "SW time", "SW energy",
             "Speedup", "Energy save"], table),
    }


def sec46() -> dict:
    """§4.6: decryption takes 0.65 ms at (8192, 3), 125x over software, and
    benefits less than encryption (fewer parallel polynomials)."""
    from repro.experiments import decryption_comparison

    result = decryption_comparison()
    assert _near(result["hw_decrypt_s"], 0.65e-3, 0.05)
    assert _near(result["decrypt_speedup"], 125, 0.08)
    assert result["encrypt_speedup"] > result["decrypt_speedup"]
    return {"sec46_decryption.txt": [
        f"TACO decrypt: {result['hw_decrypt_s'] * 1e3:.3f} ms (published 0.65 ms)",
        f"speedup vs software: {result['decrypt_speedup']:.0f}x (published 125x)",
    ]}


def sec47() -> dict:
    """§4.7: the BFV datapath covers 95% of CKKS encode+encrypt and 56% of
    decode+decrypt: 310 -> 18 ms (~18x) and 37 -> 16 ms (~2.3x) at set C."""
    from repro.accel.ckks_support import (
        CKKS_DECRYPT_COVERAGE, CKKS_ENCRYPT_COVERAGE, CkksAcceleration)
    from repro.platforms.client_device import Imx6SoftwareClient

    accel = CkksAcceleration()
    enc = accel.encrypt_encode_time()
    dec = accel.decrypt_decode_time()
    client = Imx6SoftwareClient()
    sw_enc = client.ckks_encrypt_time(8192, 3)
    sw_dec = client.ckks_decrypt_time(8192, 3)

    assert _near(enc, 18e-3, 0.05)
    assert _near(dec, 16e-3, 0.05)
    assert _near(sw_enc / enc, 18, 0.1)
    assert _near(sw_dec / dec, 2.3, 0.1)
    # Decryption's un-accelerated 44% bounds its speedup (Amdahl).
    assert sw_dec / dec < 1 / (1 - CKKS_DECRYPT_COVERAGE)

    return {"sec47_ckks.txt": [
        f"coverage: encrypt {CKKS_ENCRYPT_COVERAGE:.0%}, "
        f"decrypt {CKKS_DECRYPT_COVERAGE:.0%}",
        f"encode+encrypt: {sw_enc * 1e3:.0f} ms -> {enc * 1e3:.1f} ms "
        f"({sw_enc / enc:.1f}x; published 310 -> 18, ~18x)",
        f"decode+decrypt: {sw_dec * 1e3:.0f} ms -> {dec * 1e3:.1f} ms "
        f"({sw_dec / dec:.2f}x; published 37 -> 16, ~2.3x)",
    ]}


# ---------------------------------------------------------------------------
# Applications: Figures 10-15
# ---------------------------------------------------------------------------

def fig10() -> dict:
    """Figure 10: single-image communication of LeNet-Large and SqueezeNet
    against prior protocols: 14x (LoLa) up to 2948x, ~90x vs Gazelle."""
    from repro.baselines.mpc import (derived_delphi_class_comm_mb,
                                     derived_gazelle_class_comm_mb)
    from repro.baselines.protocols import protocols_for
    from repro.experiments import figure10_comparison
    from repro.nn.models import NETWORK_BUILDERS

    data = figure10_comparison()
    rows = []
    for (net, dataset), (choco_mb, ratios) in data.items():
        for proto in protocols_for(dataset):
            rows.append((dataset, proto.name, proto.technology,
                         f"{proto.comm_mb:.1f}", f"{choco_mb:.2f} ({net})",
                         f"{ratios[proto.name]:.0f}x"))

    all_ratios = []
    for (_, dataset), (_, ratios) in data.items():
        all_ratios.extend(ratios.values())
        for name, r in ratios.items():
            assert r > 10, (dataset, name, r)
    assert min(all_ratios) > 8
    assert max(all_ratios) > 1000
    # Gazelle/CIFAR is the closest comparable: tens of x, not thousands.
    _, (sqz_mb, cifar_ratios) = next(
        item for item in data.items() if item[0][1] == "CIFAR-10")
    assert 30 < cifar_ratios["Gazelle"] < 200
    # The garbled-circuit model derives the hybrid baselines' magnitudes.
    sqz = NETWORK_BUILDERS["SqzNet"]()
    derived_gazelle = derived_gazelle_class_comm_mb(sqz)
    derived_delphi = derived_delphi_class_comm_mb(sqz)
    assert derived_gazelle / sqz_mb > 10
    assert derived_delphi > derived_gazelle

    return {
        "fig10_comm.txt": format_table(
            ["Dataset", "Protocol", "Tech", "Prior MB", "CHOCO MB",
             "Improvement"], rows),
        "fig10_derived.txt": [
            f"Gazelle-class (derived GC model): {derived_gazelle:8.0f} MB "
            f"(published 1236)",
            f"Delphi-class  (derived GC model): {derived_delphi:8.0f} MB "
            f"(published 40690)",
            f"CHOCO (measured, this repo):      {sqz_mb:8.1f} MB",
        ],
    }


def _small_ckks():
    from repro.hecore.ckks import CkksContext
    from repro.hecore.params import SchemeType, small_test_parameters

    return CkksContext(small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                             data_bits=(30, 24, 24)), seed=12)


def _counted(ctx, fn):
    """``fn()`` and the op counts it charged to *ctx*."""
    before = dict(ctx.counts)
    out = fn()
    return out, {op: ctx.counts[op] - before.get(op, 0) for op in ctx.counts}


def fig11() -> dict:
    """Figure 11: the five distance-kernel packings run functionally and
    costed at set C.  The collapsed point-major kernel minimises client time
    and communication by spending extra masking multiplies on the server."""
    from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
    from repro.core.protocol import ClientCostModel
    from repro.hecore.params import PARAMETER_SET_C
    from repro.platforms.server import XeonServer

    cases = [(4, 32), (16, 16), (32, 8)]     # (dims, points)
    ctx = _small_ckks()
    server = XeonServer()
    client = ClientCostModel.software(PARAMETER_SET_C)
    ct_bytes = PARAMETER_SET_C.ciphertext_bytes()
    n8, k8 = PARAMETER_SET_C.poly_degree, PARAMETER_SET_C.logical_data_residues
    results = {}
    rng = np.random.default_rng(0)
    for dims, n_points in cases:
        points = rng.uniform(-1, 1, (n_points, dims))
        query = rng.uniform(-1, 1, dims)
        for name, cls in KERNEL_VARIANTS.items():
            kernel = cls(ctx, DistanceProblem(n_points=n_points, dims=dims))
            ctx.make_galois_keys(kernel.required_rotation_steps())
            point_cts = kernel.encrypt_points(points)
            query_cts = [ctx.encrypt(v) for v in kernel.pack_query(query)]
            outs, delta = _counted(
                ctx, lambda: kernel.compute(point_cts, query_cts))
            got = kernel.decode([np.real(ctx.decrypt(ct)) for ct in outs])
            assert np.allclose(got, kernel.reference(points, query), atol=0.1), name
            results[(dims, n_points, name)] = {
                "up_cts": len(query_cts),
                "down_cts": len(outs),
                "server_s": server.time_for_counts(delta, n8, k8),
                "client_s": (len(query_cts) * client.encrypt_s
                             + len(outs) * client.decrypt_s),
                "comm_b": (len(query_cts) + len(outs)) * ct_bytes,
            }
    rows = [(f"{d}x{n}", name, r["up_cts"], r["down_cts"],
             f"{r['server_s'] * 1e3:.1f} ms", f"{r['client_s'] * 1e3:.0f} ms",
             f"{r['comm_b'] / 1e6:.2f} MB")
            for (d, n, name), r in results.items()]

    for dims, n_points in cases:
        by_name = {name: results[(dims, n_points, name)]
                   for name in KERNEL_VARIANTS}
        collapsed = by_name["collapsed"]
        for name, r in by_name.items():
            assert collapsed["comm_b"] <= r["comm_b"], (dims, n_points, name)
            assert collapsed["client_s"] <= r["client_s"], (dims, n_points, name)
        # ... bought with extra server work vs its stacked sibling.
        assert collapsed["server_s"] > by_name["stacked-point"]["server_s"]
        # Point-major sends one output ciphertext per point.
        if n_points > 4:
            assert by_name["point-major"]["down_cts"] == n_points
            assert by_name["point-major"]["comm_b"] > collapsed["comm_b"]

    return {"fig11_distance.txt": format_table(
        ["dims x pts", "Variant", "Up", "Down", "Server", "Client", "Comm"],
        rows)}


def fig12() -> dict:
    """Figure 12: active client compute per network.  CHOCO-sw beats the
    SEAL baseline ~1.7x, CHOCO-TACO beats CHOCO-sw ~121x, assisted software
    stays ~14.5x slower than local, and with TACO the client is ~2.2x
    faster than local inference."""
    from repro.experiments import client_time_characterization

    data = client_time_characterization()
    columns = ["seal_baseline", "choco_sw", "choco_heax", "choco_fpga",
               "choco_taco", "local"]
    rows = [(name, *(f"{d[c] * 1e3:.1f}" for c in columns))
            for name, d in data.items()]
    sw_gain = _geomean([d["seal_baseline"] / d["choco_sw"] for d in data.values()])
    taco_gain = _geomean([d["choco_sw"] / d["choco_taco"] for d in data.values()])
    local_vs_taco = _geomean([d["local"] / d["choco_taco"] for d in data.values()])
    assisted_vs_local = _geomean([d["choco_heax"] / d["local"]
                                  for d in data.values()])

    for name, d in data.items():
        assert d["choco_taco"] < d["choco_heax"] < d["choco_sw"], name
        assert d["choco_sw"] <= d["seal_baseline"] * 1.001, name
    assert 1.2 < sw_gain < 4
    assert 60 < taco_gain < 250
    assert assisted_vs_local > 3
    assert local_vs_taco > 1.0

    return {
        "fig12_client_time.json": data,
        "fig12_client_time.txt": format_table(
            ["Network (ms)", "SEAL base", "CHOCO sw", "+HEAX", "+FPGA",
             "+TACO", "TFLite"], rows),
        "fig12_summary.txt": [
            f"CHOCO-sw vs SEAL baseline (geomean): {sw_gain:.2f}x (published avg 1.7x)",
            f"TACO vs CHOCO-sw (geomean): {taco_gain:.0f}x (published avg 121x)",
            f"TACO vs local (geomean): {local_vs_taco:.2f}x faster (published avg 2.2x)",
            f"HEAX-assisted vs local: {assisted_vs_local:.1f}x slower (published 14.5x)",
        ],
    }


def fig13() -> dict:
    """Figure 13: PageRank communication per refresh schedule.  CKKS reaches
    each segment depth with smaller parameters than BFV, frequent small
    ciphertexts beat one deep encrypted segment, and every client-optimal
    schedule fits CHOCO-TACO's (N <= 8192, k <= 3) envelope (§5.6)."""
    from repro.apps.pagerank import sweep_schedules
    from repro.hecore.params import SchemeType

    totals, nodes = (6, 12, 24, 48), 64
    data = {(scheme, total): sweep_schedules(total, nodes, scheme)
            for scheme in (SchemeType.BFV, SchemeType.CKKS) for total in totals}
    rows = [(scheme.value.upper(), total, p.segment,
             f"N={p.choice.poly_degree},k={p.choice.residue_count}",
             f"{p.communication_bytes / 1e6:.2f} MB",
             "*" if p.taco_compatible else "")
            for (scheme, total), points in data.items()
            for p in sorted(points, key=lambda x: x.segment)]
    cloud = data[(SchemeType.BFV, 24)] + data[(SchemeType.CKKS, 24)]

    for total in totals:
        bfv = {p.segment: p for p in data[(SchemeType.BFV, total)]}
        ckks = {p.segment: p for p in data[(SchemeType.CKKS, total)]}
        # CKKS fits every schedule BFV fits, at most the same communication.
        for segment, bp in bfv.items():
            assert segment in ckks
            assert (ckks[segment].communication_bytes
                    <= bp.communication_bytes), (total, segment)
        best = min(ckks.values(), key=lambda p: (
            p.communication_bytes, p.choice.residue_count, p.choice.poly_degree))
        full = ckks.get(total)
        if total >= 12:
            assert best.segment < total
            assert best.taco_compatible
            # A deep fully-encrypted segment does not fit, or costs more.
            assert full is None or (full.communication_bytes
                                    >= best.communication_bytes)
    # BFV's compounding fixed-point scales exhaust secure parameters on deep
    # segments where CKKS (rescaling) still fits.
    bfv_48 = {p.segment for p in data[(SchemeType.BFV, 48)]}
    ckks_48 = {p.segment for p in data[(SchemeType.CKKS, 48)]}
    assert bfv_48 < ckks_48

    return {
        "fig13_pagerank.txt": format_table(
            ["Scheme", "Total iters", "Segment", "Params", "Comm",
             "TACO-ok"], rows),
        "fig13_scatter.txt": ascii_scatter(
            [p.segment for p in cloud],
            [p.communication_bytes / 1e6 for p in cloud],
            marks=["B" if p.scheme is SchemeType.BFV else "C" for p in cloud],
            xlabel="iterations per encrypted segment (24 total)",
            ylabel="total communication (MB)"),
    }


def fig14() -> dict:
    """Figure 14: end-to-end client time and energy over a 10 mW / 22 Mbps
    Bluetooth link.  Communication dominates time (~24x over local), but
    VGG16 saves up to 37% energy by offloading (§5.7)."""
    from repro.experiments import end_to_end_study

    data = end_to_end_study()
    rows = [(name, f"{d['compute_s'] * 1e3:.1f}", f"{d['comm_s'] * 1e3:.0f}",
             f"{d['total_s'] * 1e3:.0f}", f"{d['local_s'] * 1e3:.1f}",
             f"{d['energy_j'] * 1e3:.2f}", f"{d['local_j'] * 1e3:.2f}",
             f"{d['local_j'] / d['energy_j']:.2f}x")
            for name, d in data.items()]
    mean_overhead = _geomean([d["total_s"] / d["local_s"] for d in data.values()])

    for name, d in data.items():
        assert d["comm_s"] > d["compute_s"], name
    assert mean_overhead > 3
    assert data["VGG16"]["energy_j"] < data["VGG16"]["local_j"]
    # The tiniest network does not save (battery math favours local there).
    assert data["LeNetSm"]["energy_j"] > data["LeNetSm"]["local_j"]

    return {
        "fig14_endtoend.json": data,
        "fig14_endtoend.txt": format_table(
            ["Network", "TACO ms", "Radio ms", "Total ms", "Local ms",
             "CHOCO mJ", "Local mJ", "Energy adv"], rows),
        "fig14_summary.txt": [
            f"time overhead vs local (geomean): {mean_overhead:.1f}x "
            f"(published avg: 24x)",
            f"VGG16 energy: CHOCO {data['VGG16']['energy_j'] * 1e3:.2f} mJ vs "
            f"local {data['VGG16']['local_j'] * 1e3:.2f} mJ "
            f"(published: up to 37% saving)",
        ],
    }


def fig15() -> dict:
    """Figure 15: per-layer MACs vs communication for synthetic conv layers
    and the real VGG16 / SqueezeNet layers (§5.8).  Larger filters add MACs
    at no extra communication; VGG's layers do more work per byte moved."""
    from repro.experiments import conv_microbenchmark, network_layer_points
    from repro.nn.models import squeezenet_cifar10, vgg16_cifar10

    points = conv_microbenchmark()
    rows = [(p["label"], f"{p['macs'] / 1e6:.2f}", f"{p['comm'] / 1e6:.2f}",
             f"{p['macs'] / p['comm']:.0f}")
            for p in sorted(points, key=lambda p: p["macs"])[
                :: max(1, len(points) // 20)]]
    by_key = {(p["channels"], p["image"], p["kernel"]): p for p in points}
    for (c, i, k), p in by_key.items():
        if k == 1 and (c, i, 3) in by_key:
            bigger = by_key[(c, i, 3)]
            assert bigger["macs"] == 9 * p["macs"]
            # The span grows only when the redundancy margin crosses a
            # power-of-two boundary.
            assert bigger["comm"] <= 2 * p["comm"]
    ratios = [p["macs"] / p["comm"] for p in points]
    assert max(ratios) / min(ratios) > 50

    vgg = network_layer_points(vgg16_cifar10())
    sqz = network_layer_points(squeezenet_cifar10())
    vgg_ratio = sum(m for m, _ in vgg) / sum(c for _, c in vgg)
    sqz_ratio = sum(m for m, _ in sqz) / sum(c for _, c in sqz)
    assert vgg_ratio > 2 * sqz_ratio

    return {
        "fig15_micro.txt": format_table(
            ["Layer", "MACs e6", "Comm MB", "MACs/B"], rows),
        "fig15_scatter.txt": ascii_scatter(
            [p["macs"] / 1e6 for p in points], [p["comm"] / 1e6 for p in points],
            marks=["1" if p["kernel"] == 1 else "3" for p in points],
            logx=True, logy=True,
            xlabel="MACs (millions)", ylabel="communication (MB)"),
        "fig15_networks.txt": [
            f"VGG16 conv layers:      {vgg_ratio:.0f} MACs per comm byte",
            f"SqueezeNet conv layers: {sqz_ratio:.0f} MACs per comm byte",
            "published shape: VGG-like layers maximize MACs/MB (energy win); "
            "SqueezeNet-like layers break even or lose",
        ],
    }


def ckks_precision() -> dict:
    """CKKS precision per multiplicative level (§5.6): graceful, bounded
    loss per level, fully restored by a client-aided refresh."""
    from repro.hecore.ckks import CkksContext
    from repro.hecore.params import SchemeType, small_test_parameters

    params = small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                   data_bits=(30, 24, 24, 24, 24, 24))
    ctx = CkksContext(params, seed=77)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.6, 1.2, 16)       # magnitudes near 1: no decay masking
    m = rng.uniform(0.8, 1.25, 16)
    truth = x.copy()
    ct = ctx.encrypt(x)
    levels = []
    for level in range(1, len(params.data_base)):
        ct = ctx.rescale(ctx.multiply_plain(ct, ctx.encode(m, base=ct.level_base)))
        truth = truth * m
        err = float(np.max(np.abs(np.real(ctx.decrypt(ct))[:16] - truth)))
        levels.append((level, err,
                       -math.log2(err / max(np.max(np.abs(truth)), 1e-12))))
    refreshed = ctx.encrypt(np.real(ctx.decrypt(ct))[:16])
    err_fresh = float(np.max(np.abs(np.real(ctx.decrypt(refreshed))[:16] - truth)))

    bits = [b for _, _, b in levels]
    assert all(b > 10 for b in bits), bits
    # Degrades monotonically-ish (2-bit jitter), a bounded loss per level.
    assert all(b <= a + 2 for a, b in zip(bits, bits[1:]))
    assert (bits[0] - bits[-1]) / max(1, len(bits) - 1) < 6
    assert -math.log2(err_fresh / np.max(np.abs(truth))) >= bits[-1] - 1

    return {"ckks_precision.txt": format_table(
        ["Level", "Max abs error", "Precision (bits)"],
        [(level, f"{err:.2e}", f"{b:.1f}") for level, err, b in levels]) + [
        "",
        f"after client refresh: max error {err_fresh:.2e} "
        f"(fresh-encryption precision restored)",
    ]}


def wire_format() -> dict:
    """Serialized bytes vs the paper's logical accounting at set B: the
    logical size is Table 3's exactly, the physical blob matches its own
    formula, and seed compression halves a fresh symmetric upload."""
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import PARAMETER_SET_B
    from repro.hecore.serialize import (deserialize_ciphertext,
                                        serialize_ciphertext, serialized_size)

    ctx = BfvContext(PARAMETER_SET_B, 99)
    values = np.arange(64, dtype=np.int64)
    public_ct = ctx.encrypt(values)
    seeded_ct = ctx.encrypt_symmetric(values)
    switched = ctx.mod_switch_down(public_ct)
    blob_public = serialize_ciphertext(public_ct)
    blob_seeded = serialize_ciphertext(seeded_ct)
    blob_switched = serialize_ciphertext(switched)
    rows = [
        ("public fresh", public_ct.size_bytes(), len(blob_public)),
        ("symmetric seeded", seeded_ct.size_bytes(), len(blob_seeded)),
        ("after mod-switch", switched.size_bytes(), len(blob_switched)),
    ]

    assert public_ct.size_bytes() == 131072
    # Physical blob: header + 2 components x N x the data rows' byte widths
    # (each row at its modulus' width, ceil(bits / 8)).
    widths = [(q.bit_length() + 7) // 8
              for q in PARAMETER_SET_B.data_base.moduli]
    body = 2 * 4096 * sum(widths)
    assert len(blob_public) == serialized_size(public_ct)
    assert body < len(blob_public) < body + 128
    assert len(blob_seeded) < 0.55 * len(blob_public)
    # Mod-switching sheds the top limb's row and its 8-byte modulus entry.
    assert len(blob_public) - len(blob_switched) == 2 * 4096 * widths[-1] + 8
    restored = deserialize_ciphertext(blob_seeded, PARAMETER_SET_B)
    assert np.array_equal(ctx.decrypt(restored)[:64], values)

    return {"wire_format.txt": format_table(
        ["Ciphertext", "Logical bytes (paper)", "Physical bytes (this repo)"],
        rows)}


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def ablation_accel() -> dict:
    """Halve / double each accelerator module's PEs at the Figure 6 point:
    the NTT / INTT butterflies are the biggest lever, yet doubling them
    leaves most of the latency (why CHOCO-TACO replicates every stage)."""
    from repro.accel.design import AcceleratorModel, CHOCO_TACO_CONFIG

    def time_with(config):
        return AcceleratorModel(config, 8192, 3).encrypt_cost().time_s

    base = time_with(CHOCO_TACO_CONFIG)
    sens = {}
    for module in ("prng_lanes", "ntt_pes", "intt_pes", "dyadic_pes",
                   "add_pes", "modswitch_pes", "encode_pes"):
        current = getattr(CHOCO_TACO_CONFIG, module)
        sens[module] = {
            "half": time_with(replace(CHOCO_TACO_CONFIG,
                                      **{module: max(1, current // 2)})) / base,
            "double": time_with(replace(CHOCO_TACO_CONFIG,
                                        **{module: current * 2})) / base,
        }

    for m, v in sens.items():
        assert v["half"] >= 0.999, m
        assert v["double"] <= 1.001, m
    butterfly_hit = max(sens["ntt_pes"]["half"], sens["intt_pes"]["half"])
    for m in ("dyadic_pes", "add_pes", "modswitch_pes"):
        assert butterfly_hit >= sens[m]["half"], m
    assert sens["intt_pes"]["double"] > 0.75

    return {"ablation_accel_modules.txt": format_table(
        ["Module (PEs halved/doubled)", "Halved time", "Doubled time"],
        [(m, f"{v['half']:.3f}x", f"{v['double']:.3f}x")
         for m, v in sens.items()])}


def ablation_batching() -> dict:
    """Batching (CryptoNets-class) vs packing (§2.1): batching is
    catastrophic for one image and amortises only at large batches."""
    from repro.apps.dnn import ClientAidedDnnPlan
    from repro.core.batching import BatchedDnnPlan, crossover_batch_size
    from repro.nn.models import NETWORK_BUILDERS

    data = {}
    for name in ("LeNetSm", "LeNetLg"):
        net = NETWORK_BUILDERS[name]()
        packed_bytes = ClientAidedDnnPlan(net).communication_bytes()
        full = BatchedDnnPlan(net)
        data[name] = {
            "packed_mb": packed_bytes / 1e6,
            "batched_single_mb": BatchedDnnPlan(
                net, batch_size=1).communication_bytes_per_batch() / 1e6,
            "batched_full_per_image_mb":
                full.communication_bytes_per_image() / 1e6,
            "crossover": crossover_batch_size(net, packed_bytes),
        }
    rows = [(name, f"{d['packed_mb']:.2f}", f"{d['batched_single_mb']:.0f}",
             f"{d['batched_single_mb'] / d['packed_mb']:.0f}x",
             f"{d['batched_full_per_image_mb']:.2f}",
             d["crossover"] if d["crossover"] > 0 else "never")
            for name, d in data.items()]

    for name, d in data.items():
        assert d["batched_single_mb"] / d["packed_mb"] > 50, name
        assert d["crossover"] == -1 or d["crossover"] > 64, name
        # At a full batch, per-image batched comm becomes competitive.
        assert d["batched_full_per_image_mb"] < d["packed_mb"] * 10, name

    return {"ablation_batching.txt": format_table(
        ["Network", "Packed MB", "Batched@1 MB", "Single-image penalty",
         "Batched/full MB-img", "Crossover batch"], rows)}


def ablation_distance() -> dict:
    """Distance kernels as the database grows: collapsed keeps one download
    where point-major grows with n, and its extra server multiplies grow
    with the points per ciphertext."""
    from repro.core.distance import (CollapsedPointMajorKernel,
                                     DistanceProblem, PointMajorKernel,
                                     StackedPointMajorKernel)

    ctx = _small_ckks()
    rng = np.random.default_rng(4)
    sweep = []
    for n_points in (4, 8, 16, 32):
        problem = DistanceProblem(n_points=n_points, dims=4)
        points = rng.uniform(-1, 1, (n_points, 4))
        query = rng.uniform(-1, 1, 4)
        row = {"n": n_points}
        for cls in (PointMajorKernel, StackedPointMajorKernel,
                    CollapsedPointMajorKernel):
            kernel = cls(ctx, problem)
            ctx.make_galois_keys(kernel.required_rotation_steps())
            outs, delta = _counted(ctx, lambda: kernel.compute(
                kernel.encrypt_points(points), kernel.encrypt_query(query)))
            got = kernel.decode([np.real(ctx.decrypt(ct)) for ct in outs])
            assert np.allclose(got, kernel.reference(points, query),
                               atol=0.1), (cls.name, n_points)
            row[cls.name] = (len(outs), delta.get("multiply_plain", 0),
                             delta.get("rotate", 0))
        sweep.append(row)
    rows = [(row["n"], name, *row[name]) for row in sweep
            for name in ("point-major", "stacked-point", "collapsed")]

    for row in sweep:
        assert row["point-major"][0] == row["n"]
        assert row["collapsed"][0] == 1
        assert row["collapsed"][1] > row["stacked-point"][1]
    premiums = [r["collapsed"][1] - r["stacked-point"][1] for r in sweep]
    assert premiums == sorted(premiums)
    assert premiums[-1] > premiums[0]

    return {"ablation_distance.txt": format_table(
        ["Points", "Variant", "Output cts", "Server mults", "Server rots"],
        rows)}


def ablation_dse_rule() -> dict:
    """The §4.4 operating-point rule against minimum-energy, minimum-area
    and minimum-time picks on the same space: near-optimal in time and
    energy, where the smallest design pays heavily in latency."""
    from repro.accel.dse import (POWER_LIMIT_W, explore_design_space,
                                 select_operating_point)

    points = explore_design_space({
        "prng_lanes": (1, 2, 4, 8),
        "ntt_pes": (1, 2, 4, 8, 16),
        "intt_pes": (2, 8, 16),
        "dyadic_pes": (2, 4, 8),
        "add_pes": (4, 8),
        "modswitch_pes": (4, 8),
        "encode_pes": (4, 8),
    })
    feasible = [p for p in points if p.power_w <= POWER_LIMIT_W]
    picks = {
        "paper_rule": select_operating_point(points),
        "min_energy": min(feasible, key=lambda p: p.energy_j),
        "min_area": min(feasible, key=lambda p: p.area_mm2),
        "min_time": min(feasible, key=lambda p: p.time_s),
    }
    paper = picks["paper_rule"]
    assert paper.time_s <= picks["min_time"].time_s * 1.01
    assert paper.energy_j <= picks["min_energy"].energy_j * 1.15
    assert picks["min_area"].time_s > 2 * paper.time_s

    return {"ablation_dse_rule.txt": format_table(
        ["Rule", "Time ms", "Energy mJ", "Area mm^2", "Power mW"],
        [(rule, f"{p.time_s * 1e3:.3f}", f"{p.energy_j * 1e3:.4f}",
          f"{p.area_mm2:.1f}", f"{p.power_w * 1e3:.0f}")
         for rule, p in picks.items()])}


def ablation_keyswitch() -> dict:
    """The one derived special prime P per named set: key shape, one Galois
    key's wire bytes, and the budget 24 chained rotations burn (CKKS: the
    absolute error).  Every set decrypts, and no BFV set burns more than a
    third of a bit per rotation."""
    from repro.hecore import context_for
    from repro.hecore.keys import GaloisKeys, galois_element_for_step
    from repro.hecore.params import (PARAMETER_SET_A, PARAMETER_SET_B,
                                     PARAMETER_SET_C, SchemeType,
                                     seal_default_parameters)
    from repro.hecore.serialize import serialize_galois_keys

    rotations = 24
    rows = []
    for params in (PARAMETER_SET_A, PARAMETER_SET_B, PARAMETER_SET_C,
                   seal_default_parameters(8192), seal_default_parameters(16384)):
        ctx = context_for(params, seed=77)
        gk = ctx.make_galois_keys([1])
        elt = galois_element_for_step(1, params.poly_degree)
        key_bytes = len(serialize_galois_keys(GaloisKeys({elt: gk.keys[elt]})))
        # Zero plaintext: fresh noise is pure sampling error.
        ct = ctx.encrypt([0] * 8)
        bfv = params.scheme is SchemeType.BFV
        before = ctx.noise_budget(ct) if bfv else None
        for _ in range(rotations):
            ct = ctx.rotate(ct, 1)
        out = np.asarray(ctx.decrypt(ct))
        if bfv:
            burned, decrypts = before - ctx.noise_budget(ct), bool(np.all(out == 0))
        else:
            error = float(np.max(np.abs(out)))
            burned, decrypts = f"max |err| {error:.1e}", error < 1e-2
        rows.append((params.label,
                     f"{len(params.data_base)} x {len(params.full_base)}",
                     key_bytes, burned, decrypts))

    assert all(row[-1] for row in rows)
    assert all(row[3] <= rotations // 3 for row in rows
               if isinstance(row[3], int))

    return {"ablation_keyswitch.txt": format_table(
        ["Set", "Digits x rows", "Galois key (B)",
         f"Bits burned over {rotations} rotations", "Decrypts"], rows)}


def ablation_modswitch() -> dict:
    """Server-side modulus switching as download compression: verified at
    set B and priced on the DNN plans.  It only applies to final per-round
    outputs; seed-compressed uploads cover the other direction."""
    from repro.apps.dnn import ClientAidedDnnPlan
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import PARAMETER_SET_B
    from repro.nn.models import NETWORK_BUILDERS

    ctx = BfvContext(PARAMETER_SET_B, seed=17)
    t = PARAMETER_SET_B.plain_modulus
    rng = np.random.default_rng(3)
    x = rng.integers(0, 8, 512, dtype=np.int64)      # 3-bit activations
    w = rng.integers(-8, 8, PARAMETER_SET_B.poly_degree, dtype=np.int64)
    ct = ctx.multiply_plain(ctx.encrypt(x), ctx.encode(w))
    switched = ctx.mod_switch_down(ct)
    decrypts = np.array_equal(ctx.decrypt(switched)[:512],
                              (x.astype(object) * w[:512].astype(object)) % t)
    budget_full, budget_switched = ctx.noise_budget(ct), ctx.noise_budget(switched)

    rows = []
    for name, build in NETWORK_BUILDERS.items():
        plan = ClientAidedDnnPlan(build())
        baseline = plan.communication_bytes()
        # Downloads shrink by the dropped residue's share (1/2 at k-1 = 2).
        saved = plan.decrypt_ops * plan.params.ciphertext_bytes() // 2
        rows.append((name, f"{baseline / 1e6:.2f}",
                     f"{(baseline - saved) / 1e6:.2f}",
                     f"{100 * saved / baseline:.0f}%"))

    assert decrypts
    assert budget_switched > 0
    # Three word-sized limbs where SEAL's set B carries two logical
    # residues (DESIGN.md): one switch sheds 1/3 of the bytes here.
    limbs = len(PARAMETER_SET_B.data_base)
    assert abs(switched.size_bytes() - ct.size_bytes() * (limbs - 1) // limbs) <= 8
    vgg = ClientAidedDnnPlan(NETWORK_BUILDERS["VGG16"]())
    assert (vgg.decrypt_ops / 2) / (vgg.encrypt_ops + vgg.decrypt_ops) > 0.25

    return {"ablation_modswitch.txt": format_table(
        ["Network", "Comm MB", "With switched downloads", "Saved"], rows) + [
        "",
        f"functional check at set B: post-round budget "
        f"{budget_full} -> {budget_switched} bits, "
        f"download {ct.size_bytes()} -> {switched.size_bytes()} B, "
        f"decrypts correctly: {decrypts}",
    ]}


def ablation_redundancy() -> dict:
    """Rotational redundancy (§3.3): removing masked permutations drops an
    RNS residue; chained redundant rotations keep a bare rotation's budget
    where masked ones burn ~log2(t) bits each; redundancy costs slot
    density, never security (packing happens before encryption)."""
    from repro.core.packing import RedundantPacking, windowed_rotation_redundant
    from repro.core.paramsearch import (WorkloadProfile,
                                        residue_savings_from_redundancy)
    from repro.core.permute import windowed_rotation_masked
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    baseline, choco = residue_savings_from_redundancy(WorkloadProfile(
        value_bits=4, fan_in=800, rotations=25, masked_permutations=2,
        plain_mult_depth=1, min_slots=2048))
    assert baseline.data_residues - choco.data_residues >= 1
    assert choco.ciphertext_bytes < baseline.ciphertext_bytes

    ctx = BfvContext(small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                           plain_bits=16,
                                           data_bits=(30, 30, 30)), seed=31)
    window, rot = 8, 2
    packing = RedundantPacking(window=window, redundancy=4, count=1)
    offset = packing.layout.window_offset(0)
    ctx.make_galois_keys([rot, -(window - rot)])
    redundant = ctx.encrypt(packing.pack([np.arange(1, window + 1)])
                            .astype(np.int64))
    masked = redundant.copy()
    budgets = [(ctx.noise_budget(redundant), ctx.noise_budget(masked))]
    for _ in range(3):
        redundant = windowed_rotation_redundant(ctx, redundant, rot,
                                                packing.layout)
        masked = windowed_rotation_masked(ctx, masked, rot, offset, window)
        budgets.append((ctx.noise_budget(redundant), ctx.noise_budget(masked)))
    assert budgets[0][0] - budgets[3][0] <= 8
    gaps = [r - m for r, m in budgets]
    assert all(gaps[i] < gaps[i + 1] for i in range(3))
    assert budgets[3][0] - budgets[3][1] >= 30

    density = {r: RedundantPacking(window=16, redundancy=r, count=4).layout.density
               for r in (0, 2, 4, 8)}
    assert density[0] == 1.0
    assert all(density[a] >= density[b] for a, b in zip((0, 2, 4), (2, 4, 8)))

    return {
        "ablation_redundancy_params.txt": [
            f"with masked permutations: {baseline.describe()}",
            f"with rotational redundancy: {choco.describe()}",
            f"residues saved: {baseline.data_residues - choco.data_residues}",
            f"ciphertext shrink: "
            f"{baseline.ciphertext_bytes / choco.ciphertext_bytes:.2f}x",
        ],
        "ablation_redundancy_noise.txt": format_table(
            ["Permutations", "Redundancy budget", "Masked budget"],
            [(i, r, m) for i, (r, m) in enumerate(budgets)]),
        "ablation_redundancy_density.txt": [
            f"redundancy {r}: density {d:.2f}" for r, d in density.items()],
    }


def ablation_refresh() -> dict:
    """PageRank refresh frequency vs total client cost (Figure 13 plus
    client compute): with CHOCO-TACO the radio dominates, so the
    communication-optimal schedule is also the end-to-end optimum."""
    from repro.apps.pagerank import sweep_schedules
    from repro.hecore.params import SchemeType
    from repro.platforms.client_device import Imx6SoftwareClient
    from repro.platforms.radio import BluetoothLink

    total = 24
    client = Imx6SoftwareClient()
    radio = BluetoothLink()
    rows = []
    for p in sorted(sweep_schedules(total, 64, SchemeType.CKKS),
                    key=lambda x: x.segment):
        segments = total // p.segment
        n, k = p.choice.poly_degree, p.choice.residue_count
        sw_crypto = segments * (client.ckks_encrypt_time(n, k)
                                + client.ckks_decrypt_time(n, k))
        # CHOCO-TACO crypto: ~18 ms enc / 16 ms dec at set C, scaled by N.
        hw_crypto = segments * (18e-3 + 16e-3) * (n / 8192)
        comm = radio.transfer_time(p.communication_bytes)
        rows.append({"segment": p.segment, "params": f"N={n},k={k}",
                     "comm_mb": p.communication_bytes / 1e6,
                     "sw_total": sw_crypto + comm, "hw_total": hw_crypto + comm,
                     "comm_s": comm})

    best_comm = min(rows, key=lambda r: r["comm_mb"])
    best_hw = min(rows, key=lambda r: r["hw_total"])
    # Communication ties are broken toward fewer refreshes.
    assert best_hw["comm_mb"] <= best_comm["comm_mb"] * 1.01
    for r in rows:
        assert r["comm_s"] / r["hw_total"] > 0.5, r["segment"]
    assert best_comm["segment"] > 1

    return {"ablation_refresh.txt": format_table(
        ["Segment", "Params", "Comm MB", "SW client s", "TACO client s"],
        [(r["segment"], r["params"], f"{r['comm_mb']:.2f}",
          f"{r['sw_total']:.2f}", f"{r['hw_total']:.2f}") for r in rows])}


# ---------------------------------------------------------------------------
# The table and the runner
# ---------------------------------------------------------------------------

FIGURES = [
    Figure(table1, ("table1_ops.txt", "table1_encrypt_scaling.txt"), timed=True),
    Figure(table3, ("table3_params.txt", "table3_vs_default.txt")),
    Figure(table4, ("table4_noise.txt",)),
    Figure(table5, ("table5_networks.txt",)),
    Figure(layer_plans, ("layer_plans.txt",)),
    Figure(fig2, ("fig2_breakdown.txt", "fig2_summary.txt")),
    Figure(fig7, ("fig7_dse.txt", "fig7_scatter.txt")),
    Figure(fig8, ("fig8_scaling.json", "fig8_scaling.txt")),
    Figure(sec46, ("sec46_decryption.txt",)),
    Figure(sec47, ("sec47_ckks.txt",)),
    Figure(fig10, ("fig10_comm.txt", "fig10_derived.txt")),
    Figure(fig11, ("fig11_distance.txt",)),
    Figure(fig12, ("fig12_client_time.json", "fig12_client_time.txt",
                   "fig12_summary.txt")),
    Figure(fig13, ("fig13_pagerank.txt", "fig13_scatter.txt")),
    Figure(fig14, ("fig14_endtoend.json", "fig14_endtoend.txt",
                   "fig14_summary.txt")),
    Figure(fig15, ("fig15_micro.txt", "fig15_scatter.txt",
                   "fig15_networks.txt")),
    Figure(ckks_precision, ("ckks_precision.txt",)),
    Figure(wire_format, ("wire_format.txt",)),
    Figure(ablation_accel, ("ablation_accel_modules.txt",)),
    Figure(ablation_batching, ("ablation_batching.txt",)),
    Figure(ablation_distance, ("ablation_distance.txt",)),
    Figure(ablation_dse_rule, ("ablation_dse_rule.txt",)),
    Figure(ablation_keyswitch, ("ablation_keyswitch.txt",)),
    Figure(ablation_modswitch, ("ablation_modswitch.txt",)),
    Figure(ablation_redundancy, ("ablation_redundancy_params.txt",
                                 "ablation_redundancy_noise.txt",
                                 "ablation_redundancy_density.txt")),
    Figure(ablation_refresh, ("ablation_refresh.txt",)),
]


def run(figure: Figure) -> dict:
    """One row's reports, rendered: ``{file name: text}``."""
    ir.clear_program_cache()
    reports = figure.build()
    if sorted(reports) != sorted(figure.reports):
        raise AssertionError(f"{figure.name} returned {sorted(reports)}, "
                             f"declares {sorted(figure.reports)}")
    return {name: _render(name, body) for name, body in reports.items()}


def _run_all(figures):
    """``({figure: {file name: text}}, [failure])`` over *figures*."""
    texts, failures = {}, []
    for figure in figures:
        try:
            texts[figure] = run(figure)
        except Exception:
            failures.append(f"{figure.name} failed:\n{traceback.format_exc()}")
    return texts, failures


def check(figures=FIGURES, committed: Path = RESULTS_DIR) -> list:
    """Regenerate *figures* in memory and diff each untimed report against
    its file under *committed*: one unified diff (or failure) per problem,
    ``[]`` when every byte matches."""
    texts, problems = _run_all(figures)
    for figure, reports in texts.items():
        if figure.timed:
            continue
        for name, text in reports.items():
            path = committed / name
            old = path.read_text() if path.exists() else ""
            if old != text:
                problems.append("".join(difflib.unified_diff(
                    old.splitlines(True), text.splitlines(True),
                    f"committed/{name}", f"regenerated/{name}")))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate in memory and exit 1 if an untimed report differs "
        "from benchmarks/results/ or a row's assertion fails")
    args = parser.parse_args(argv)

    if args.check:
        problems = check()
        if problems:
            print("\n".join(problems))
            print(f"{len(problems)} figure problem(s)", file=sys.stderr)
            return 1
        print(f"all {len(FIGURES)} figure rows match benchmarks/results/")
        return 0

    texts, failures = _run_all(FIGURES)
    for reports in texts.values():
        for name, text in reports.items():
            (RESULTS_DIR / name).write_text(text)
    print(f"wrote {sum(map(len, texts.values()))} reports to {RESULTS_DIR}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
