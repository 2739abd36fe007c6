"""The level planner's emitted programs, pinned over a fixed corpus.

``tests/level_corpus.json`` was recorded at the commit *before* the four
level walks (sink-pass states, planner scale exponents / result levels /
row integral, estimator live-limb bookkeeping) became one analysis
(:meth:`repro.core.ir.IrProgram.levels`) and the two noise tables became
one (:meth:`repro.hecore.noise.NoiseEstimator.node_cost_bits`).  Every
plan total and the position of every planned switch must repeat exactly:
a refactor of the planner that moves a decision fails here first.

``bench/slice/bfv3`` and ``bench/slice/bfv6`` were re-recorded when the
slice's conv became taps x shifts and its fc hybrid diagonals: the traced
program is a different (smaller) node list, so the planned switches sit at
other node ids; every plan total (drops, replans, limb rows) repeated.

Every entry with a ciphertext x ciphertext product (the five ``knn/*`` and
six of the ``eva/*`` programs) was re-recorded when a product began to
trace as ``mul`` + ``relin`` and the sinking pass to merge ``relin`` pairs:
``sunk`` gained its third count, ``relins_sunk``; planned switches sit one
node id further on per ``relin`` emitted before them; and
``limb_rows_before`` / ``limb_rows_after`` count the ``relin`` rows.  Every
``limb_drops``, ``align_switches``, ``replans``, ``rescales_sunk`` and
``mod_switches_sunk`` repeated.

``knn/dimension-major``, ``knn/stacked-point`` and ``knn/stacked-dimension``
were re-recorded when the sinking pass stopped merging a planned drop taken
directly on an input (that drop marks the input's entry level, which the
client now encrypts at): ``mod_switches_sunk`` went 16 -> 0, 1 -> 0 and
1 -> 0, and the planned switches now sit right after the inputs (ids 1, 3,
...); every ``limb_drops``, ``align_switches``, ``replans``, limb-row
integral, ``rescales_sunk`` and ``relins_sunk`` repeated.

``bench/slice/bfv3``, ``bench/slice/bfv6`` and ``knn/collapsed`` were
re-recorded when weighted-sum fusion began to take baby-step/giant-step
sums (shared baby rotations, both schemes): each giant step of the slice's
conv and fc and of the collapse round is now one ``weighted_sum`` node, so
the limb-row integrals count fewer nodes (468 -> 111 and 295 -> 57 for
``knn/collapsed``, whose ``limb_drops`` stayed 0), and each span is a drop
site, so the slice's ``limb_drops`` went 2 -> 6 (bfv3) and 8 -> 12 (bfv6),
its ``replans`` staying 0 and 1.  Every other entry repeated.

``replans`` left every entry's ``plan`` when the in-program client round
trip (``recrypt_boundary``) and the planner's per-segment replans were
deleted: ``plan`` is now ``[limb_drops, align_switches, limb_rows_before,
limb_rows_after]``, and every other value of every other entry repeated.
The slice is served as two programs, conv then fc, with the client round
trip between them, so ``bench/slice/bfv3`` and ``bench/slice/bfv6`` were
recorded anew as a pair of fingerprints, the conv's then the fc's; they
are new entries, not comparable with the one joined program they replace.

``knn/collapsed``, ``knn/point-major``, ``knn/stacked-point`` and
``light/bfv3`` were re-recorded when a window sum began to trace as plain
rotations and adds (the ``rotate_sum`` node kind was deleted): the planner
sees each window as its rotate/add chain, fused to one key-switch sum only
after planning, so ``limb_rows_before`` / ``limb_rows_after`` count the
chain's nodes (111 -> 198 and 57 -> 115 for ``knn/collapsed``, 1155 ->
6723 and 707 -> 2563 for ``knn/point-major``, 21 -> 108 and 14 -> 43 for
``knn/stacked-point``, 12 -> 27 and 9 -> 19 for ``light/bfv3``).  Every
``limb_drops``, ``align_switches``, sunk count and planned switch
repeated.

The same four plus ``bench/slice/bfv3`` and ``bench/slice/bfv6`` were
re-recorded when both key-switch-sum fusions moved ahead of the planner:
the planner walks each fused window, giant-step or repacking sum as one
node, so the limb-row integrals count the program that runs (72 / 44 for
``knn/collapsed``, 1155 / 707 for ``knn/point-major``, 21 / 14 for
``knn/stacked-point``, 12 / 9 for ``light/bfv3``; the slices' fc 39 / 31 ->
24 / 21 and 78 / 34 -> 48 / 24), and the slices' fc switches after its
giant sum sit at the fused program's node ids.  Every ``limb_drops``,
``align_switches`` and sunk count repeated.

``knn/dimension-major`` was re-recorded when sinking and product-sum
fusion moved ahead of the planner too, so that it plans the finished
program: it walks one ``product_sum``, one ``relin`` and one ``rescale``
where it walked 16 products, 16 of each and the 15 adds between them, so
``limb_rows_before`` / ``limb_rows_after`` went 333 / 223 -> 153 / 133,
the rows one executed query charges.  Its ``limb_drops``,
``align_switches``, sunk counts and planned switch ids repeated, and so
did every other entry.

``tests/compiled_digests.json`` pins more: the bytes of every compiled
program (:func:`repro.core.ir._program_digest` of ``sched.program``) of
every :func:`_planned_programs` entry, planner on and off.  A refactor of
the passes, the planner or their analysis must leave every one of them
byte-identical.

Re-record (only for a deliberate planner or kernel-body change) with
``PYTHONPATH=src python -m tests.test_level_corpus > tests/level_corpus.json``
and ``PYTHONPATH=src python -m tests.test_level_corpus digests >
tests/compiled_digests.json``.
"""

import itertools
import json
import sys
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiler import Constant, EvaProgram, Input, Scalar, lower_to_ir
from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core import levelplan
from repro.core.ir import (
    IrProgram,
    ScheduleReport,
    _fuse_product_sums,
    _fuse_unweighted_sums,
    _fuse_weighted_sums,
    _program_digest,
    _sink_level_drops,
    compile_ir,
)
from repro.core.levelplan import plan_levels
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from tests.test_level_planner import _light_trace
from tests.test_rotation_bases import _e2e_layers

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import bench_level_planner as bench  # noqa: E402

GOLDEN = Path(__file__).parent / "level_corpus.json"
DIGESTS = Path(__file__).parent / "compiled_digests.json"


def _eva_programs():
    """The programs of ``tests/test_compiler.py``."""
    x, w, c = Input("x"), Input("w"), Input("c")
    dot = x * w
    dot = dot + dot.rotate(2)
    sq = (x - c) * (x - c)
    dist = sq + sq.rotate(2)
    shared = x * x
    return {
        "affine": {"y": 2.0 * x + Constant([1, 2, 3, 4])},
        "poly2": {"y": (x * x) * 0.5 + x},
        "two_io": {"prod": x * w, "diff": x - w, "neg": -x},
        "plain_minus": {"y": Scalar(1.0) - x},
        "rotation": {"y": x + x.rotate(1)},
        "dot": {"dot": dot + dot.rotate(1)},
        "level_align": {"y": (x * x) * 0.25 + x + 1.0},
        "sqdist": {"dist": dist + dist.rotate(1)},
        "memo": {"y": shared + shared},
    }


def _corpus():
    """name -> (traced program, parameters it is planned for); a slice
    entry holds its two programs, conv then fc."""
    knn = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))
    ckks = small_test_parameters(SchemeType.CKKS, 1024, data_bits=(30, 24, 24))
    bfv3 = small_test_parameters(SchemeType.BFV, 1024, plain_bits=16,
                                 data_bits=(30, 30, 30))
    corpus = {}
    for name, cls in KERNEL_VARIANTS.items():
        kernel = cls(types.SimpleNamespace(params=knn),
                     DistanceProblem(n_points=64, dims=16))
        corpus[f"knn/{name}"] = kernel.program(kernel.input_shape), knn
    for name, outputs in _eva_programs().items():
        corpus[f"eva/{name}"] = lower_to_ir(EvaProgram(outputs, slots=4)), ckks
    corpus["light/bfv3"] = _light_trace(bfv3), bfv3
    for limbs in (3, 6):
        params = small_test_parameters(SchemeType.BFV, 4096, plain_bits=16,
                                       data_bits=(30,) * limbs)
        ctx = types.SimpleNamespace(params=params)
        rng = np.random.default_rng(7)
        mats = [rng.integers(0, 7, size=(bench.CHAIN_DIM, bench.CHAIN_DIM))
                for _ in range(bench.CHAIN_LAYERS)]
        corpus[f"bench/chain/bfv{limbs}"] = bench._trace_chain(ctx, mats), params
        corpus[f"bench/slice/bfv{limbs}"] = bench._trace_slice(
            ctx, np.random.default_rng(11))[0], params
    return corpus


def _fingerprint(program, params):
    if isinstance(program, tuple):
        return [_fingerprint(p, params) for p in program]
    sched = compile_ir(program, params.scheme, params=params)
    plan = sched.report.level_plan
    live = sched.program.live_set()
    return {
        "plan": [plan.limb_drops, plan.align_switches,
                 plan.limb_rows_before, plan.limb_rows_after],
        "sunk": [sched.report.rescales_sunk, sched.report.mod_switches_sunk,
                 sched.report.relins_sunk],
        "planned_switches": [nid for nid in sorted(live)
                             if sched.program.nodes[nid].planned],
    }


CORPUS = _corpus()


def corpus_programs(name):
    """Entry *name*'s programs (one, or a slice's conv and fc) and the
    parameters they are planned for."""
    program, params = CORPUS[name]
    return program if isinstance(program, tuple) else (program,), params


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_emitted_program_did_not_move(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert _fingerprint(*CORPUS[name]) == want


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_pass_adds_or_removes_a_rotation_step(name):
    """What makes reading the Galois-key set off the *traced* program
    sound: fusion, planning, sinking and grouping rewrite nodes but never
    the steps they rotate by, planner on or off."""
    programs, params = corpus_programs(name)
    for program in programs:
        for planned in (None, params):
            sched = compile_ir(program, params.scheme, params=planned)
            assert sched.rotation_steps() == program.rotation_steps()


def _planned_programs():
    """name -> (programs, parameters): every corpus entry (its ``knn/*``
    entries are the ``KERNEL_VARIANTS`` programs at the e2e CKKS set) and
    the e2e conv and fc at set B, as served."""
    conv, fc, _ = _e2e_layers(types.SimpleNamespace(params=PARAMETER_SET_B), 0)
    return {**{name: corpus_programs(name) for name in CORPUS},
            "e2e/conv": ((conv.program(conv.input_shape),), PARAMETER_SET_B),
            "e2e/fc": ((fc.program(fc.input_shape),), PARAMETER_SET_B)}


@pytest.mark.parametrize("name", sorted(_planned_programs()))
def test_the_planner_receives_a_fusion_fixpoint(name, monkeypatch):
    """The planner prices the program that runs: every rewrite pass is
    done before it sees the program, so re-running both key-switch-sum
    fusions, sinking and product-sum fusion on what it receives rewrites
    nothing."""
    programs, params = _planned_programs()[name]
    received = []

    def spy(program, params):
        received.append(IrProgram(nodes=[replace(n) for n in program.nodes],
                                  outputs=dict(program.outputs),
                                  slots=program.slots))
        return plan_levels(program, params)

    monkeypatch.setattr(levelplan, "plan_levels", spy)
    for program in programs:
        compile_ir(program, params.scheme, params=params)
    assert len(received) == len(programs)
    for program in received:
        report = ScheduleReport()
        _fuse_weighted_sums(program, params.scheme, report)
        _fuse_unweighted_sums(program, params.scheme, report)
        _sink_level_drops(program, params.scheme, report)
        _fuse_product_sums(program, params.scheme, report)
        assert report == ScheduleReport()


def _counted(walks, name, real):
    def walk(self, *args):
        walks[name] += 1
        return real(self, *args)
    return walk


@pytest.mark.parametrize("name", sorted(_planned_programs()))
def test_one_analysis_per_rewrite(name, monkeypatch):
    """``compile_ir`` walks the whole program once, again only after a
    pass that rewrote it, and once more for the level planner's output;
    the passes, the planner, the noise estimate and ``ScheduledProgram``
    read that analysis.  Counted as calls of the three whole-program
    walks, each of them one analysis's."""
    programs, params = _planned_programs()[name]
    walks = Counter()
    for walk in ("levels", "live_set", "consumers"):
        monkeypatch.setattr(IrProgram, walk,
                            _counted(walks, walk, getattr(IrProgram, walk)))
    for program, planned in itertools.product(programs, (params, None)):
        walks.clear()
        report = compile_ir(program, params.scheme, params=planned).report
        rewrote = sum(map(bool, (
            report.weighted_sum_spans, report.rotation_sums,
            report.rescales_sunk + report.mod_switches_sunk
            + report.relins_sunk, report.product_sums)))
        assert walks["levels"] <= 1 + rewrote + (planned is not None)
        assert walks["live_set"] == walks["consumers"] == walks["levels"]


def _compiled_digests(name):
    """``{"planned": [...], "unplanned": [...]}``: the digest of each of
    entry *name*'s compiled programs, planner on and off."""
    programs, params = _planned_programs()[name]
    return {key: [_program_digest(compile_ir(p, params.scheme,
                                             params=planned).program,
                                  params, planned is not None).hex()
                  for p in programs]
            for key, planned in (("planned", params), ("unplanned", None))}


@pytest.mark.parametrize("name", sorted(_planned_programs()))
def test_compiled_program_bytes_did_not_move(name):
    assert _compiled_digests(name) == json.loads(DIGESTS.read_text())[name]


def test_digest_golden_covers_every_planned_program():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(
        _planned_programs())


def test_golden_covers_exactly_the_corpus():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CORPUS)


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        names, entry = _planned_programs(), _compiled_digests
    else:
        names, entry = CORPUS, lambda name: _fingerprint(*CORPUS[name])
    print("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(entry(name))}"
        for name in sorted(names)) + "\n}")
